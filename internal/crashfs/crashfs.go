// Package crashfs is a recording file system for crash-point tests. It
// implements wal.FS over one real directory: every operation goes through
// to the directory, so a store running on it reads and writes its files as
// usual, and is also logged. From the log it builds, for the state after
// any operation, a directory a crash there could leave behind (Image), and
// it can hold, fail and count the fsyncs of a file (Syncs).
//
// The model of what a crash keeps:
//   - a file keeps the bytes its last completed fsync covered (the writes
//     and truncates made before that fsync began), plus some prefix of the
//     ones after, the last of which may have landed only in part;
//   - a create, rename or remove is durable once a directory sync has
//     completed after it; later ones survive as a prefix.
//
// The real files are never fsynced: what a crash keeps is decided by the
// log, not by the disk.
package crashfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/wal"
)

type kind uint8

const (
	opCreate   kind = iota // a directory entry for a new file
	opRename               // a directory entry moves to another name
	opRemove               // a directory entry goes
	opSyncDir              // the directory's entries become durable
	opWrite                // bytes land in a file
	opTruncate             // a file is cut (or extended) to a size
	opSync                 // a file's bytes become durable
	opClose
)

var kindNames = [...]string{"create", "rename", "remove", "syncdir", "write", "truncate", "sync", "close"}

// op is one recorded operation.
type op struct {
	at   int // index in the log
	kind kind
	name string // the file's name in the directory (rename: the old one)
	to   string // rename: the new name
	ino  *inode
	off  int64  // write: where the bytes go; truncate: the new size
	data []byte // write: the bytes
	upto int    // sync: ino.ops it covers; syncdir: dirOps it covers
}

// inode is one file's content history.
type inode struct {
	base []byte // content when the FS was made (files already in the directory)
	ops  []*op  // writes and truncates, in log order
	size int64  // current size
}

// FS records the operations on one directory. Use it as a wal.FS.
type FS struct {
	root string

	mu      sync.Mutex
	log     []*op
	dirOps  []*op             // creates, renames and removes, in log order
	initial map[string]*inode // the namespace when made: durable
	names   map[string]*inode // the namespace now
	syncs   map[string]*Syncs
}

var _ wal.FS = (*FS)(nil)

// New records the directory root, which must exist. Files already in it
// count as durable.
func New(root string) (*FS, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	fs := &FS{root: filepath.Clean(root), initial: map[string]*inode{}, names: map[string]*inode{}, syncs: map[string]*Syncs{}}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, err
		}
		ino := &inode{base: data, size: int64(len(data))}
		fs.initial[e.Name()] = ino
		fs.names[e.Name()] = ino
	}
	return fs, nil
}

// name maps a path to its file name in the directory.
func (fs *FS) name(path string) (string, error) {
	if dir, name := filepath.Split(filepath.Clean(path)); filepath.Clean(dir) == fs.root {
		return name, nil
	}
	return "", fmt.Errorf("crashfs: %s is not a file in %s", path, fs.root)
}

func (fs *FS) record(o *op) {
	o.at = len(fs.log)
	fs.log = append(fs.log, o)
	switch o.kind {
	case opWrite, opTruncate:
		o.ino.ops = append(o.ino.ops, o)
	case opCreate, opRename, opRemove:
		fs.dirOps = append(fs.dirOps, o)
	}
}

// OpenFile implements wal.FS.
func (fs *FS) OpenFile(path string, flag int, perm os.FileMode) (wal.File, error) {
	name, err := fs.name(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	ino := fs.names[name]
	switch {
	case ino == nil:
		ino = &inode{}
		fs.names[name] = ino
		fs.record(&op{kind: opCreate, name: name, ino: ino})
	case flag&os.O_TRUNC != 0:
		fs.record(&op{kind: opTruncate, name: name, ino: ino})
		ino.size = 0
	}
	return &file{fs: fs, f: f, name: name, ino: ino, appends: flag&os.O_APPEND != 0}, nil
}

// Rename implements wal.FS.
func (fs *FS) Rename(oldpath, newpath string) error {
	from, err := fs.name(oldpath)
	if err != nil {
		return err
	}
	to, err := fs.name(newpath)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	ino := fs.names[from]
	delete(fs.names, from)
	fs.names[to] = ino
	fs.record(&op{kind: opRename, name: from, to: to, ino: ino})
	return nil
}

// Remove implements wal.FS.
func (fs *FS) Remove(path string) error {
	name, err := fs.name(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := os.Remove(path); err != nil {
		return err
	}
	fs.record(&op{kind: opRemove, name: name, ino: fs.names[name]})
	delete(fs.names, name)
	return nil
}

// SyncDir implements wal.FS.
func (fs *FS) SyncDir(path string) error {
	if filepath.Clean(path) != fs.root {
		return fmt.Errorf("crashfs: sync of %s, which is not %s", path, fs.root)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.record(&op{kind: opSyncDir, upto: len(fs.dirOps)})
	return nil
}

// file is an open file of the FS.
type file struct {
	fs      *FS
	f       *os.File
	name    string
	ino     *inode
	appends bool  // opened O_APPEND: every write lands at the end
	pos     int64 // where the next write lands otherwise
}

func (f *file) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := f.f.Write(p)
	if n > 0 {
		off := f.pos
		if f.appends {
			off = f.ino.size
		}
		f.fs.record(&op{kind: opWrite, name: f.name, ino: f.ino, off: off, data: append([]byte(nil), p[:n]...)})
		f.pos = off + int64(n)
		f.ino.size = max(f.ino.size, f.pos)
	}
	return n, err
}

// Sync covers what was written before it began, and is recorded when it
// returns: a write made while it is held may or may not be covered, so the
// image keeps it only as an unsynced write.
func (f *file) Sync() error {
	f.fs.mu.Lock()
	upto := len(f.ino.ops)
	s := f.fs.syncsLocked(f.name)
	f.fs.mu.Unlock()
	if err := s.enter(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.record(&op{kind: opSync, name: f.name, ino: f.ino, upto: upto})
	f.fs.mu.Unlock()
	return nil
}

func (f *file) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.record(&op{kind: opClose, name: f.name, ino: f.ino})
	return f.f.Close()
}

// Syncs holds, fails and counts the fsyncs of one file.
type Syncs struct {
	mu      sync.Mutex
	calls   int
	gate    chan struct{}
	fail    error
	entered chan struct{}
}

// Syncs returns the controls of the fsyncs of the file at path.
func (fs *FS) Syncs(path string) *Syncs {
	name, err := fs.name(path)
	if err != nil {
		panic(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncsLocked(name)
}

func (fs *FS) syncsLocked(name string) *Syncs {
	s := fs.syncs[name]
	if s == nil {
		// Room for every announcement a test waits for; the rest are
		// dropped, so a file synced often never blocks on it.
		s = &Syncs{entered: make(chan struct{}, 64)}
		fs.syncs[name] = s
	}
	return s
}

// enter counts an fsync, announces it on Entered, waits while a Hold is in
// force, and returns the error Fail set when it began (nil: success).
func (s *Syncs) enter() error {
	s.mu.Lock()
	s.calls++
	gate, fail := s.gate, s.fail
	s.mu.Unlock()
	select {
	case s.entered <- struct{}{}:
	default:
	}
	if gate != nil {
		<-gate
	}
	return fail
}

// Hold makes the fsyncs that begin from now on block until the returned
// release is called.
func (s *Syncs) Hold() (release func()) {
	gate := make(chan struct{})
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.gate = nil
		s.mu.Unlock()
		close(gate)
	}
}

// Fail makes the fsyncs that begin from now on return err (nil: succeed).
func (s *Syncs) Fail(err error) {
	s.mu.Lock()
	s.fail = err
	s.mu.Unlock()
}

// Count is how many fsyncs have begun.
func (s *Syncs) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Entered receives once per fsync that began (up to 64 unread).
func (s *Syncs) Entered() <-chan struct{} { return s.entered }

// Variant is how much of what was not yet durable a crash image keeps.
type Variant uint8

const (
	// Synced keeps each file's synced bytes and the directory entries a
	// directory sync covered: nothing unsynced.
	Synced Variant = iota
	// Half keeps the first half (rounded down) of each file's unsynced
	// writes and of the unsynced directory operations.
	Half
	// All keeps every write and every directory operation.
	All
	// Torn is All with the last unsynced write of each file landed only
	// in its first half, its second half reading as zeros, as when the
	// file's size reached the disk before all its blocks: a frame torn
	// mid-write whose length still fits in the file, so only its CRC
	// tells it apart.
	Torn
)

// Variants lists every Variant.
var Variants = []Variant{Synced, Half, All, Torn}

func (v Variant) String() string { return [...]string{"synced", "half", "all", "torn"}[v] }

// keep is how many of n unsynced operations the variant keeps.
func (v Variant) keep(n int) int {
	switch v {
	case Synced:
		return 0
	case Half:
		return n / 2
	}
	return n
}

// Len is the number of operations recorded so far. Crash point p is the
// state after the first p of them, so points run from 0 to Len.
func (fs *FS) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.log)
}

// Describe names crash point p by the operation it follows.
func (fs *FS) Describe(p int) string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if p == 0 {
		return "point 0 (nothing recorded)"
	}
	o := fs.log[p-1]
	s := fmt.Sprintf("point %d (after %s", p, kindNames[o.kind])
	switch o.kind {
	case opSyncDir:
	case opRename:
		s += " " + o.name + " -> " + o.to
	case opWrite:
		s += fmt.Sprintf(" %s %d bytes at %d", o.name, len(o.data), o.off)
	case opTruncate:
		s += fmt.Sprintf(" %s to %d", o.name, o.off)
	default:
		s += " " + o.name
	}
	return s + ")"
}

// Image writes to dst, a directory it creates, the files a crash at point
// p leaves in variant v.
func (fs *FS) Image(dst string, p int, v Variant) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if p < 0 || p > len(fs.log) {
		return fmt.Errorf("crashfs: point %d of %d", p, len(fs.log))
	}
	dirSynced := 0
	synced := map[*inode]int{}
	for _, o := range fs.log[:p] {
		switch o.kind {
		case opSyncDir:
			dirSynced = max(dirSynced, o.upto)
		case opSync:
			synced[o.ino] = max(synced[o.ino], o.upto)
		}
	}
	names := make(map[string]*inode, len(fs.initial))
	for name, ino := range fs.initial {
		names[name] = ino
	}
	done := countBefore(fs.dirOps, p)
	for _, o := range fs.dirOps[:dirSynced+v.keep(done-dirSynced)] {
		switch o.kind {
		case opRename:
			delete(names, o.name)
			names[o.to] = o.ino
		case opRemove:
			delete(names, o.name)
		default:
			names[o.name] = o.ino
		}
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for name, ino := range names {
		if err := os.WriteFile(filepath.Join(dst, name), ino.content(p, synced[ino], v), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// content is the file's bytes at point p in variant v, synced of its ops
// being durable.
func (ino *inode) content(p, synced int, v Variant) []byte {
	ops := ino.ops[:synced+v.keep(countBefore(ino.ops, p)-synced)]
	b := append([]byte(nil), ino.base...)
	for i, o := range ops {
		switch o.kind {
		case opWrite:
			data := o.data
			if v == Torn && i == len(ops)-1 && i >= synced {
				data = append(data[:len(data)/2:len(data)/2], make([]byte, len(data)-len(data)/2)...)
			}
			if end := o.off + int64(len(data)); end > int64(len(b)) {
				b = append(b, make([]byte, end-int64(len(b)))...)
			}
			copy(b[o.off:], data)
		case opTruncate:
			if o.off <= int64(len(b)) {
				b = b[:o.off]
			} else {
				b = append(b, make([]byte, o.off-int64(len(b)))...)
			}
		}
	}
	return b
}

// countBefore is how many of ops (in log order) come before point p.
func countBefore(ops []*op, p int) int {
	return sort.Search(len(ops), func(i int) bool { return ops[i].at >= p })
}
