// Package coldstore implements the on-disk half of anti-caching: a file
// of packed 32 KB pages of tuples. The MVCC tables evict cold committed
// row versions here (see storage's anti-caching layer) and fault them
// back in, one tuple's bytes at a time.
//
// Crash-consistency contract (DESIGN.md §7): the cold store is a
// volatile, disk-resident extension of main memory. Every evicted
// version is re-derivable from the checkpoint snapshot plus WAL replay,
// so pages are never fsynced and Open always starts from an empty file.
// Durability of the data itself is owned entirely by the WAL/checkpoint
// story; the cold store only has to be internally consistent while the
// process lives.
//
// Concurrency: a single mutex guards store metadata and the open fill
// page, the one page held in memory. Reads of any other page run outside
// the mutex, each one pread of exactly the bytes asked for, because those
// bytes cannot change under them: a tuple's bytes are never rewritten
// between Put and its deferred Free; a page is written with one pwrite
// before it stops being the fill page; and a page is reused only once
// every tuple on it has been freed behind the snapshot watermark, which
// no reader that holds one of its refs has passed.
package coldstore

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Ref names one stored tuple: page id in the upper 32 bits, the tuple's
// byte offset on the page in the next 16 and its length in the lower 16.
// The zero Ref is invalid (page ids start at 1), so a zero value in a row
// version means "not evicted". Refs sort by page, then offset.
type Ref uint64

// makeRef packs a page id, offset and length.
func makeRef(pid uint64, off, n int) Ref { return Ref(pid<<32 | uint64(off)<<16 | uint64(n)) }

// Page returns the page id of the ref.
func (r Ref) Page() uint64 { return uint64(r) >> 32 }

// Off returns the tuple's byte offset on its page.
func (r Ref) Off() int { return int(uint64(r) >> 16 & 0xffff) }

// Len returns the tuple's length in bytes.
func (r Ref) Len() int { return int(uint64(r) & 0xffff) }

const (
	defaultPage = 32 * 1024
	// coalesceGap is how far apart two tuples of one page in a ReadBatch
	// may lie and still share one pread: reading a few KiB more costs less
	// than a second call.
	coalesceGap = 4 * 1024
)

// Options configures Open.
type Options struct {
	// PageSize is the on-disk page size in bytes (default 32 KB, max 64 KB
	// because a Ref's offset and length are 16 bits).
	PageSize int
}

// Store is an on-disk page store with one page open in memory for Puts.
type Store struct {
	f        *os.File // set by Open, never reassigned: readers use it unlocked
	path     string
	pageSize int

	// fillPage is the page accepting Puts (0 = none). It changes under mu
	// and only after the page it replaces is on disk, so a reader that
	// loads another page id may pread that page without the mutex.
	fillPage atomic.Uint64
	reads    atomic.Uint64 // preads serving faults
	rbytes   atomic.Uint64 // bytes those preads returned

	mu       sync.Mutex
	fill     []byte // the fill page's bytes; tuples are packed from 0
	used     int    // bytes of fill in use
	closed   bool
	npages   uint64   // highest allocated page id
	freeList []uint64 // whole pages available for reuse
	liveCnt  map[uint64]int
	pending  []deferredFree

	// stats (guarded by mu)
	puts, frees, pageWrites uint64
}

type deferredFree struct {
	ref Ref
	seq uint64
}

// Open creates (or truncates) the cold file at path. Per the volatile
// crash-consistency contract, any previous contents are discarded.
func Open(path string, opts Options) (*Store, error) {
	ps := opts.PageSize
	if ps == 0 {
		ps = defaultPage
	}
	if ps < 512 || ps > 64*1024 {
		return nil, fmt.Errorf("coldstore: page size %d out of range [512, 65536]", ps)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coldstore: %w", err)
	}
	return &Store{
		f:        f,
		path:     path,
		pageSize: ps,
		fill:     make([]byte, ps),
		liveCnt:  make(map[uint64]int),
	}, nil
}

// MaxTuple returns the largest tuple Put accepts; bigger rows stay hot.
// A tuple always leaves a byte of its page free, so an offset fits in 16
// bits.
func (s *Store) MaxTuple() int { return s.pageSize - 1 }

// pageOff is the file offset of page pid.
func (s *Store) pageOff(pid uint64) int64 { return int64(pid-1) * int64(s.pageSize) }

// Put stores one encoded tuple and returns its ref. The tuple lands on
// the fill page in memory; it reaches disk when that page is sealed
// (never fsynced — see the package contract).
func (s *Store) Put(tuple []byte) (Ref, error) {
	if len(tuple) > s.MaxTuple() {
		return 0, fmt.Errorf("coldstore: tuple of %d bytes exceeds page capacity %d", len(tuple), s.MaxTuple())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pid := s.fillPage.Load()
	if pid == 0 || s.pageSize-s.used <= len(tuple) {
		var err error
		if pid, err = s.openFillPage(); err != nil {
			return 0, err
		}
	}
	off := s.used
	s.used += copy(s.fill[off:], tuple)
	s.liveCnt[pid]++
	s.puts++
	return makeRef(pid, off, len(tuple)), nil
}

// openFillPage seals the open fill page, if any, with one pwrite of its
// used bytes, and opens a freed page or a new one at the end of the file.
// A failed pwrite leaves the page open and served from memory, so no
// stored tuple is lost. Caller holds mu.
func (s *Store) openFillPage() (uint64, error) {
	if pid := s.fillPage.Load(); pid != 0 {
		if _, err := s.f.WriteAt(s.fill[:s.used], s.pageOff(pid)); err != nil {
			return 0, fmt.Errorf("coldstore: write page %d: %w", pid, err)
		}
		s.pageWrites++
	}
	var pid uint64
	if n := len(s.freeList); n > 0 {
		pid = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
	} else {
		s.npages++
		pid = s.npages
	}
	s.used = 0
	s.fillPage.Store(pid)
	return pid, nil
}

// readAt fills dst with the bytes at off of page pid: copied from the open
// fill page under mu, or read with one pread outside it.
func (s *Store) readAt(dst []byte, pid uint64, off int) error {
	if pid == s.fillPage.Load() {
		s.mu.Lock()
		if pid == s.fillPage.Load() {
			copy(dst, s.fill[off:])
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock() // sealed since the load: it is on disk
	}
	if _, err := s.f.ReadAt(dst, s.pageOff(pid)+int64(off)); err != nil {
		return fmt.Errorf("coldstore: read page %d at %d: %w", pid, off, err)
	}
	s.reads.Add(1)
	s.rbytes.Add(uint64(len(dst)))
	return nil
}

// Read copies the tuple at ref into buf (grown as needed) and returns it.
func (s *Store) Read(ref Ref, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], ref.Len())[:ref.Len()]
	if err := s.readAt(buf, ref.Page(), ref.Off()); err != nil {
		return nil, err
	}
	return buf, nil
}

// Fetch is one tuple of a ReadBatch: its ref and the caller's name for it.
type Fetch struct {
	Ref Ref
	At  int
}

// batchBufs holds ReadBatch's span buffers between calls.
var batchBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadBatch reads the tuples of fs and calls fn(At, tuple) for each, in
// ref order: it sorts fs by ref, and tuples of one page that lie within
// coalesceGap of each other share one pread. tuple is valid only until fn
// returns.
func (s *Store) ReadBatch(fs []Fetch, fn func(at int, tuple []byte)) error {
	slices.SortFunc(fs, func(a, b Fetch) int { return cmp.Compare(a.Ref, b.Ref) })
	bp := batchBufs.Get().(*[]byte)
	defer batchBufs.Put(bp)
	for i := 0; i < len(fs); {
		first := fs[i].Ref
		end := first.Off() + first.Len()
		j := i + 1
		for ; j < len(fs); j++ {
			r := fs[j].Ref
			if r.Page() != first.Page() || r.Off() > end+coalesceGap {
				break
			}
			end = max(end, r.Off()+r.Len())
		}
		span := slices.Grow((*bp)[:0], end-first.Off())[:end-first.Off()]
		*bp = span
		if err := s.readAt(span, first.Page(), first.Off()); err != nil {
			return err
		}
		for _, f := range fs[i:j] {
			at := f.Ref.Off() - first.Off()
			fn(f.At, span[at:at+f.Ref.Len()])
		}
		i = j
	}
	return nil
}

// Free releases the tuple at ref. Space is not reused tuple by tuple;
// once a page's live count reaches zero the whole page returns to the
// free list. Callers must guarantee no concurrent reader can still hold
// the ref (the tables enforce this with the snapshot watermark).
func (s *Store) Free(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.freeLocked(ref)
}

func (s *Store) freeLocked(ref Ref) {
	pid := ref.Page()
	s.frees++
	if c := s.liveCnt[pid]; c > 1 {
		s.liveCnt[pid] = c - 1
		return
	}
	delete(s.liveCnt, pid)
	if pid == s.fillPage.Load() {
		s.fillPage.Store(0) // its bytes are never needed: drop them unwritten
	}
	s.freeList = append(s.freeList, pid)
}

// DeferFree queues ref for release once the snapshot watermark passes
// seq — a reader that captured the ref before seq may still be reading.
func (s *Store) DeferFree(ref Ref, seq uint64) {
	s.mu.Lock()
	s.pending = append(s.pending, deferredFree{ref: ref, seq: seq})
	s.mu.Unlock()
}

// ReleaseFreed frees every deferred ref whose enqueue sequence is below
// the watermark: all snapshot pins are at or above the watermark, so no
// reader that could have captured such a ref is still active.
func (s *Store) ReleaseFreed(watermark uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.pending[:0]
	n := 0
	for _, df := range s.pending {
		if df.seq < watermark {
			s.freeLocked(df.ref)
			n++
			continue
		}
		kept = append(kept, df)
	}
	s.pending = kept
	return n
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Pages        uint64 // pages allocated in the file
	FreePages    int    // whole pages on the free list
	PendingFrees int    // refs awaiting the watermark
	Puts         uint64
	Frees        uint64
	Reads        uint64 // preads serving reads (the fill page needs none)
	ReadBytes    uint64 // bytes those preads returned
	PageWrites   uint64 // fill pages sealed to the file
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Pages:        s.npages,
		FreePages:    len(s.freeList),
		PendingFrees: len(s.pending),
		Puts:         s.puts,
		Frees:        s.frees,
		Reads:        s.reads.Load(),
		ReadBytes:    s.rbytes.Load(),
		PageWrites:   s.pageWrites,
	}
}

// Close closes and removes the cold file: its contents are meaningless
// to any future process (volatile contract), so nothing is left behind.
// A read after Close fails.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
