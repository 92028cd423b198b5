// Package wal implements H-Store-style durability for the engine: a
// command log of client requests (upstream backup for streaming workflows,
// §2) plus periodic full snapshots. Recovery loads the latest snapshot and
// replays the log suffix through the partition engine; because execution is
// serial and procedures are deterministic, replay reconstructs the exact
// pre-crash state.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy controls when the log file is fsync'd.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncNever leaves flushing to the OS (fastest, weakest).
	SyncNever SyncPolicy = iota
	// SyncEveryRecord fsyncs after each append — one fsync on the critical
	// path of every commit.
	SyncEveryRecord
	// SyncGroupCommit batches fsyncs on demand: an append that somebody
	// waits on returns a commit future and starts an fsync as soon as the
	// log's previous one has returned, unless the log is batching (its last
	// fsync covered more than one record): then it fsyncs once per syncPeriod,
	// each fsync covering everything appended since the previous one
	// began. There is nothing to tune.
	SyncGroupCommit
)

// stalenessBound is the longest a record nobody waits on (AppendUnwaited)
// stays buffered before the commit daemon fsyncs it unprompted: the loss
// window for un-acked stream input, and what a follower tailing an idle
// primary's segment lags by. A waiter never waits for it.
const stalenessBound = 2 * time.Millisecond

// syncPeriod is a batching log's fsync period: after an fsync that covered
// more than one record, the next begins no sooner than syncPeriod after it
// did, and its waiter waits out the rest with whatever else arrives. After
// an fsync that covered one record or none nobody arrived while it ran, so
// waiting would collect nobody and the next waiter's fsync starts as soon
// as the one before it has returned. Uncapped, a busy log fsyncs back to back and its
// rate follows the host's speed of the minute (DESIGN.md §1.4).
const syncPeriod = 500 * time.Microsecond

// DefaultGroupCommitMaxBatch is read only by the benchmark ladder, as the
// number of appends it puts behind one timed fsync; the commit daemon has
// no batch limit.
const DefaultGroupCommitMaxBatch = 64

// Options configures a log (Dir.OpenLog).
type Options struct {
	// Policy selects when appended records are forced to stable storage.
	Policy SyncPolicy
	// OnSyncBatch, when non-nil, is called by the commit daemon after each
	// successful fsync with the number of records it made durable (never
	// zero), how long the fsync took and whether it began under the sync
	// period (the log was batching, so the daemon first waited out what was
	// left of the period) — the observable batching behind the wal_fsync*
	// and wal_period_waits rows and the 2PC force histograms. Called from
	// the daemon goroutine; keep it cheap and non-blocking.
	OnSyncBatch func(n int, took time.Duration, waited bool)
}

// commitState is the group-commit daemon's state (guarded by Log.mu).
type commitState uint8

const (
	// parked: every appended record is durable or about to be resolved;
	// the daemon is blocked and no timer runs, so an idle log costs nothing.
	parked commitState = iota
	// armed: only records nobody waits on are buffered; the staleness
	// timer runs and nothing else will wake the daemon.
	armed
	// syncing: a waiter appeared or the bound expired. The daemon fsyncs,
	// a period apart while the log is batching, until an fsync returns with
	// no waiter left behind.
	syncing
)

// Log is an append-only record log. Each record is framed as
// [len u32][crc32 u32][lsn u64][payload] with the CRC covering lsn+payload;
// a torn tail is detected and ignored at read time, which is exactly the
// semantics command logging needs (the interrupted transaction never
// acked, so dropping it is correct). A record keeps its LSN for life, in
// the frame: a checkpoint's Truncate drops the prefix a snapshot covers and
// copies the records after it as they are, and replay skips by LSN what a
// crash between snapshot-write and Truncate left behind.
//
// Appends go through a buffered writer, so even SyncNever pays one write(2)
// per flush rather than per record; Sync, Truncate, and Close flush first.
// Under SyncGroupCommit a commit daemon shares the Log with the appender;
// mu guards the writer, the LSN counter, the pending futures and the
// daemon's state.
type Log struct {
	policy SyncPolicy
	dir    *Dir   // the directory the segment lives in (Truncate replaces it there)
	path   string // the segment's path

	// fmu is held shared across every fsync of f and exclusively while
	// Truncate swaps f for the file that replaced it.
	fmu      sync.RWMutex
	mu       sync.Mutex
	f        File
	w        *bufio.Writer
	lsn      uint64       // last assigned LSN
	size     int64        // the segment's length, buffered frames included
	last     int64        // where lsn's frame starts, or size if the segment holds none
	buf      []byte       // frame scratch, reused across appends
	pending  []chan error // futures the next fsync resolves (append order)
	unsynced int          // records buffered since the last fsync began
	err      error        // sticky: a write/fsync failure poisons the log
	state    commitState
	closed   bool

	// group-commit daemon plumbing (nil unless policy is SyncGroupCommit).
	wake     chan struct{} // one token per transition into syncing
	bound    *time.Timer   // staleness timer, running only while armed
	lastSync time.Time     // when the daemon's last fsync began (daemon only)
	batching bool          // its fsync then covered more than one record (daemon only)
	quit     chan struct{}
	done     chan struct{}
	stop     sync.Once
	wakeups  atomic.Int64 // times the daemon came off its select (tests)
	bounded  atomic.Int64 // times the staleness bound woke it (tests)
	periods  atomic.Int64 // fsyncs it began by waiting out the period (tests)

	// onSyncBatch is Options.OnSyncBatch (nil when unset).
	onSyncBatch func(n int, took time.Duration, waited bool)
}

// newLog wraps the segment file f at path in d (Dir.OpenLog), size bytes
// long.
func newLog(d *Dir, path string, f File, startLSN uint64, size, last int64, o Options) *Log {
	l := &Log{
		policy: o.Policy,
		dir:    d,
		path:   path,
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<16),
		lsn:    startLSN,
		size:   size,
		last:   last,
	}
	if o.Policy == SyncGroupCommit {
		l.onSyncBatch = o.OnSyncBatch
		l.wake = make(chan struct{}, 1)
		l.bound = time.NewTimer(time.Hour)
		l.bound.Stop()
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.daemon()
	}
	return l
}

// GroupCommit reports whether the log batches fsyncs behind commit futures.
func (l *Log) GroupCommit() bool { return l.policy == SyncGroupCommit }

// appendFrame encodes and buffers one record under lsn. Caller holds l.mu.
func (l *Log) appendFrame(lsn uint64, payload []byte) (uint64, error) {
	if l.err != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier failure: %w", l.err)
	}
	l.buf = frame(l.buf[:0], lsn, payload)
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.lsn, l.size, l.last = lsn, l.size+int64(len(l.buf)), l.size
	return lsn, nil
}

// frame appends to b the frame of one record.
func frame(b []byte, lsn uint64, payload []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(8+len(payload)))
	b = append(b, 0, 0, 0, 0) // the CRC, once the bytes it covers are in place
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b[start+4:start+8], crc32.ChecksumIEEE(b[start+8:]))
	return b
}

// flushLocked drains the buffered writer to the OS. Caller holds l.mu.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// fsync forces the file to stable storage. Every fsync the log issues goes
// through here, under one rule: a failure poisons the log, because the
// kernel may have dropped the dirty pages it could not write and a retry
// that then succeeds proves nothing. Callers must not hold l.mu.
func (l *Log) fsync() error {
	l.fmu.RLock()
	err := l.f.Sync()
	l.fmu.RUnlock()
	if err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
	}
	return err
}

// Append writes one record and returns its LSN, durable per the policy:
// SyncEveryRecord returns after its own fsync, SyncGroupCommit waits for
// the fsync that covers it (use AppendAsync to pipeline instead), SyncNever
// returns once the record is buffered.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.policy == SyncGroupCommit {
		lsn, ack, err := l.AppendAsync(payload)
		if err != nil {
			return 0, err
		}
		if err := <-ack; err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		return lsn, nil
	}
	l.mu.Lock()
	lsn, err := l.appendFrame(l.lsn+1, payload)
	if err == nil && l.policy == SyncEveryRecord {
		if err = l.flushLocked(); err != nil {
			err = fmt.Errorf("wal: flush: %w", err)
		}
	}
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if l.policy == SyncEveryRecord {
		if err := l.fsync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	return lsn, nil
}

// AppendAsync appends one record and returns a commit future that resolves
// (with the fsync's error, nil on success) once the record is durable. The
// caller must receive from the future exactly once; futures resolve in LSN
// order because one fsync covers a contiguous batch, so a resolved future
// proves every earlier record durable too, waited on or not. Under
// SyncNever and SyncEveryRecord the future is already resolved on return.
func (l *Log) AppendAsync(payload []byte) (uint64, <-chan error, error) {
	ch := make(chan error, 1)
	if l.policy != SyncGroupCommit {
		lsn, err := l.Append(payload)
		if err != nil {
			return 0, nil, err
		}
		ch <- nil
		return lsn, ch, nil
	}
	lsn, err := l.appendGroup(payload, ch)
	if err != nil {
		return 0, nil, err
	}
	return lsn, ch, nil
}

// AppendFrames buffers frames another log shipped, each under the LSN it
// carries, refusing one that is not the next; the caller forces them.
func (l *Log) AppendFrames(frames []Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, fr := range frames {
		if fr.LSN != l.lsn+1 {
			return fmt.Errorf("wal: shipped frame has LSN %d, the log's next is %d", fr.LSN, l.lsn+1)
		}
		if _, err := l.appendFrame(fr.LSN, fr.Payload); err != nil {
			return err
		}
		l.unsynced++
	}
	return nil
}

// AppendUnwaited appends one record that nobody blocks on (a border batch:
// upstream backup covers it until it is durable). Under SyncGroupCommit it
// starts no fsync of its own: the record rides the next one any waiter
// causes, or the one the daemon issues stalenessBound after the log last
// went quiet. Under the other policies it is Append.
func (l *Log) AppendUnwaited(payload []byte) (uint64, error) {
	if l.policy != SyncGroupCommit {
		return l.Append(payload)
	}
	return l.appendGroup(payload, nil)
}

// appendGroup buffers one record on a group-commit log and makes the
// state transition it causes: with a future, parked/armed → syncing (the
// daemon is woken); without one, parked → armed (the bound starts).
func (l *Log) appendGroup(payload []byte, ch chan error) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendFrame(l.lsn+1, payload)
	if err != nil {
		return 0, err
	}
	l.unsynced++
	if ch != nil {
		l.waitLocked(ch)
	} else if l.state == parked {
		l.state = armed
		l.bound.Reset(stalenessBound)
	}
	return lsn, nil
}

// waitLocked queues a future for the next fsync and, unless an fsync is
// already in flight (the one that follows it covers ch), moves to syncing
// and posts the wake token. Only the daemon leaves syncing, so at most one
// token is outstanding; the default arm keeps an append that races Close
// from blocking on a daemon that has exited.
func (l *Log) waitLocked(ch chan error) {
	l.pending = append(l.pending, ch)
	if l.state == syncing {
		return
	}
	if l.state == armed {
		l.bound.Stop()
	}
	l.state = syncing
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// daemon is the group-commit loop. It sleeps until a waiter appears or the
// staleness bound expires, then fsyncs once per period while waiters keep
// arriving; between bursts it is parked and costs nothing. (A tick left
// over from a bound a waiter beat costs one pass that finds nothing.)
func (l *Log) daemon() {
	defer close(l.done)
	for {
		select {
		case <-l.wake:
		case <-l.bound.C:
			l.bounded.Add(1)
		case <-l.quit:
			l.syncBatch() // resolve stragglers before Close proceeds
			return
		}
		l.wakeups.Add(1)
		for l.syncBatch() {
		}
	}
}

// syncBatch waits out the log's period if it is batching, then flushes
// buffered frames, fsyncs once, resolves every future the fsync covered
// and picks the next state, reporting whether another fsync must follow.
// The batch is cut only after the wait, so it holds everything that
// arrived during it; the fsync runs outside the lock so the appenders keep
// buffering while the disk works, and a record buffered mid-fsync is
// covered by the next one. (The bound's expiry never waits here: the bound
// is longer than the period.)
func (l *Log) syncBatch() bool {
	waited := l.batching
	if waited {
		l.periods.Add(1)
		time.Sleep(time.Until(l.lastSync.Add(syncPeriod)))
	}
	l.lastSync = time.Now()
	l.mu.Lock()
	l.state = syncing // the bound's expiry lands here; a waiter set it already
	err := l.flushLocked()
	batch, n := l.pending, l.unsynced
	l.pending, l.unsynced = nil, 0
	l.mu.Unlock()
	l.batching = n > 1
	start := time.Now()
	if err == nil && (n > 0 || len(batch) > 0) {
		err = l.fsync()
	}
	took := time.Since(start)
	// The next state is settled before any waiter hears: one that returns
	// finds the log parked if nothing came after (SyncPending).
	l.mu.Lock()
	more := len(l.pending) > 0
	switch {
	case more:
	case l.unsynced > 0 && l.err == nil:
		l.state = armed
		l.bound.Reset(stalenessBound)
	default:
		l.state = parked
	}
	l.mu.Unlock()
	for _, ch := range batch {
		ch <- err
	}
	if err == nil && n > 0 && l.onSyncBatch != nil {
		l.onSyncBatch(n, took, waited)
	}
	return more
}

// SyncNow forces everything appended so far to stable storage, resolving
// all pending commit futures before it returns: it is a waiter without a
// record. The checkpoint barrier uses it to drain the pipeline at a
// quiescent point.
func (l *Log) SyncNow() error {
	if l.policy != SyncGroupCommit {
		return l.Sync()
	}
	l.mu.Lock()
	if l.closed { // daemon stopped (Close in progress): fall back
		l.mu.Unlock()
		return l.Sync()
	}
	ch := make(chan error, 1)
	l.waitLocked(ch)
	l.mu.Unlock()
	return <-ch
}

// SyncPending is SyncNow for a log that may have nothing to sync: under
// group commit it returns at once when the daemon is parked and nothing
// was appended since its last fsync began, so everything is durable
// already. A barrier on an idle store then costs no fsync.
func (l *Log) SyncPending() error {
	if l.policy == SyncGroupCommit {
		l.mu.Lock()
		settled, err := l.state == parked && l.unsynced == 0, l.err
		l.mu.Unlock()
		if settled {
			return err
		}
	}
	return l.SyncNow()
}

// LSN returns the LSN of the last appended record.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Pos is a point in a log segment: the LSN of the last record before it and
// the offset where the next record's frame starts.
type Pos struct {
	LSN  uint64
	off  int64
	last int64 // where the frame of LSN starts, or off if the segment holds none
}

// End returns the position after the last appended record.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{l.lsn, l.size, l.last}
}

// Back returns the position before at's last record (at itself if the
// segment holds none), for a Truncate that keeps that record; its LSN is
// at's.
func (at Pos) Back() Pos { return Pos{at.LSN, at.last, at.last} }

// Truncate drops the records before at, a position End returned since the
// log's last Truncate, which a snapshot now covers, and keeps every record
// after it with its LSN: the segment is replaced through its Dir by one
// holding the segment's bytes from at on, so a crash leaves the old segment
// or the new one, and the records after at are in both. Nothing before at
// is read. Pending group-commit futures are made durable and resolved
// first. Appends wait while the bytes after at are copied and the new
// segment is made durable; one racing Truncate lands in the old segment
// before the copy or in the new one after it.
func (l *Log) Truncate(at Pos) error {
	if l.policy == SyncGroupCommit {
		if err := l.SyncPending(); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if err == nil {
		err = l.dir.Replace(l.path, func(w io.Writer) error {
			return copyRange(w, l.path, at.off, l.size)
		})
	}
	var f File
	if err == nil {
		f, err = l.dir.fs.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return fmt.Errorf("wal: truncate: %w", err)
	}
	old := l.f
	l.f, l.size, l.last = f, l.size-at.off, max(l.last, at.off)-at.off
	l.w.Reset(f)
	return old.Close()
}

// copyRange copies the bytes [from, to) of the file at path to w.
func copyRange(w io.Writer, path string, from, to int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := io.Copy(w, io.NewSectionReader(f, from, to-from))
	if err == nil && n != to-from {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Sync flushes buffered frames and forces the log to stable storage. It
// does not resolve group-commit futures; the daemon (or SyncNow) does.
func (l *Log) Sync() error {
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.fsync()
}

// Close stops the commit daemon (resolving any remaining futures), flushes,
// and closes the log file.
func (l *Log) Close() error {
	if l.policy == SyncGroupCommit {
		l.stop.Do(func() {
			l.mu.Lock()
			l.closed = true
			l.mu.Unlock()
			close(l.quit)
		})
		<-l.done
	}
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	return errors.Join(err, l.f.Close())
}

// ScanLog reads every intact record from path, calling fn(lsn, payload)
// with the LSN stored in each record's frame; payload is valid only until
// fn returns. It stops silently at a torn or corrupt tail (the crash case)
// and returns the last LSN delivered (0 when the log is empty or missing).
func ScanLog(path string, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	s, err := openSegment(path)
	if s == nil {
		return 0, err
	}
	defer s.f.Close()
	var last uint64
	for {
		lsn, payload, ok := s.next()
		if !ok {
			return last, nil
		}
		last = lsn
		if err := fn(lsn, payload); err != nil {
			return last, err
		}
	}
}

// segment reads a log file's frames in order through a buffer; ScanLog and
// ReadFrames both read through next, so both stop at the same frame.
type segment struct {
	f      *os.File
	off    int64 // where the next frame starts
	size   int64 // the file's size when opened
	buf    []byte
	bufOff int64 // the file offset of buf[0]
}

// openSegment opens the log file at path for reading. A missing file is
// no segment and no error.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err == nil {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			return &segment{f: f, size: st.Size()}, nil
		}
		f.Close()
	}
	return nil, fmt.Errorf("wal: open segment: %w", err)
}

// next reads the frame at off and moves past it, or reports !ok and stays:
// at the end of the file, or at a torn or corrupt frame (a header or body
// cut short, a length that runs past the end of the file, a CRC that does
// not match), which is the tail a crash left. payload lives until the next.
func (s *segment) next() (lsn uint64, payload []byte, ok bool) {
	hdr, ok := s.read(s.off, 8)
	if !ok {
		return 0, nil, false
	}
	n, crc := int64(binary.LittleEndian.Uint32(hdr[0:4])), binary.LittleEndian.Uint32(hdr[4:8])
	if n < 8 || n > s.size-s.off-8 {
		return 0, nil, false
	}
	body, ok := s.read(s.off+8, n)
	if !ok || crc32.ChecksumIEEE(body) != crc {
		return 0, nil, false
	}
	s.off += 8 + n
	return binary.LittleEndian.Uint64(body[:8]), body[8:], true
}

const segmentBuf = 64 << 10

// read returns the n bytes at off, refilling the buffer from off when it
// does not hold them all.
func (s *segment) read(off, n int64) ([]byte, bool) {
	if off < s.bufOff || off+n > s.bufOff+int64(len(s.buf)) {
		if size := max(n, segmentBuf); int64(cap(s.buf)) < size {
			s.buf = make([]byte, size)
		}
		m, _ := s.f.ReadAt(s.buf[:cap(s.buf)], off)
		s.buf, s.bufOff = s.buf[:m], off
		if int64(m) < n {
			return nil, false
		}
	}
	return s.buf[off-s.bufOff : off-s.bufOff+n], true
}

// LogName is the file name of a durability directory's one command log,
// and SnapshotName that of partition 0's snapshot.
const (
	LogName      = "store.log"
	SnapshotName = "snapshot.bin"
)

// LogPath is the command log's path under dir.
func LogPath(dir string) string { return filepath.Join(dir, LogName) }

// SnapshotPath is partition idx's snapshot path under dir: partition 0's
// is unsuffixed, partitions 1..N-1 append ".<idx>".
func SnapshotPath(dir string, idx int) string {
	if idx == 0 {
		return filepath.Join(dir, SnapshotName)
	}
	return filepath.Join(dir, fmt.Sprintf("%s.%d", SnapshotName, idx))
}
