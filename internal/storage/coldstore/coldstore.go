// Package coldstore implements the on-disk half of anti-caching: a
// page store of slotted 32 KB pages fronted by a clock-replacement
// buffer pool with pinned views. The MVCC tables evict cold committed
// row versions here (see storage's anti-caching layer) and fault them
// back in through the pool on access.
//
// Crash-consistency contract (DESIGN.md §7): the cold store is a
// volatile, disk-resident extension of main memory. Every evicted
// version is re-derivable from the checkpoint snapshot plus WAL replay,
// so pages are never fsynced and Open always starts from an empty file.
// Durability of the data itself is owned entirely by the WAL/checkpoint
// story; the cold store only has to be internally consistent while the
// process lives.
//
// Concurrency: a single mutex guards store metadata and pool state.
// Page I/O happens under the mutex — faults serialize against each
// other but never against the partition worker, which does not take
// this lock on its hot path. Views (zero-copy reads) pin their frame so
// clock replacement cannot steal a page while a reader is decoding from
// it; pins are released by the returned release func, after which the
// slice must not be touched.
package coldstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// Ref names one stored tuple: page id in the upper 48 bits, slot index
// in the lower 16. The zero Ref is invalid (page ids start at 1), so a
// zero value in a row version means "not evicted".
type Ref uint64

// makeRef packs a page id and slot index.
func makeRef(pid uint64, slot int) Ref { return Ref(pid<<16 | uint64(slot)&0xffff) }

// Page returns the page id of the ref.
func (r Ref) Page() uint64 { return uint64(r) >> 16 }

// Slot returns the slot index of the ref.
func (r Ref) Slot() int { return int(uint64(r) & 0xffff) }

// Page layout: a 4-byte header (nslots, freeEnd as little-endian
// uint16s), a slot directory growing up from the header (4 bytes per
// slot: offset, length), and tuple data growing down from the end of
// the page. Slots are never reused individually; a page returns to the
// free list whole once every tuple on it has been freed, which keeps
// refs stable for the deferred-free discipline the tables rely on.
const (
	pageHeader  = 4
	slotDirEnt  = 4
	defaultPage = 32 * 1024
)

// Options configures Open.
type Options struct {
	// PageSize is the on-disk page size in bytes (default 32 KB, max 64 KB
	// because slot offsets are uint16).
	PageSize int
	// PoolPages caps the buffer pool (default 64 pages = 2 MB at the
	// default page size). Pool memory is bounded and separate from the
	// table-resident budget the evictor maintains.
	PoolPages int
}

// Store is an on-disk page store with an in-memory buffer pool.
type Store struct {
	mu sync.Mutex

	f        *os.File
	path     string
	pageSize int
	poolCap  int

	npages   uint64   // highest allocated page id
	freeList []uint64 // whole pages available for reuse
	fillPage uint64   // page currently accepting Puts (0 = none)
	liveCnt  map[uint64]int

	frames map[uint64]*frame
	clock  []*frame // clock order for replacement
	hand   int
	// spare is the last frame dropped from the pool, unpinned: the next
	// install takes it — struct and page buffer — instead of allocating,
	// so a full pool serves misses without allocating at all.
	spare *frame

	pending []deferredFree

	// stats (guarded by mu)
	puts, frees, pageReads, pageWrites, poolEvictions uint64
}

type frame struct {
	pid   uint64
	data  []byte
	pins  int
	ref   bool // clock second-chance bit
	dirty bool
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
	pool := opts.PoolPages
	if pool == 0 {
		pool = 64
	}
	if pool < 2 {
		pool = 2
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coldstore: %w", err)
	}
	return &Store{
		f:        f,
		path:     path,
		pageSize: ps,
		poolCap:  pool,
		liveCnt:  make(map[uint64]int),
		frames:   make(map[uint64]*frame),
	}, nil
}

// MaxTuple returns the largest tuple Put accepts; bigger rows stay hot.
func (s *Store) MaxTuple() int { return s.pageSize - pageHeader - slotDirEnt }

// Put stores one encoded tuple and returns its ref. The write lands in
// the buffer pool; it reaches disk only when clock replacement evicts
// the dirty page (never fsynced — see the package contract).
func (s *Store) Put(tuple []byte) (Ref, error) {
	if len(tuple) > s.MaxTuple() {
		return 0, fmt.Errorf("coldstore: tuple of %d bytes exceeds page capacity %d", len(tuple), s.MaxTuple())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.fillFrame(len(tuple))
	if err != nil {
		return 0, err
	}
	d := fr.data
	nslots := int(binary.LittleEndian.Uint16(d[0:]))
	freeEnd := int(binary.LittleEndian.Uint16(d[2:]))
	off := freeEnd - len(tuple)
	copy(d[off:freeEnd], tuple)
	binary.LittleEndian.PutUint16(d[pageHeader+nslots*slotDirEnt:], uint16(off))
	binary.LittleEndian.PutUint16(d[pageHeader+nslots*slotDirEnt+2:], uint16(len(tuple)))
	binary.LittleEndian.PutUint16(d[0:], uint16(nslots+1))
	binary.LittleEndian.PutUint16(d[2:], uint16(off))
	fr.dirty = true
	s.liveCnt[fr.pid]++
	s.puts++
	return makeRef(fr.pid, nslots), nil
}

// fillFrame returns the frame of the current fill page, allocating a
// fresh page when none is open or the tuple does not fit. Caller holds mu.
func (s *Store) fillFrame(need int) (*frame, error) {
	if s.fillPage != 0 {
		fr, err := s.frame(s.fillPage)
		if err != nil {
			return nil, err
		}
		d := fr.data
		nslots := int(binary.LittleEndian.Uint16(d[0:]))
		freeEnd := int(binary.LittleEndian.Uint16(d[2:]))
		if freeEnd-(pageHeader+nslots*slotDirEnt)-slotDirEnt >= need {
			return fr, nil
		}
	}
	// Allocate: reuse a freed page or extend the file.
	var pid uint64
	if n := len(s.freeList); n > 0 {
		pid = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
	} else {
		s.npages++
		pid = s.npages
	}
	fr, err := s.install(pid, true)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint16(fr.data[0:], 0)
	binary.LittleEndian.PutUint16(fr.data[2:], uint16(s.pageSize))
	fr.dirty = true
	s.fillPage = pid
	return fr, nil
}

// View returns a zero-copy view of the tuple at ref plus a release func
// that unpins the underlying frame. The slice is valid only until
// release is called.
func (s *Store) View(ref Ref) ([]byte, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frame(ref.Page())
	if err != nil {
		return nil, nil, err
	}
	d := fr.data
	nslots := int(binary.LittleEndian.Uint16(d[0:]))
	if ref.Slot() >= nslots {
		return nil, nil, fmt.Errorf("coldstore: ref %x: slot %d out of range (page has %d)", uint64(ref), ref.Slot(), nslots)
	}
	off := int(binary.LittleEndian.Uint16(d[pageHeader+ref.Slot()*slotDirEnt:]))
	ln := int(binary.LittleEndian.Uint16(d[pageHeader+ref.Slot()*slotDirEnt+2:]))
	fr.pins++
	release := func() {
		s.mu.Lock()
		fr.pins--
		s.mu.Unlock()
	}
	return d[off : off+ln], release, nil
}

// Read copies the tuple at ref into buf (grown as needed) and returns it.
func (s *Store) Read(ref Ref, buf []byte) ([]byte, error) {
	view, release, err := s.View(ref)
	if err != nil {
		return nil, err
	}
	buf = append(buf[:0], view...)
	release()
	return buf, nil
}

// Free releases the tuple at ref. Slots are not reused individually;
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
	if _, ok := s.frames[pid]; ok {
		// Empty pages carry no data worth writing back: drop the frame.
		for i, fr := range s.clock {
			if fr.pid == pid {
				s.dropFrame(i)
				break
			}
		}
	}
	if pid == s.fillPage {
		s.fillPage = 0
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

// frame returns the pooled frame for pid, faulting it in from disk if
// needed. Caller holds mu.
func (s *Store) frame(pid uint64) (*frame, error) {
	if fr, ok := s.frames[pid]; ok {
		fr.ref = true
		return fr, nil
	}
	return s.install(pid, false)
}

// install adds a frame for pid, evicting per clock policy when the pool
// is full and taking over the victim's frame and page buffer; fresh pages
// skip the disk read (the caller initialises the header — whatever the
// buffer held before lies beyond it). Caller holds mu.
func (s *Store) install(pid uint64, fresh bool) (*frame, error) {
	for len(s.frames) >= s.poolCap {
		if !s.evictOne() {
			break // every frame pinned; let the pool run over briefly
		}
	}
	fr := s.spare
	if fr == nil {
		fr = &frame{data: make([]byte, s.pageSize)}
	}
	s.spare = nil
	*fr = frame{pid: pid, data: fr.data, ref: true}
	if !fresh {
		if _, err := s.f.ReadAt(fr.data, int64(pid-1)*int64(s.pageSize)); err != nil {
			s.spare = fr
			return nil, fmt.Errorf("coldstore: read page %d: %w", pid, err)
		}
		s.pageReads++
	}
	s.frames[pid] = fr
	s.clock = append(s.clock, fr)
	return fr, nil
}

// evictOne runs one clock sweep and evicts a victim frame, writing it
// back if dirty. Returns false when every frame is pinned. Caller holds mu.
func (s *Store) evictOne() bool {
	for pass := 0; pass < 2*len(s.clock); pass++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		fr := s.clock[s.hand]
		if fr.pins > 0 {
			s.hand++
			continue
		}
		if fr.ref {
			fr.ref = false
			s.hand++
			continue
		}
		if fr.dirty {
			if _, err := s.f.WriteAt(fr.data, int64(fr.pid-1)*int64(s.pageSize)); err != nil {
				// A failed writeback must not lose the page (it is the only
				// copy until checkpoint); keep the frame and try another.
				s.hand++
				continue
			}
			s.pageWrites++
		}
		s.dropFrame(s.hand)
		s.poolEvictions++
		return true
	}
	return false
}

// dropFrame removes the frame at clock position i from the pool without
// writeback, keeping it as the spare unless a View still pins it (a pinned
// buffer belongs to its reader until released). Caller holds mu.
func (s *Store) dropFrame(i int) {
	fr := s.clock[i]
	delete(s.frames, fr.pid)
	s.clock = append(s.clock[:i], s.clock[i+1:]...)
	if s.hand > i {
		s.hand--
	}
	if fr.pins == 0 {
		s.spare = fr
	}
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Pages         uint64 // pages allocated in the file
	FreePages     int    // whole pages on the free list
	PoolPages     int    // frames resident in the buffer pool
	PoolBytes     int    // page buffers the pool holds, the spare included
	PendingFrees  int    // refs awaiting the watermark
	Puts          uint64
	Frees         uint64
	PageReads     uint64 // pool misses served from disk
	PageWrites    uint64 // dirty writebacks
	PoolEvictions uint64
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	bufs := len(s.frames)
	if s.spare != nil {
		bufs++
	}
	return Stats{
		Pages:         s.npages,
		FreePages:     len(s.freeList),
		PoolPages:     len(s.frames),
		PoolBytes:     bufs * s.pageSize,
		PendingFrees:  len(s.pending),
		Puts:          s.puts,
		Frees:         s.frees,
		PageReads:     s.pageReads,
		PageWrites:    s.pageWrites,
		PoolEvictions: s.poolEvictions,
	}
}

// Close closes and removes the cold file: its contents are meaningless
// to any future process (volatile contract), so nothing is left behind.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
