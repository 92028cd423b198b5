package wal

// This file is the replication side of the log: segment tailing. A primary
// partition's command log is an ordinary append-only file of CRC-framed
// records, so shipping it to a follower needs no new on-disk format — the
// follower (or the server answering its fetches) re-reads the segment from
// its last applied LSN and forwards the intact frames. Reading the file
// instead of hooking the writer keeps shipping decoupled from the
// group-commit daemon and works even after the primary process has died,
// which is exactly when a promoting follower drains the tail.
//
// Tailing must not re-scan the whole segment on every poll (that turns a
// steady 2ms fetch loop quadratic as the log grows), so ReadFrames keeps a
// small per-path cursor cache: the byte offset of the frame it last
// positioned a reader at. A cursor is never trusted blindly — resuming
// re-reads the frame at the cached offset and checks that it is intact and
// carries exactly the reader's LSN; a checkpoint truncation rewrites the
// file and fails that check, which falls back to a full scan (and its gap
// detection).

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Frame is one shipped log record: the LSN stored in its on-disk frame and
// the opaque payload (a pe.LogRecord encoding, but shipping does not care).
type Frame struct {
	LSN     uint64
	Payload []byte
}

// ErrShipGap reports that the log was truncated (checkpointed) past the
// reader's position: the records between afterLSN and the segment's first
// surviving frame are gone, so tailing cannot continue and the follower
// must be re-seeded from a snapshot.
var ErrShipGap = errors.New("wal: log truncated past ship position; re-seed the follower")

// shipCursor remembers where the frame carrying lsn starts in its file, so
// the next fetch for lsn can seek instead of scanning from byte zero.
type shipCursor struct {
	lsn uint64
	off int64
}

// shipCursors holds a few recent cursors per path (several followers may
// tail one segment from slightly different positions).
var shipCursors sync.Map // path -> *cursorSet

const maxCursorsPerPath = 8

type cursorSet struct {
	mu  sync.Mutex
	cur []shipCursor // most recent last
}

func lookupCursor(path string, lsn uint64) (int64, bool) {
	v, ok := shipCursors.Load(path)
	if !ok {
		return 0, false
	}
	cs := v.(*cursorSet)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range cs.cur {
		if c.lsn == lsn {
			return c.off, true
		}
	}
	return 0, false
}

func storeCursor(path string, lsn uint64, off int64) {
	v, _ := shipCursors.LoadOrStore(path, &cursorSet{})
	cs := v.(*cursorSet)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	kept := cs.cur[:0]
	for _, c := range cs.cur {
		if c.lsn != lsn {
			kept = append(kept, c)
		}
	}
	cs.cur = append(kept, shipCursor{lsn: lsn, off: off})
	if len(cs.cur) > maxCursorsPerPath {
		cs.cur = cs.cur[len(cs.cur)-maxCursorsPerPath:]
	}
}

// ReadFrames tails the log segment at path: it returns every intact frame
// with LSN > afterLSN, up to roughly maxBytes of payload per call (at
// least one frame is returned when any qualifies), plus the last intact
// LSN present in the whole segment (endLSN — the shipping horizon, used
// for lag accounting; frames beyond the byte budget are skimmed, not
// shipped). Like ScanLog it stops silently at a torn or corrupt tail. A
// missing segment returns no frames and endLSN 0.
func ReadFrames(path string, afterLSN uint64, maxBytes int) (frames []Frame, endLSN uint64, err error) {
	s, err := openSegment(path)
	if s == nil {
		return nil, 0, err
	}
	defer s.f.Close()
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	if afterLSN > 0 {
		if off, ok := lookupCursor(path, afterLSN); ok {
			// Resume at the cached start of afterLSN's own frame. The frame
			// must be intact with exactly that LSN — the cheap generation
			// check that detects a truncated-and-restarted file.
			s.off = off
			if lsn, _, ok := s.next(); ok && lsn == afterLSN {
				frames, endLSN = s.consume(path, maxBytes)
				return frames, max(endLSN, afterLSN), nil
			}
			s.off = 0 // stale cursor (the file was rewritten under it): full scan
		}
	}
	// From zero: skip to afterLSN (checking for a truncation gap at the
	// first frame), then consume the tail.
	for first := true; ; first = false {
		start := s.off
		lsn, _, ok := s.next()
		if !ok {
			// End of the intact frames before reaching afterLSN: nothing new.
			if first {
				return nil, 0, nil
			}
			return nil, afterLSN, nil
		}
		// A truncation (checkpoint) restarts the file at a later LSN; a
		// reader positioned before that, at 0 too, has an unshippable hole.
		if first && lsn > afterLSN+1 {
			return nil, 0, fmt.Errorf("%w (position %d, segment starts at %d)", ErrShipGap, afterLSN, lsn)
		}
		if lsn < afterLSN {
			continue
		}
		if lsn == afterLSN {
			// Next frames are the new tail. Cache afterLSN's own frame so
			// idle polls skip this scan.
			storeCursor(path, afterLSN, start)
		} else {
			// The segment starts right after afterLSN: this frame is the
			// first to ship.
			s.off = start
		}
		frames, endLSN = s.consume(path, maxBytes)
		return frames, max(endLSN, afterLSN), nil
	}
}

// consume reads the intact frames from off on, shipping those within
// budget and skimming the rest for the horizon. It caches a cursor at the
// start of the last frame it shipped so the next fetch seeks instead of
// scanning.
func (s *segment) consume(path string, maxBytes int) (frames []Frame, endLSN uint64) {
	budget := maxBytes
	cursorLSN, cursorOff := uint64(0), int64(0)
	for {
		start := s.off
		lsn, payload, ok := s.next()
		if !ok {
			break
		}
		endLSN = lsn
		if budget > 0 {
			frames = append(frames, Frame{LSN: lsn, Payload: bytes.Clone(payload)})
			budget -= 8 + len(payload)
			cursorLSN, cursorOff = lsn, start
		}
	}
	if cursorLSN > 0 {
		storeCursor(path, cursorLSN, cursorOff)
	}
	return frames, endLSN
}
