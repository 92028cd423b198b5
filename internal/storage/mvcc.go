package storage

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Seq is a per-partition commit sequence number. Every row version is
// stamped with the sequence interval [born, dead) during which it is
// visible: a snapshot read at sequence s sees exactly the versions with
// born <= s < dead. Index entries carry no stamps (index.go).
//
// The partition worker stamps in-flight writes with Current()+1 — the
// pending sequence — and publishes them atomically at commit by advancing
// the clock. Aborted transactions physically reverse their stamps through
// the undo log and never publish, so the pending sequence is simply reused
// by the next transaction.
type Seq = uint64

// SeqInf is the dead-stamp of a live version: visible to every snapshot at
// or after its birth.
const SeqInf Seq = math.MaxUint64

// pinShardCount stripes the snapshot-pin registry so concurrent
// AcquireSnapshot/ReleaseSnapshot calls from many wire connections (and a
// follower's apply/read goroutines) do not serialize on one mutex. Power
// of two.
const pinShardCount = 16

// pinShard is one stripe of the pin multiset, padded so neighboring
// stripes' locks never share a cache line.
type pinShard struct {
	mu     sync.Mutex
	active map[Seq]int
	_      [96]byte
}

// SnapPin is a held snapshot pin: the pinned sequence plus the registry
// stripe that recorded it (ReleaseSnapshot must decrement the same
// stripe). Treat it as an opaque token; the zero value is inert.
type SnapPin struct {
	seq Seq
	sh  *pinShard
}

// Seq returns the pinned commit sequence.
func (p SnapPin) Seq() Seq { return p.seq }

// PartitionClock is one partition's commit clock plus its registry of
// pinned snapshots and its epoch-reclamation manager. All tables of a
// partition share one clock, so a single Publish makes a whole
// transaction's writes — across every table it touched — visible
// atomically to snapshot readers.
//
// Writer methods (WriteSeq, Publish) are called only from the partition
// worker goroutine; reader methods (Current, AcquireSnapshot,
// ReleaseSnapshot) are safe from any goroutine.
type PartitionClock struct {
	current atomic.Uint64

	// shards hold the pin multiset. An acquire reads the clock and
	// registers under one stripe's lock, and Watermark takes each stripe's
	// lock in turn, which closes the race where a GC sweep computes a
	// watermark between a reader's clock load and its registration: any
	// pin a stripe scan misses was registered after the scan began and
	// therefore pinned a sequence at or above the watermark being
	// computed.
	shards [pinShardCount]pinShard

	epochs *EpochManager
}

// NewPartitionClock returns a clock at sequence zero with no pins.
func NewPartitionClock() *PartitionClock {
	c := &PartitionClock{epochs: NewEpochManager()}
	for i := range c.shards {
		c.shards[i].active = make(map[Seq]int)
	}
	return c
}

// Epochs returns the partition's epoch-reclamation manager (shared by
// every table stamping from this clock).
func (c *PartitionClock) Epochs() *EpochManager { return c.epochs }

// Current returns the last published commit sequence.
func (c *PartitionClock) Current() Seq { return c.current.Load() }

// WriteSeq returns the pending sequence in-flight writes stamp. Worker
// goroutine only; stable for the whole transaction because only the worker
// publishes.
func (c *PartitionClock) WriteSeq() Seq { return c.current.Load() + 1 }

// Publish makes every write stamped with the pending sequence visible to
// subsequent snapshots — the in-memory commit point. Worker goroutine only.
func (c *PartitionClock) Publish() Seq { return c.current.Add(1) }

// AcquireSnapshot pins the latest published sequence on a randomly chosen
// registry stripe. The pin holds the GC watermark at or below the pinned
// sequence until ReleaseSnapshot, so every version visible at acquisition
// stays readable.
func (c *PartitionClock) AcquireSnapshot() SnapPin {
	sh := &c.shards[rand.Uint32()&(pinShardCount-1)]
	sh.mu.Lock()
	s := c.current.Load()
	sh.active[s]++
	sh.mu.Unlock()
	return SnapPin{seq: s, sh: sh}
}

// ReleaseSnapshot drops the pin. The zero pin is a no-op.
func (c *PartitionClock) ReleaseSnapshot(p SnapPin) {
	if p.sh == nil {
		return
	}
	p.sh.mu.Lock()
	if n := p.sh.active[p.seq]; n <= 1 {
		delete(p.sh.active, p.seq)
	} else {
		p.sh.active[p.seq] = n - 1
	}
	p.sh.mu.Unlock()
}

// Watermark returns the reclamation horizon: the oldest sequence any
// current or future snapshot can read, computed as the minimum over every
// pin stripe. Versions whose dead stamp is at or below it are invisible to
// everyone and may be reclaimed. A pin registered on a stripe after its
// scan pinned a sequence at or above the clock value loaded below, so the
// minimum stays conservative.
func (c *PartitionClock) Watermark() Seq {
	w := c.current.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for s := range sh.active {
			if s < w {
				w = s
			}
		}
		sh.mu.Unlock()
	}
	return w
}

// ActiveSnapshots reports the number of outstanding pins (metrics, tests).
func (c *PartitionClock) ActiveSnapshots() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, k := range sh.active {
			n += k
		}
		sh.mu.Unlock()
	}
	return n
}
