package storage

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Epoch-based reclamation (DESIGN.md §8). Snapshot readers run with zero
// locks: they enter an epoch, walk atomically-published structures (slot
// directory, version chains, index buckets, skiplist links), and exit.
// The partition worker — the only mutator — unlinks nodes at GC rhythm
// and RETIRES them instead of recycling immediately; a retired node is
// handed back to its sync.Pool only once every reader that could still
// hold a pointer into it has left its epoch. Go's garbage collector keeps
// an unlinked node's memory alive for any straggling reader regardless;
// what epochs buy is safe REUSE: pooled nodes are rewritten in place for
// new rows and keys, which without a grace period would tear a concurrent
// reader's walk (ABA through the freelist — a reader mid-chain crossing
// into another row's chain).
//
// The scheme is the classic three-epoch design specialized to one
// advancing writer:
//
//   - Readers: e := global; active[e%3]++; re-check global == e (retry on
//     mismatch, so a pin always names the current epoch). Reads start
//     only after a successful pin, so a reader observes every unlink the
//     worker published before the epoch it pinned began — it can never
//     reach a node retired two epochs back.
//   - Worker: Advance() moves global from e to e+1 only when no reader
//     remains pinned in slot (e-1)%3; at that moment everything retired
//     during epoch e-1 is unreachable by all current and future readers
//     and is released to the pools.
//
// Reader counters are striped across cache-line-padded shards so the
// read fast path performs no shared-cacheline writes.

// epochShardCount stripes the reader counters. Power of two; sized past
// the core counts this engine targets so two running readers rarely
// collide on a line.
const epochShardCount = 32

// epochShard holds one stripe's per-epoch reader counts, padded to two
// cache lines so neighboring stripes never false-share.
type epochShard struct {
	active [3]atomic.Int64
	_      [104]byte
}

// EpochGuard is an entered epoch; Exit releases it. Zero value is inert.
type EpochGuard struct {
	sh   *epochShard
	slot uint32
}

// Exit leaves the epoch entered by EpochManager.Enter.
func (g EpochGuard) Exit() {
	if g.sh != nil {
		g.sh.active[g.slot].Add(-1)
	}
}

// EpochManager is one partition's reclamation clock. Enter/Exit are safe
// from any goroutine; Retire*/Advance are worker-only (single mutator).
type EpochManager struct {
	global atomic.Uint64
	shards [epochShardCount]epochShard

	// Retire bins, indexed by (retirement epoch % 3). Worker-only. The
	// bin freed when Advance moves e -> e+1 is bins[(e-1)%3], which then
	// becomes the bin for epoch e+2.
	bins [3]epochBin

	advances atomic.Uint64
	stalls   atomic.Uint64
	retired  atomic.Uint64
	reused   atomic.Uint64
}

type epochBin struct {
	vers  []*rowVersion
	nodes []*slNode
}

// NewEpochManager returns a manager at epoch zero with empty bins.
func NewEpochManager() *EpochManager { return &EpochManager{} }

// Enter pins the current epoch for a reader. The retry loop closes the
// race with a concurrent Advance: a pin is only kept if the global epoch
// did not move between the load and the increment, so the worker's
// quiescence check never misses a reader that began before an unlink it
// is about to reclaim behind.
func (em *EpochManager) Enter() EpochGuard {
	sh := &em.shards[rand.Uint32()&(epochShardCount-1)]
	for {
		e := em.global.Load()
		slot := uint32(e % 3)
		sh.active[slot].Add(1)
		if em.global.Load() == e {
			return EpochGuard{sh: sh, slot: slot}
		}
		sh.active[slot].Add(-1)
	}
}

// RetireVersion queues an unlinked version-chain node for reuse after the
// grace period. Worker-only; the node must already be unreachable from
// the published chain.
func (em *EpochManager) RetireVersion(v *rowVersion) {
	bin := &em.bins[em.global.Load()%3]
	bin.vers = append(bin.vers, v)
	em.retired.Add(1)
}

// RetireSLNode queues an unlinked skiplist key node for reuse after the
// grace period. Worker-only.
func (em *EpochManager) RetireSLNode(n *slNode) {
	bin := &em.bins[em.global.Load()%3]
	bin.nodes = append(bin.nodes, n)
	em.retired.Add(1)
}

// Advance attempts to move the global epoch forward one step, releasing
// the bin that has aged out of reach. Worker-only (or any quiescent
// barrier). Returns false — leaving every bin untouched — while a reader
// is still pinned two epochs back; the caller just retries at its next
// GC rhythm.
func (em *EpochManager) Advance() bool {
	e := em.global.Load()
	prev := (e + 2) % 3 // (e-1) mod 3 without underflow at e==0
	for i := range em.shards {
		if em.shards[i].active[prev].Load() != 0 {
			em.stalls.Add(1)
			return false
		}
	}
	em.global.Store(e + 1)
	em.advances.Add(1)
	em.freeBin(prev)
	return true
}

// freeBin releases every node retired in the aged-out bin back to the
// pools. Safe to rewrite with plain stores: the quiescence check in
// Advance established a happens-before edge with every reader that could
// have held these nodes.
func (em *EpochManager) freeBin(slot uint64) {
	bin := &em.bins[slot]
	for i, v := range bin.vers {
		v.rowp.Store(nil)
		v.cold.Store(0)
		v.next.Store(nil)
		versionPool.Put(v)
		bin.vers[i] = nil
	}
	em.reused.Add(uint64(len(bin.vers)))
	bin.vers = bin.vers[:0]
	for i, n := range bin.nodes {
		n.scrub()
		slClasses[n.class].pool.Put(n)
		bin.nodes[i] = nil
	}
	em.reused.Add(uint64(len(bin.nodes)))
	bin.nodes = bin.nodes[:0]
}

// Epoch returns the current global epoch (tests, stats).
func (em *EpochManager) Epoch() uint64 { return em.global.Load() }

// Stats reports cumulative advances, advance stalls (a reader held an old
// epoch), retired nodes, and nodes returned to the pools.
func (em *EpochManager) Stats() (advances, stalls, retired, reused uint64) {
	return em.advances.Load(), em.stalls.Load(), em.retired.Load(), em.reused.Load()
}

// PendingRetired reports nodes awaiting their grace period (tests).
func (em *EpochManager) PendingRetired() int {
	n := 0
	for i := range em.bins {
		n += len(em.bins[i].vers) + len(em.bins[i].nodes)
	}
	return n
}

// ActiveReaders sums the pinned-reader counts across shards and epochs
// (tests, diagnostics; inherently racy under concurrent Enter/Exit).
func (em *EpochManager) ActiveReaders() int64 {
	var n int64
	for i := range em.shards {
		for s := 0; s < 3; s++ {
			n += em.shards[i].active[s].Load()
		}
	}
	return n
}

// versionPool recycles version nodes, slClasses[].pool (skiplist.go) index
// nodes by height class: the two kinds whose reuse the epoch grace period
// makes safe.
var versionPool = sync.Pool{New: func() any { return new(rowVersion) }}
