package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestEpochAdvanceStallsOnPinnedReader: a reader pinned in epoch e blocks
// the advance from e+1 to e+2 (its slot would be reclaimed) and nothing
// else; releasing it unblocks the advance.
func TestEpochAdvanceStallsOnPinnedReader(t *testing.T) {
	em := NewEpochManager()
	g := em.Enter() // pinned in epoch 0
	if em.ActiveReaders() != 1 {
		t.Fatalf("ActiveReaders = %d", em.ActiveReaders())
	}
	if !em.Advance() { // 0 -> 1: frees slot of epoch -1, no reader there
		t.Fatal("advance 0->1 should not stall")
	}
	if em.Advance() { // 1 -> 2 would free epoch 0's slot — reader pinned
		t.Fatal("advance 1->2 must stall on the epoch-0 reader")
	}
	if _, stalls, _, _ := em.Stats(); stalls != 1 {
		t.Fatalf("stalls = %d", stalls)
	}
	g.Exit()
	if !em.Advance() {
		t.Fatal("advance after reader exit")
	}
	if em.Epoch() != 2 {
		t.Fatalf("epoch = %d", em.Epoch())
	}
}

// TestEpochRetireFreesAfterGrace: a retired version node returns to the
// pool only after two advances (its epoch plus one full grace epoch), and
// comes back with its fields scrubbed.
func TestEpochRetireFreesAfterGrace(t *testing.T) {
	em := NewEpochManager()
	v := newRowVersion(voteRow(1, 1), 1, SeqInf)
	v.cold.Store(7)     // an evicted image's ref, or a stale one: both words are scrubbed
	em.RetireVersion(v) // retired in epoch 0
	if em.PendingRetired() != 1 {
		t.Fatalf("pending = %d", em.PendingRetired())
	}
	em.Advance() // epoch 1: frees the pre-epoch-0 bin (empty)
	if em.PendingRetired() != 1 {
		t.Fatal("node freed one epoch early")
	}
	em.Advance() // epoch 2: epoch 0's bin ages out
	if em.PendingRetired() != 0 {
		t.Fatalf("pending after grace = %d", em.PendingRetired())
	}
	if v.rowp.Load() != nil || v.cold.Load() != 0 || v.next.Load() != nil {
		t.Fatal("pooled node not scrubbed")
	}
	if _, _, retired, reused := em.Stats(); retired != 1 || reused != 1 {
		t.Fatalf("retired=%d reused=%d", retired, reused)
	}
}

// TestShardedPinWatermark: the watermark is the min over every stripe's
// pins regardless of which stripe each pin landed on, and rises as pins
// release.
func TestShardedPinWatermark(t *testing.T) {
	c := NewPartitionClock()
	for i := 0; i < 5; i++ {
		c.Publish()
	}
	old := make([]SnapPin, 32) // 32 random stripes — collisions guaranteed
	for i := range old {
		old[i] = c.AcquireSnapshot()
	}
	for i := 0; i < 3; i++ {
		c.Publish()
	}
	newer := c.AcquireSnapshot()
	if w := c.Watermark(); w != 5 {
		t.Fatalf("watermark = %d want 5", w)
	}
	if n := c.ActiveSnapshots(); n != 33 {
		t.Fatalf("ActiveSnapshots = %d", n)
	}
	for _, p := range old {
		c.ReleaseSnapshot(p)
	}
	if w := c.Watermark(); w != 8 {
		t.Fatalf("watermark after releasing old pins = %d want 8", w)
	}
	c.ReleaseSnapshot(newer)
	if w, cur := c.Watermark(), c.Current(); w != cur {
		t.Fatalf("unpinned watermark = %d, current = %d", w, cur)
	}
	c.ReleaseSnapshot(SnapPin{}) // zero pin is inert
}

// TestShardedPinWatermarkMonotonic hammers acquire/release from many
// goroutines while the "worker" publishes and checks the watermark never
// moves backward and never exceeds the clock — the property GC sweeps and
// the cold store's deferred frees rely on.
func TestShardedPinWatermarkMonotonic(t *testing.T) {
	c := NewPartitionClock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := c.AcquireSnapshot()
				if p.Seq() > c.Current() {
					panic("pin above the clock")
				}
				c.ReleaseSnapshot(p)
			}
		}()
	}
	last := Seq(0)
	for i := 0; i < 20000; i++ {
		c.Publish()
		w := c.Watermark()
		if w < last {
			t.Fatalf("watermark moved backward: %d -> %d", last, w)
		}
		if w > c.Current() {
			t.Fatalf("watermark %d above clock %d", w, c.Current())
		}
		last = w
	}
	close(stop)
	wg.Wait()
	if w, cur := c.Watermark(), c.Current(); w != cur {
		t.Fatalf("drained watermark = %d, current = %d", w, cur)
	}
}

// TestEpochReaderEvictorTruncateHammer is the reclamation race hammer: one
// worker goroutine rewrites every key each round, interleaving publishes
// with GC sweeps, epoch advances (which recycle nodes through the pools),
// anti-cache eviction, deferred cold frees, and periodic truncation —
// while snapshot readers continuously scan and probe. Every reader must
// see an atomic round: either the full key set at one generation, or the
// empty post-truncate state. Run with -race this also proves the
// happens-before edges of the epoch protocol. The verdict rests on
// invariants only: how often an advance got past the readers, and so how
// many nodes went back to the pools while they ran, is the scheduler's
// business and is not asserted.
func TestEpochReaderEvictorTruncateHammer(t *testing.T) {
	const nKeys = 48
	rounds, nReaders := 400, 4
	if testing.Short() {
		rounds = 80
	}
	tb, _ := coldTable(t)
	clock := tb.Clock()
	pk := tb.PrimaryIndex()

	stop := make(chan struct{})
	errs := make(chan error, nReaders)
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := clock.AcquireSnapshot()
				s := pin.Seq()
				gen, count := int64(-1), 0
				ok := true
				tb.SnapshotScan(s, func(_ RowID, row types.Row) bool {
					count++
					if len(row) != 3 || row[0].Int() < 0 || row[0].Int() >= nKeys {
						ok = false
						return false
					}
					if gen == -1 {
						gen = row[1].Int()
					} else if row[1].Int() != gen {
						ok = false
						return false
					}
					return true
				})
				if !ok || (count != 0 && count != nKeys) {
					clock.ReleaseSnapshot(pin)
					errs <- fmt.Errorf("torn snapshot at seq %d: count=%d ok=%v", s, count, ok)
					return
				}
				// A point probe through the index agrees with the scan.
				k := rng.Int63n(nKeys)
				rows := snapshotLookup(tb, pk, types.Row{types.NewInt(k)}, s)
				if count == 0 && len(rows) != 0 {
					errs <- fmt.Errorf("lookup found key %d in an empty snapshot", k)
					clock.ReleaseSnapshot(pin)
					return
				}
				if count == nKeys && (len(rows) != 1 || rows[0][1].Int() != gen) {
					errs <- fmt.Errorf("lookup(%d) = %v, scan gen %d", k, rows, gen)
					clock.ReleaseSnapshot(pin)
					return
				}
				clock.ReleaseSnapshot(pin)
			}
		}(int64(r))
	}

	// The worker: one mutator, exactly as in the engine.
	em := clock.Epochs()
	var retiredBy []uint64 // retiredBy[e]: nodes retired by the end of epoch e
	ids := make(map[int64]RowID, nKeys)
	for round := 0; round < rounds; round++ {
		if round%9 == 8 {
			tb.Truncate(nil)
			ids = make(map[int64]RowID, nKeys)
		} else {
			for k := int64(0); k < nKeys; k++ {
				if id, live := ids[k]; live {
					if err := tb.Update(id, voteRow(k, int64(round)), nil); err != nil {
						t.Fatal(err)
					}
				} else {
					id, err := tb.Insert(voteRow(k, int64(round)), nil)
					if err != nil {
						t.Fatal(err)
					}
					ids[k] = id
				}
			}
		}
		clock.Publish()
		wm := clock.Watermark()
		tb.GC(wm)
		if round%3 == 0 {
			tb.Evict(wm, 1<<30)
		}
		tb.ReleaseColdFrees(wm)
		// Grace period: the advance that ends epoch e hands back exactly the
		// nodes retired through epoch e-1. Anything retired during e may
		// still be under a reader that pinned e, and must stay out of the
		// pools for one more epoch.
		_, _, retired, _ := em.Stats()
		if em.Advance() {
			retiredBy = append(retiredBy, retired)
			want := uint64(0)
			if e := len(retiredBy) - 1; e > 0 {
				want = retiredBy[e-1]
			}
			if _, _, _, reused := em.Stats(); reused != want {
				t.Fatalf("ending epoch %d reused %d nodes, want the %d retired before it began",
					len(retiredBy)-1, reused, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// With the readers gone nothing pins the watermark or an epoch: one more
	// sweep must find garbage (every round superseded every key), and two
	// advances must return every retired node.
	tb.GC(clock.Watermark())
	if !em.Advance() || !em.Advance() {
		t.Fatal("advance stalled with no reader left")
	}
	if _, _, retired, reused := em.Stats(); retired == 0 || reused != retired || em.PendingRetired() != 0 {
		t.Fatalf("after the drain: retired=%d reused=%d pending=%d", retired, reused, em.PendingRetired())
	}
}

// TestEpochIndexNodeReuseAcrossHeightsHammer is the reuse hammer for the
// variable-height index entries: every round the writer indexes the same
// keys at heights that rotate within each height class, erases them
// (unlink, retire) and advances the epoch, so nodes come back from
// their class's pool to carry another key at another height — while
// readers walk the list inside epochs. A node is rewritten with plain
// stores on reuse, so under -race a node handed out before its last
// reader left is a reported race; without -race the readers still check
// that every walk is ascending and every (key, id) pair belongs together.
func TestEpochIndexNodeReuseAcrossHeightsHammer(t *testing.T) {
	const nKeys = 96
	rounds, nReaders := 400, 4
	if testing.Short() {
		rounds = 100
	}
	heights := []int{1, 2, 3, 4, 5, 6, 7, 8, 9} // classes: 1 | 2-3 | 4-7 | 8+
	seeds := make([]uint64, len(heights))
	for i, h := range heights {
		seeds[i] = levelSeed(t, h)
	}
	em := NewEpochManager()
	sl := newSkiplist(em)

	stop := make(chan struct{})
	errs := make(chan error, nReaders)
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := em.Enter()
				last, bad := int64(-1), ""
				sl.scan(nil, nil, func(k types.Row, id RowID) bool {
					if key := k[0].Int(); len(k) != 1 || key <= last || key >= nKeys || id != RowID(key+1) {
						bad = fmt.Sprintf("walk met key %v id %d after key %d", k, id, last)
						return false
					} else {
						last = key
					}
					return true
				})
				k := rng.Int63n(nKeys)
				if ids := sl.lookup(intKey(k), nil); len(ids) > 1 || (len(ids) == 1 && ids[0] != RowID(k+1)) {
					bad = fmt.Sprintf("lookup(%d) = %v", k, ids)
				}
				g.Exit()
				if bad != "" {
					errs <- fmt.Errorf("%s", bad)
					return
				}
			}
		}(int64(r))
	}

	// The worker. heightOf remembers the height each node last carried.
	heightOf := map[*slNode]int{}
	reusedAtOtherHeight := 0
	for round := 0; round < rounds; round++ {
		for k := int64(0); k < nKeys; k++ {
			h := (int(k) + round) % len(heights)
			sl.rng = seeds[h]
			if sl.insert(intKey(k), RowID(k+1)) != nil {
				t.Fatalf("round %d: insert %d met a linked node", round, k)
			}
			var update [maxLevel]*slNode
			n := sl.find(intKey(k), &update)
			if was, seen := heightOf[n]; seen && was != heights[h] {
				reusedAtOtherHeight++
			}
			heightOf[n] = heights[h]
		}
		for k := int64(0); k < nKeys; k++ {
			sl.erase(intKey(k), RowID(k+1))
		}
		if sl.length != 0 {
			t.Fatalf("round %d: %d keys left linked", round, sl.length)
		}
		em.Advance()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if !em.Advance() || !em.Advance() {
		t.Fatal("advance stalled with no reader left")
	}
	if _, _, retired, reused := em.Stats(); retired != uint64(rounds*nKeys) || reused != retired {
		t.Fatalf("retired %d nodes (want %d), %d returned to the pools", retired, rounds*nKeys, reused)
	}
	if reusedAtOtherHeight == 0 {
		t.Fatal("no node was ever reused at a height other than the one it was retired at")
	}
	t.Logf("%d nodes reused at another height", reusedAtOtherHeight)
}
