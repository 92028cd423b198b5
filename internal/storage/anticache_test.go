package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// coldTable builds a votes table attached to a fresh cold store.
func coldTable(t *testing.T) (*Table, *coldstore.Store) {
	t.Helper()
	cs, err := coldstore.Open(filepath.Join(t.TempDir(), "cold.pages"), coldstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	tb := NewTable(votesSchema(t))
	tb.AttachColdStore(cs)
	return tb, cs
}

func fillVotes(t *testing.T, tb *Table, n int) []RowID {
	t.Helper()
	ids := make([]RowID, 0, n)
	for i := 0; i < n; i++ {
		id, err := tb.Insert(types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewString("note"),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tb.Clock().Publish()
	return ids
}

// TestRowMemSizeKeepsTheBudgetUnit pins the ledger's charge for the kv
// benchmark's row shape, three BIGINTs and a 216-byte VARCHAR, at the
// 400 B a MemoryBudget and the benchmark's row size are written in. It
// must not follow the size of types.Value.
func TestRowMemSizeKeepsTheBudgetUnit(t *testing.T) {
	row := types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewString(strings.Repeat("x", 216))}
	if got := rowMemSize(row); got != 400 {
		t.Fatalf("rowMemSize(kv row) = %d, the budget's unit says 400", got)
	}
}

// TestTableEvictFaultRoundtrip: evicting everything leaves stubs whose
// reads — worker Get (rehydrating) and snapshot reads (read-through) —
// return the original rows, and the resident ledger tracks both moves.
func TestTableEvictFaultRoundtrip(t *testing.T) {
	tb, _ := coldTable(t)
	ids := fillVotes(t, tb, 50)
	before := tb.ResidentBytes()

	nv, bytes := tb.Evict(tb.Clock().Current(), 1<<30)
	if nv != 50 || bytes != before {
		t.Fatalf("Evict = (%d, %d), want (50, %d)", nv, bytes, before)
	}
	if rb := tb.ResidentBytes(); rb != 0 {
		t.Fatalf("ResidentBytes after full eviction = %d", rb)
	}
	// Snapshot read-through: no rehydration, chain untouched.
	snap := tb.Clock().AcquireSnapshot()
	row, ok := tb.SnapshotGet(ids[7], snap.Seq())
	if !ok || row[0].Int() != 7 || row[2].Str() != "note" {
		t.Fatalf("SnapshotGet over stub = %v %v", row, ok)
	}
	tb.Clock().ReleaseSnapshot(snap)
	if rb := tb.ResidentBytes(); rb != 0 {
		t.Fatalf("snapshot read rehydrated: ResidentBytes = %d", rb)
	}
	// Worker Get: faults and reinstalls.
	row, ok = tb.Get(ids[7])
	if !ok || row[0].Int() != 7 {
		t.Fatalf("Get over stub = %v %v", row, ok)
	}
	if rb := tb.ResidentBytes(); rb <= 0 {
		t.Fatalf("worker fault did not rehydrate: ResidentBytes = %d", rb)
	}
	cv, ev, fa := tb.ColdStats()
	if cv != 49 || ev != 50 || fa < 2 {
		t.Fatalf("ColdStats = (%d, %d, %d), want (49, 50, >=2)", cv, ev, fa)
	}
}

// TestEvictAllocatesNothingPerVersion: evicting a version is two stores
// into it; what an eviction pass allocates is the cold store's pages, not
// one object per version (a stub payload each cost 4 000 allocations here).
func TestEvictAllocatesNothingPerVersion(t *testing.T) {
	const n = 4000
	tb, _ := coldTable(t)
	fillVotes(t, tb, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evicted, _ := tb.Evict(tb.Clock().Current(), 1<<30)
	runtime.ReadMemStats(&after)
	if evicted != n {
		t.Fatalf("evicted %d versions of %d", evicted, n)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > n/100 {
		t.Fatalf("evicting %d versions took %d allocations", n, mallocs)
	}
}

// TestTableEvictSecondChance: a touched tuple survives one eviction pass
// (its clock bit is cleared instead) and goes cold on the next.
func TestTableEvictSecondChance(t *testing.T) {
	tb, _ := coldTable(t)
	ids := fillVotes(t, tb, 10)
	if _, ok := tb.Get(ids[3]); !ok { // sets the clock bit
		t.Fatal("Get")
	}
	tb.Evict(tb.Clock().Current(), 1<<30)
	if cv, _, _ := tb.ColdStats(); cv != 9 {
		t.Fatalf("first pass evicted %d versions, want 9 (touched tuple spared)", cv)
	}
	if row, ok := tb.Get(ids[3]); !ok || row[0].Int() != 3 {
		t.Fatal("touched tuple should still be resident")
	}
	// The Get above re-armed the bit; two passes take it down.
	tb.Evict(tb.Clock().Current(), 1<<30)
	tb.Evict(tb.Clock().Current(), 1<<30)
	if cv, _, _ := tb.ColdStats(); cv != 10 {
		t.Fatalf("clock bit never expires: %d cold versions, want 10", cv)
	}
}

// TestTableEvictRespectsWatermark: versions born after the watermark
// (unpublished or still visible only to newer snapshots) stay hot.
func TestTableEvictRespectsWatermark(t *testing.T) {
	tb, _ := coldTable(t)
	fillVotes(t, tb, 5) // born at seq 1, published
	wm := tb.Clock().Current()
	// A second batch committed after the watermark we will evict at.
	for i := 5; i < 8; i++ {
		if _, err := tb.Insert(types.Row{
			types.NewInt(int64(i)), types.NewInt(0), types.Null,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.Clock().Publish()
	tb.Evict(wm, 1<<30)
	if cv, _, _ := tb.ColdStats(); cv != 5 {
		t.Fatalf("evicted %d versions at watermark %d, want 5", cv, wm)
	}
}

// TestTwoWordPublishHammer hammers the two words a version's image lives
// in (rowp, cold): the worker evicts every version it may (cold stored,
// then rowp nilled), faults half the heads back through Get (rowp stored,
// cold left stale), collects and frees behind the watermark, and advances
// the epoch, over and over on the same versions — a new generation only
// every other round — while readers at pinned sequences capture images
// directly, through SnapshotGet, SnapshotScan and SnapshotLookup. Every
// capture must be a row or a ref, never a nil row with a zero ref, and
// every read must return the exact image of its generation. Under -race
// this also checks the happens-before edges of the publish. (Eviction's
// two stores swapped — rowp nilled before a first eviction's ref is
// stored — fails about half the runs.)
func TestTwoWordPublishHammer(t *testing.T) {
	const nKeys = 64
	rounds, nReaders := 500, 4
	if testing.Short() {
		rounds = 100
	}
	tb, _ := coldTable(t)
	clock := tb.Clock()
	em := clock.Epochs()
	pk := tb.PrimaryIndex()
	image := func(k, gen int64) types.Row {
		return types.Row{types.NewInt(k), types.NewInt(gen), types.NewString(fmt.Sprintf("k%d-g%d", k, gen))}
	}
	ids := make([]RowID, nKeys)
	for k := range ids {
		id, err := tb.Insert(image(int64(k), 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	clock.Publish()

	stop := make(chan struct{})
	errs := make(chan error, nReaders)
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			fail := func(pin SnapPin, format string, args ...any) {
				clock.ReleaseSnapshot(pin)
				errs <- fmt.Errorf("seq %d: "+format, append([]any{pin.Seq()}, args...)...)
			}
			exact := func(row types.Row, k, gen int64) bool {
				return row != nil && row.Equal(image(k, gen))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := clock.AcquireSnapshot()
				seq := pin.Seq()
				// Raw captures of every linked version, repeated so the walk
				// is still running when the worker stores.
				bad := -1
				for rep := 0; rep < 64 && bad < 0; rep++ {
					g := em.Enter()
					for i, s := range tb.slots() {
						for v := s.head.Load(); v != nil && bad < 0; v = v.next.Load() {
							if pl := v.payload(); pl.row == nil && pl.cold == 0 {
								bad = i
							}
						}
					}
					g.Exit()
				}
				if bad >= 0 {
					fail(pin, "slot %d captured a nil row with a zero ref", bad)
					return
				}
				// The whole snapshot is one generation.
				gen, n, ok := int64(-1), 0, true
				tb.SnapshotScan(seq, func(_ RowID, row types.Row) bool {
					if gen < 0 && row != nil && len(row) == 3 {
						gen = row[1].Int()
					}
					if ok = exact(row, int64(n), gen); ok {
						n++
					}
					return ok
				})
				if !ok || n != nKeys {
					fail(pin, "scan read %d exact rows of %d (generation %d)", n, nKeys, gen)
					return
				}
				k := rng.Int63n(nKeys)
				if row, found := tb.SnapshotGet(ids[k], seq); !found || !exact(row, k, gen) {
					fail(pin, "SnapshotGet(key %d) = %v %v, generation %d", k, row, found, gen)
					return
				}
				rows := snapshotLookup(tb, pk, types.Row{types.NewInt(k)}, seq)
				if len(rows) != 1 || !exact(rows[0], k, gen) {
					fail(pin, "SnapshotLookup(key %d) = %v, generation %d", k, rows, gen)
					return
				}
				clock.ReleaseSnapshot(pin)
			}
		}(int64(r) + 1)
	}

	for round := 1; round <= rounds; round++ {
		if round%2 == 0 {
			for k, id := range ids {
				if err := tb.Update(id, image(int64(k), int64(round)), nil); err != nil {
					t.Fatal(err)
				}
			}
			clock.Publish()
		}
		wm := clock.Watermark()
		tb.Evict(wm, 1<<30)
		tb.Evict(wm, 1<<30) // the second pass takes what the first gave a second chance
		for k := round % 2; k < nKeys; k += 2 {
			if row, ok := tb.Get(ids[k]); !ok || row[0].Int() != int64(k) {
				t.Fatalf("round %d: Get(key %d) = %v %v", round, k, row, ok)
			}
		}
		clock.Publish() // the faults' deferred frees come due once readers move past
		wm = clock.Watermark()
		tb.GC(wm)
		tb.ReleaseColdFrees(wm)
		em.Advance()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if _, ev, fa := tb.ColdStats(); ev == 0 || fa == 0 {
		t.Fatalf("the hammer evicted %d versions and faulted %d: it did not hammer", ev, fa)
	}
}

// TestTableColdSlotsFreedOnlyByDeferral: only live heads go cold, so GC
// reclaims superseded versions from memory and frees no cold slot; the one
// free path is the deferred one, a slot superseded by a worker
// rehydration (Delete pre-faults its target) freed once the watermark
// passes.
func TestTableColdSlotsFreedOnlyByDeferral(t *testing.T) {
	tb, cs := coldTable(t)
	ids := fillVotes(t, tb, 8)

	// Supersede 4 rows before eviction: their old versions are dead and
	// stay resident.
	for i, id := range ids[:4] {
		if err := tb.Update(id, types.Row{
			types.NewInt(int64(i)), types.NewInt(9), types.Null,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.Clock().Publish()
	tb.Evict(tb.Clock().Current(), 1<<30)
	if cv, _, _ := tb.ColdStats(); cv != 8 {
		t.Fatalf("cold versions after eviction = %d, want the 8 live heads", cv)
	}
	if rec, _ := tb.GC(tb.Clock().Current()); rec != 4 {
		t.Fatalf("GC reclaimed %d versions, want 4", rec)
	}
	if cv, _, fa := tb.ColdStats(); cv != 8 || fa != 0 || cs.Stats().Frees != 0 {
		t.Fatalf("GC moved the cold store: %d cold versions, %d faults, %d frees", cv, fa, cs.Stats().Frees)
	}

	// Delete an evicted row: the worker faults it back in first (GC will
	// read its key columns), deferring the old slot's free to the
	// watermark.
	if err := tb.Delete(ids[5], nil); err != nil {
		t.Fatal(err)
	}
	tb.Clock().Publish()
	tb.ReleaseColdFrees(tb.Clock().Current())
	if frees := cs.Stats().Frees; frees != 1 {
		t.Fatalf("frees after deferred release = %d, want 1", frees)
	}
}

// TestGCReadsNoColdRowOnNonKeyUpdate: a row is evicted, updated on a
// column no index covers (the update faults the head in), and the new head
// evicted in turn; the sweep that reclaims the old version reads neither
// image from the cold store, because the new version is not rekeyed.
func TestGCReadsNoColdRowOnNonKeyUpdate(t *testing.T) {
	tb, _ := coldTable(t)
	if _, err := tb.CreateIndex("by_candidate", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	ids := fillVotes(t, tb, 16)
	clock := tb.Clock()
	tb.Evict(clock.Current(), 1<<30)
	for i, id := range ids {
		if err := tb.Update(id, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewString("edited")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	clock.Publish()
	if n, _ := tb.Evict(clock.Current(), 1<<30); n != len(ids) {
		t.Fatalf("eviction took %d new heads, want %d", n, len(ids))
	}
	_, _, before := tb.ColdStats()
	if rec, _ := tb.GC(clock.Current()); rec != len(ids) {
		t.Fatalf("GC reclaimed %d versions, want %d", rec, len(ids))
	}
	if _, _, after := tb.ColdStats(); after != before {
		t.Fatalf("the sweep read %d rows from the cold store", after-before)
	}
	for c := int64(0); c < 3; c++ {
		if got := len(lookupIDs(tb, tb.IndexByName("by_candidate"), types.Row{types.NewInt(c)})); got != (16+2-int(c))/3 {
			t.Fatalf("candidate %d: %d rows after the sweep", c, got)
		}
	}
}
