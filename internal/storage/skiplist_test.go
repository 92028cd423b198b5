package storage

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/types"
)

func intKey(i int64) types.Row { return types.Row{types.NewInt(i)} }

func TestSkiplistInsertLookupRemove(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i++ {
		if !sl.insert(intKey(i), RowID(i+1), 1, true) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if sl.length != 100 {
		t.Fatalf("length %d", sl.length)
	}
	if sl.insert(intKey(50), 999, 2, true) {
		t.Fatal("unique violation accepted")
	}
	if ids := sl.lookupAt(intKey(50), SeqInf, nil); len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("lookup: %v", ids)
	}
	if !sl.remove(intKey(50), 51, 2) {
		t.Fatal("remove failed")
	}
	if sl.remove(intKey(50), 51, 3) {
		t.Fatal("double remove succeeded")
	}
	// Writer view no longer sees the entry; a snapshot below the death
	// sequence still does, until GC passes the watermark.
	if ids := sl.lookupAt(intKey(50), SeqInf, nil); ids != nil {
		t.Fatal("lookup after remove")
	}
	if ids := sl.lookupAt(intKey(50), 1, nil); len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("snapshot lookup after remove: %v", ids)
	}
	sl.gc(2)
	if ids := sl.lookupAt(intKey(50), 1, nil); ids != nil {
		t.Fatalf("snapshot lookup after gc: %v", ids)
	}
	if sl.length != 99 {
		t.Fatalf("length after gc %d", sl.length)
	}
}

func TestSkiplistDuplicateKeysNonUnique(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := 0; i < 5; i++ {
		if !sl.insert(intKey(7), RowID(i+1), 1, false) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if ids := sl.lookupAt(intKey(7), SeqInf, nil); len(ids) != 5 {
		t.Fatalf("dup ids: %v", ids)
	}
	if sl.length != 1 {
		t.Fatalf("distinct keys: %d", sl.length)
	}
	// remove one id at a time; wrong id is a no-op
	if sl.remove(intKey(7), 99, 2) {
		t.Fatal("removed phantom id")
	}
	for i := 0; i < 5; i++ {
		if !sl.remove(intKey(7), RowID(i+1), 2) {
			t.Fatal("remove")
		}
	}
	if ids := sl.lookupAt(intKey(7), SeqInf, nil); ids != nil {
		t.Fatalf("live ids after drain: %v", ids)
	}
	sl.gc(2)
	if sl.length != 0 {
		t.Fatal("key not drained after gc")
	}
}

// TestSkiplistMatchesSortedSlice is a property test: after a random mix of
// inserts and deletes, a full scan must equal the sorted model exactly.
func TestSkiplistMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sl := newSkiplist(NewEpochManager())
	model := map[int64]bool{}
	for step := 0; step < 20000; step++ {
		k := rng.Int63n(500)
		seq := Seq(step + 1)
		if model[k] {
			if !sl.remove(intKey(k), RowID(k+1), seq) {
				t.Fatalf("step %d: remove %d failed", step, k)
			}
			delete(model, k)
		} else {
			if !sl.insert(intKey(k), RowID(k+1), seq, true) {
				t.Fatalf("step %d: insert %d refused", step, k)
			}
			model[k] = true
		}
		if step%4096 == 0 {
			sl.gc(seq) // everything is "committed" in this model
		}
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	sl.scanAt(nil, nil, SeqInf, func(k types.Row, _ RowID) bool {
		got = append(got, k[0].Int())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan %d keys want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %d want %d", i, got[i], want[i])
		}
	}
}

func TestSkiplistBoundedScan(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i += 2 { // evens only
		_ = sl.insert(intKey(i), RowID(i+1), 1, true)
	}
	var got []int64
	// lo falls between keys; hi is exact
	sl.scanAt(intKey(13), intKey(20), SeqInf, func(k types.Row, _ RowID) bool {
		got = append(got, k[0].Int())
		return true
	})
	want := []int64{14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	// early stop
	n := 0
	sl.scanAt(nil, nil, SeqInf, func(types.Row, RowID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop n=%d", n)
	}
}

// TestIndexEntryFootprint pins what indexing one BIGINT key costs: the
// allocations and the heap bytes per entry, against committed ceilings
// (before the single-allocation entry: 4 allocations and ~320 B). The
// bytes the index reports for itself must agree with the heap's.
func TestIndexEntryFootprint(t *testing.T) {
	const n = 50000
	const maxAllocs, maxBytes = 1.05, 90.0
	ix := newIndex("fp", []int{0}, true, NewEpochManager())
	next := int64(0)
	row := types.Row{types.NewInt(0), types.NewInt(0)}
	insert := func() {
		var kb keyBuf
		row[0] = types.NewInt(next * 7919 % n)
		if !ix.insert(ix.keyOf(row, &kb), RowID(next+1), 1) {
			t.Fatalf("insert %d refused", next)
		}
		next++
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(n-1, insert) // n inserts: one warm-up run
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ix.Len() != n {
		t.Fatalf("index holds %d keys, want %d", ix.Len(), n)
	}
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.2f allocations and %.1f heap bytes per entry; index reports %.1f", allocs, perEntry, float64(ix.sl.bytes.Load())/n)
	if allocs > maxAllocs {
		t.Errorf("%.2f allocations per entry, ceiling %.2f", allocs, maxAllocs)
	}
	if perEntry > maxBytes {
		t.Errorf("%.1f heap bytes per entry, ceiling %.1f", perEntry, maxBytes)
	}
	if rep := float64(ix.sl.bytes.Load()) / n; rep < 0.9*perEntry || rep > 1.1*perEntry {
		t.Errorf("index reports %.1f bytes per entry, the heap says %.1f", rep, perEntry)
	}
	runtime.KeepAlive(ix)
}

// levelSeed returns a generator state whose next draw is exactly lvl, so a
// test can put a key at a chosen height (the natural draw reaches the
// 24-lane class once in ~16 000 keys). Levels up to 13 are in reach of the
// search.
func levelSeed(t testing.TB, lvl int) uint64 {
	t.Helper()
	probe := skiplist{}
	for seed := uint64(1); seed < 1<<26; seed++ {
		probe.rng = seed
		if probe.randLevel() == lvl {
			return seed
		}
	}
	t.Fatalf("no generator state draws level %d", lvl)
	return 0
}

// slModel is the reference the differential test compares against: per
// key, the refs in arrival order, under the rules index.go documents.
type slModel map[int64][]ixRef

func (m slModel) scan(lo, hi int64, seq Seq) (out [][2]int64) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		for _, r := range m[k] {
			if r.seenAt(seq) {
				out = append(out, [2]int64{k, int64(r.id)})
			}
		}
	}
	return out
}

// TestSkiplistMatchesReferenceModel drives random insert / remove /
// eraseLive / revive / gc sequences, with keys forced through every
// height class, and after each step batch compares bounded and unbounded
// scans (writer view and past sequences), point lookups and the key count
// with the model.
func TestSkiplistMatchesReferenceModel(t *testing.T) {
	const nKeys = 300
	seeds := map[int]uint64{}
	for _, lvl := range []int{1, 2, 3, 4, 7, 8, 12} {
		seeds[lvl] = levelSeed(t, lvl)
	}
	levels := []int{1, 1, 1, 2, 3, 4, 7, 8, 12}
	rng := rand.New(rand.NewSource(11))
	em := NewEpochManager()
	sl := newSkiplist(em)
	model := slModel{}
	var classes [len(slClasses)]int
	seq := Seq(1)

	check := func(step int) {
		t.Helper()
		lo, hi := rng.Int63n(nKeys), rng.Int63n(nKeys)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, at := range []Seq{SeqInf, seq, Seq(rng.Int63n(int64(seq)) + 1)} {
			for _, b := range [][2]int64{{0, nKeys}, {lo, hi}} {
				var got [][2]int64
				loK, hiK := intKey(b[0]), intKey(b[1])
				if b[0] == 0 {
					loK = nil // unbounded below
				}
				sl.scanAt(loK, hiK, at, func(k types.Row, id RowID) bool {
					got = append(got, [2]int64{k[0].Int(), int64(id)})
					return true
				})
				if want := model.scan(b[0], b[1], at); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: scan [%d,%d] at %d:\n got  %v\n want %v", step, b[0], b[1], at, got, want)
				}
			}
		}
		k := rng.Int63n(nKeys)
		var want []RowID
		for _, p := range model.scan(k, k, seq) {
			want = append(want, RowID(p[1]))
		}
		if got := sl.lookupAt(intKey(k), seq, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: lookupAt(%d, %d) = %v want %v", step, k, seq, got, want)
		}
		if sl.length != len(model) {
			t.Fatalf("step %d: %d keys linked, model has %d", step, sl.length, len(model))
		}
	}

	for step := 0; step < 30000; step++ {
		k := rng.Int63n(nKeys)
		id := RowID(rng.Intn(3) + 1)
		refs := model[k]
		switch op := rng.Intn(10); {
		case op < 4: // insert
			unique := rng.Intn(2) == 0
			_, present := model[k]
			sl.rng = seeds[levels[rng.Intn(len(levels))]]
			ok := sl.insert(intKey(k), id, seq, unique)
			if want := !(unique && liveRef(refs) >= 0); ok != want {
				t.Fatalf("step %d: insert(%d, unique=%v) = %v", step, k, unique, ok)
			}
			if ok {
				model[k] = append(refs[:len(refs):len(refs)], ixRef{id: id, born: seq, dead: SeqInf})
			}
			if ok && !present {
				var update [maxLevel]*slNode
				classes[sl.find(intKey(k), &update).class]++
			}
		case op < 6: // remove
			j := findRef(refs, id)
			if ok := sl.remove(intKey(k), id, seq); ok != (j >= 0) {
				t.Fatalf("step %d: remove(%d, %d) = %v", step, k, id, ok)
			}
			if j >= 0 {
				refs[j].dead = seq
			}
		case op < 7: // eraseLive
			j := findRef(refs, id)
			if ok := sl.eraseLive(intKey(k), id); ok != (j >= 0) {
				t.Fatalf("step %d: eraseLive(%d, %d) = %v", step, k, id, ok)
			}
			if j >= 0 {
				if model[k] = append(refs[:j:j], refs[j+1:]...); len(model[k]) == 0 {
					delete(model, k)
				}
			}
		case op < 8: // revive a ref some earlier step stamped
			dead := Seq(rng.Int63n(int64(seq)) + 1)
			if len(refs) > 0 {
				dead = refs[rng.Intn(len(refs))].dead
			}
			j := reviveRef(refs, id, dead)
			if dead == SeqInf {
				j = -1 // nothing to revive: skip, a live ref "revives" as a no-op
			} else if ok := sl.revive(intKey(k), id, dead); ok != (j >= 0) {
				t.Fatalf("step %d: revive(%d, %d, %d) = %v", step, k, id, dead, ok)
			}
			if j >= 0 {
				refs[j].dead = SeqInf
			}
		case op < 9:
			seq++
		default: // gc below a random watermark, then let reuse happen
			wm := Seq(rng.Int63n(int64(seq)) + 1)
			sl.gc(wm)
			for k, refs := range model {
				kept := refs[:0:0]
				for _, r := range refs {
					if r.dead > wm {
						kept = append(kept, r)
					}
				}
				if model[k] = kept; len(kept) == 0 {
					delete(model, k)
				}
			}
			em.Advance()
		}
		if step%25 == 0 {
			check(step)
		}
	}
	check(-1)
	for c, n := range classes {
		if n == 0 {
			t.Errorf("no key ever landed in height class %d (%d lanes)", c, slClasses[c].lanes)
		}
	}
	if _, _, retired, reused := em.Stats(); retired == 0 || reused == 0 {
		t.Errorf("retired %d nodes, %d returned to the pools: reuse never exercised", retired, reused)
	}
}

// TestSkiplistReaderOnUnlinkedTallNode: a reader parked on a tall node
// keeps a whole node — key, refs, every lane — while the writer unlinks
// it, fails to advance past the reader, and inserts more keys of the same
// class (which would take the node from the pool had it been freed). Once
// the reader leaves, two advances hand the node back scrubbed.
func TestSkiplistReaderOnUnlinkedTallNode(t *testing.T) {
	em := NewEpochManager()
	sl := newSkiplist(em)
	tall := levelSeed(t, 9)
	for k := int64(0); k < 64; k++ {
		if k%8 == 0 {
			sl.rng = tall
		}
		sl.insert(intKey(k), RowID(k+1), 1, true)
	}
	g := em.Enter()
	var update [maxLevel]*slNode
	n := sl.find(intKey(32), &update)
	if n == nil || slClasses[n.class].lanes != maxLevel {
		t.Fatalf("key 32 is not on a 24-lane node: %+v", n)
	}
	sl.eraseLive(intKey(32), 33) // empties and unlinks it
	for k := int64(100); k < 140; k++ {
		em.Advance() // 0->1 passes; 1->2 must stall on the reader
		sl.rng = tall
		sl.insert(intKey(k), RowID(k+1), 2, true)
	}
	if em.Epoch() != 1 || em.PendingRetired() != 1 {
		t.Fatalf("epoch %d, %d nodes pending: the parked reader was overrun", em.Epoch(), em.PendingRetired())
	}
	if k := n.key(); len(k) != 1 || k[0].Int() != 32 {
		t.Fatalf("unlinked node's key rewritten under a reader: %v", k)
	}
	for lvl := 0; lvl < 9; lvl++ { // every lane still leads forward through the list
		last := int64(32)
		for x := n.lane(lvl).Load(); x != nil; x = x.lane(lvl).Load() {
			if k := x.key()[0].Int(); k <= last {
				t.Fatalf("lane %d of the unlinked node: key %d after %d", lvl, k, last)
			} else {
				last = k
			}
		}
		if lvl == 0 && last != 139 {
			t.Fatalf("lane 0 walk ended at %d, want the list's last key 139", last)
		}
	}
	g.Exit()
	if !em.Advance() || !em.Advance() {
		t.Fatal("advance stalled with the reader gone")
	}
	if n.kp != nil || n.lane(8).Load() != nil || em.PendingRetired() != 0 {
		t.Fatal("retired node not scrubbed after its grace period")
	}
}
