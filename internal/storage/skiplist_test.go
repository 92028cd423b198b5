package storage

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/types"
)

func intKey(i int64) types.Row { return types.Row{types.NewInt(i)} }

// add enters (key, id) the way Table.enter does for a key that may hold
// id already: a new node, or a push unless id is there.
func (s *skiplist) add(key types.Row, id RowID) {
	if n := s.insert(key, id); n != nil {
		var one [1]RowID
		if !slices.Contains(n.ids(&one), id) {
			s.push(n, id)
		}
	}
}

func TestSkiplistInsertLookupRemove(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i++ {
		if n := sl.insert(intKey(i), RowID(i+1)); n != nil {
			t.Fatalf("insert %d met a node already linked", i)
		}
	}
	if sl.length != 100 {
		t.Fatalf("length %d", sl.length)
	}
	if n := sl.insert(intKey(50), 999); n == nil || n.key()[0].Int() != 50 {
		t.Fatal("insert under a linked key did not hand back its node")
	}
	if ids := sl.lookup(intKey(50), nil); len(ids) != 1 || ids[0] != 51 {
		t.Fatalf("lookup: %v", ids)
	}
	sl.erase(intKey(50), 51)
	sl.erase(intKey(50), 51) // a second erase finds nothing
	if ids := sl.lookup(intKey(50), nil); ids != nil {
		t.Fatalf("lookup after erase: %v", ids)
	}
	if sl.length != 99 {
		t.Fatalf("length after erase %d", sl.length)
	}
}

func TestSkiplistDuplicateKeysNonUnique(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := 0; i < 5; i++ {
		sl.add(intKey(7), RowID(i+1))
		sl.add(intKey(7), RowID(i+1)) // entering a pair twice keeps one
	}
	if ids := sl.lookup(intKey(7), nil); !reflect.DeepEqual(ids, []RowID{1, 2, 3, 4, 5}) {
		t.Fatalf("dup ids: %v", ids)
	}
	if sl.length != 1 {
		t.Fatalf("distinct keys: %d", sl.length)
	}
	sl.erase(intKey(7), 99) // a phantom id is a no-op
	for i := 0; i < 5; i++ {
		if ids := sl.lookup(intKey(7), nil); len(ids) != 5-i {
			t.Fatalf("after %d erases: %v", i, ids)
		}
		sl.erase(intKey(7), RowID(i+1))
	}
	if sl.length != 0 || sl.bytes.Load() != 0 {
		t.Fatalf("key not drained: %d keys, %d bytes", sl.length, sl.bytes.Load())
	}
}

// TestSkiplistMatchesSortedSlice is a property test: after a random mix of
// inserts and erases, a full scan must equal the sorted model exactly.
func TestSkiplistMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	em := NewEpochManager()
	sl := newSkiplist(em)
	model := map[int64]bool{}
	for step := 0; step < 20000; step++ {
		k := rng.Int63n(500)
		if model[k] {
			sl.erase(intKey(k), RowID(k+1))
			delete(model, k)
		} else {
			if n := sl.insert(intKey(k), RowID(k+1)); n != nil {
				t.Fatalf("step %d: insert %d met a linked node", step, k)
			}
			model[k] = true
		}
		if step%4096 == 0 {
			em.Advance() // let erased nodes come back from the pools
		}
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	sl.scan(nil, nil, func(k types.Row, _ RowID) bool {
		got = append(got, k[0].Int())
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan %v\nwant %v", got, want)
	}
}

func TestSkiplistBoundedScan(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	for i := int64(0); i < 100; i += 2 { // evens only
		sl.insert(intKey(i), RowID(i+1))
	}
	var got []int64
	// lo falls between keys; hi is exact
	sl.scan(intKey(13), intKey(20), func(k types.Row, _ RowID) bool {
		got = append(got, k[0].Int())
		return true
	})
	if want := []int64{14, 16, 18, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// early stop
	n := 0
	sl.scan(nil, nil, func(types.Row, RowID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop n=%d", n)
	}
}

// TestIndexEntryFootprint pins what indexing costs: the allocations and
// the heap bytes per unique BIGINT entry, against committed ceilings
// (83.8 B when every entry carried visibility stamps beside the key; ~320
// B and 4 allocations before the single-allocation entry), and the bytes
// a non-unique key's RowID list holds. The bytes the index reports for
// itself must agree with the heap's in both shapes.
func TestIndexEntryFootprint(t *testing.T) {
	heapDelta := func(build func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(after.HeapAlloc - before.HeapAlloc)
	}
	agree := func(what string, reported, heap float64) {
		t.Helper()
		if reported < 0.9*heap || reported > 1.1*heap {
			t.Errorf("%s: index reports %.0f bytes, the heap says %.0f", what, reported, heap)
		}
	}

	t.Run("unique", func(t *testing.T) {
		const n = 50000
		const maxAllocs, maxBytes = 1.05, 56.0
		ix := newIndex("fp", []int{0}, true, NewEpochManager())
		next := int64(0)
		row := types.Row{types.NewInt(0), types.NewInt(0)}
		insert := func() {
			var kb keyBuf
			row[0] = types.NewInt(next * 7919 % n)
			if ix.sl.insert(ix.keyOf(row, &kb), RowID(next+1)) != nil {
				t.Fatalf("insert %d met a linked node", next)
			}
			next++
		}
		var allocs float64
		heap := heapDelta(func() { allocs = testing.AllocsPerRun(n-1, insert) }) // n inserts: one warm-up run
		if ix.sl.length != n {
			t.Fatalf("index holds %d keys, want %d", ix.sl.length, n)
		}
		perEntry := heap / n
		t.Logf("%.2f allocations and %.1f heap bytes per entry; index reports %.1f", allocs, perEntry, float64(ix.sl.bytes.Load())/n)
		if allocs > maxAllocs {
			t.Errorf("%.2f allocations per entry, ceiling %.2f", allocs, maxAllocs)
		}
		if perEntry > maxBytes {
			t.Errorf("%.1f heap bytes per entry, ceiling %.1f", perEntry, maxBytes)
		}
		agree("unique", float64(ix.sl.bytes.Load()), heap)
		runtime.KeepAlive(ix)
	})

	t.Run("non-unique", func(t *testing.T) {
		const keys, refs = 1000, 50
		ix := newIndex("fp", []int{0}, false, NewEpochManager())
		heap := heapDelta(func() {
			for id := RowID(0); id < keys*refs; id++ {
				ix.sl.add(intKey(int64(id%keys)), id)
			}
		})
		t.Logf("%.1f heap bytes per key of %d refs; index reports %.1f", heap/keys, refs, float64(ix.sl.bytes.Load())/keys)
		agree("non-unique", float64(ix.sl.bytes.Load()), heap)
		runtime.KeepAlive(ix)
	})
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
// key, its RowIDs in arrival order.
type slModel map[int64][]RowID

func (m slModel) scan(lo, hi int64) (out [][2]int64) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		for _, id := range m[k] {
			out = append(out, [2]int64{k, int64(id)})
		}
	}
	return out
}

// TestSkiplistMatchesReferenceModel drives random sequences of entering
// and erasing (key, RowID) pairs — a pair entered twice is kept once —
// with keys forced through every height class and erased nodes coming back
// from the pools, and after each step batch compares bounded and unbounded
// scans, point lookups, the key count and the bytes the list reports
// (nodes plus RowID lists) with the model.
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

	check := func(step int) {
		t.Helper()
		lo, hi := rng.Int63n(nKeys), rng.Int63n(nKeys)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, b := range [][2]int64{{0, nKeys}, {lo, hi}} {
			var got [][2]int64
			loK, hiK := intKey(b[0]), intKey(b[1])
			if b[0] == 0 {
				loK = nil // unbounded below
			}
			sl.scan(loK, hiK, func(k types.Row, id RowID) bool {
				got = append(got, [2]int64{k[0].Int(), int64(id)})
				return true
			})
			if want := model.scan(b[0], b[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: scan [%d,%d]:\n got  %v\n want %v", step, b[0], b[1], got, want)
			}
		}
		k := rng.Int63n(nKeys)
		if got := sl.lookup(intKey(k), nil); !reflect.DeepEqual(got, model[k]) {
			t.Fatalf("step %d: lookup(%d) = %v want %v", step, k, got, model[k])
		}
		if sl.length != len(model) {
			t.Fatalf("step %d: %d keys linked, model has %d", step, sl.length, len(model))
		}
		var bytes int64
		for x := sl.head.lane(0).Load(); x != nil; x = x.lane(0).Load() {
			bytes += x.heapBytes() + listBytes(x.more.Load())
		}
		if got := sl.bytes.Load(); got != bytes {
			t.Fatalf("step %d: list reports %d bytes, its nodes and lists hold %d", step, got, bytes)
		}
	}

	for step := 0; step < 30000; step++ {
		k := rng.Int63n(nKeys)
		id := RowID(rng.Intn(4) + 1)
		switch op := rng.Intn(10); {
		case op < 5: // enter
			_, present := model[k]
			sl.rng = seeds[levels[rng.Intn(len(levels))]]
			sl.add(intKey(k), id)
			if !slices.Contains(model[k], id) {
				model[k] = append(model[k][:len(model[k]):len(model[k])], id)
			}
			if !present {
				var update [maxLevel]*slNode
				classes[sl.find(intKey(k), &update).class]++
			}
		case op < 9: // erase
			sl.erase(intKey(k), id)
			if j := slices.Index(model[k], id); j >= 0 {
				if model[k] = slices.Delete(slices.Clone(model[k]), j, j+1); len(model[k]) == 0 {
					delete(model, k)
				}
			}
		default: // let erased nodes come back from the pools
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
// keeps a whole node — key, RowIDs, every lane — while the writer unlinks
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
		sl.insert(intKey(k), RowID(k+1))
	}
	g := em.Enter()
	var update [maxLevel]*slNode
	n := sl.find(intKey(32), &update)
	if n == nil || slClasses[n.class].lanes != maxLevel {
		t.Fatalf("key 32 is not on a 24-lane node: %+v", n)
	}
	sl.erase(intKey(32), 33) // empties and unlinks it
	for k := int64(100); k < 140; k++ {
		em.Advance() // 0->1 passes; 1->2 must stall on the reader
		sl.rng = tall
		sl.insert(intKey(k), RowID(k+1))
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
	if !n.k0.IsNull() || n.lane(8).Load() != nil || em.PendingRetired() != 0 {
		t.Fatal("retired node not scrubbed after its grace period")
	}
}

// TestSkiplistMultiColumnKey: a multi-column key lives in a private clone
// the node keeps alive; it orders, finds and scans like any key, and the
// caller's buffer can be reused at once.
func TestSkiplistMultiColumnKey(t *testing.T) {
	sl := newSkiplist(NewEpochManager())
	buf := make(types.Row, 3)
	for i := int64(0); i < 200; i++ {
		buf[0], buf[1], buf[2] = types.NewInt(i%7), types.NewString(string(rune('a'+i%26))), types.NewInt(i)
		sl.insert(buf, RowID(i+1))
	}
	runtime.GC()
	var last types.Row
	n := 0
	sl.scan(nil, nil, func(k types.Row, id RowID) bool {
		if len(k) != 3 || (last != nil && last.Compare(k) >= 0) || k[2].Int() != int64(id-1) {
			t.Fatalf("scan met %v (id %d) after %v", k, id, last)
		}
		last = k.Clone()
		n++
		return true
	})
	key := types.Row{types.NewInt(5), types.NewString("m"), types.NewInt(12)}
	if n != 200 || !reflect.DeepEqual(sl.lookup(key, nil), []RowID{13}) {
		t.Fatalf("scanned %d keys; lookup(%v) = %v", n, key, sl.lookup(key, nil))
	}
}
