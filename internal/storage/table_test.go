package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/types"
)

func votesSchema(t testing.TB) *types.Schema {
	t.Helper()
	s, err := types.NewSchema("votes",
		[]types.Column{
			{Name: "phone", Type: types.TypeInt, NotNull: true},
			{Name: "candidate", Type: types.TypeInt, NotNull: true},
			{Name: "note", Type: types.TypeString},
		},
		[]string{"phone"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertGetScan(t *testing.T) {
	tb := NewTable(votesSchema(t))
	if tb.Name() != "votes" || tb.PrimaryIndex() == nil {
		t.Fatal("table basics")
	}
	var ids []RowID
	for i := 0; i < 10; i++ {
		id, err := tb.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.Null}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if tb.Count() != 10 {
		t.Fatalf("Count = %d", tb.Count())
	}
	r, ok := tb.Get(ids[4])
	if !ok || r[0].Int() != 4 {
		t.Fatalf("Get: %v %v", r, ok)
	}
	// Scan preserves insertion order.
	var seen []int64
	tb.Scan(func(_ RowID, row types.Row) bool {
		seen = append(seen, row[0].Int())
		return true
	})
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order broken: %v", seen)
		}
	}
	// Early stop.
	n := 0
	tb.Scan(func(RowID, types.Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop: n=%d", n)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	tb := NewTable(votesSchema(t))
	mustInsert(t, tb, 5, 1)
	if _, err := tb.Insert(types.Row{types.NewInt(5), types.NewInt(2), types.Null}, nil); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	if tb.Count() != 1 {
		t.Fatal("failed insert mutated table")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tb := NewTable(votesSchema(t))
	id := mustInsert(t, tb, 1, 10)
	if err := tb.Update(id, types.Row{types.NewInt(1), types.NewInt(20), types.Null}, nil); err != nil {
		t.Fatal(err)
	}
	r, _ := tb.Get(id)
	if r[1].Int() != 20 {
		t.Fatalf("update lost: %v", r)
	}
	if err := tb.Delete(id, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Get(id); ok {
		t.Fatal("row still visible after delete")
	}
	if err := tb.Delete(id, nil); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := tb.Update(id, types.Row{types.NewInt(1), types.NewInt(1), types.Null}, nil); err == nil {
		t.Fatal("update of deleted row accepted")
	}
}

func TestUpdatePKCollision(t *testing.T) {
	tb := NewTable(votesSchema(t))
	mustInsert(t, tb, 1, 10)
	id2 := mustInsert(t, tb, 2, 20)
	err := tb.Update(id2, types.Row{types.NewInt(1), types.NewInt(20), types.Null}, nil)
	if err == nil {
		t.Fatal("pk collision via update accepted")
	}
	// Same-key update is fine.
	if err := tb.Update(id2, types.Row{types.NewInt(2), types.NewInt(99), types.Null}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	tb := NewTable(votesSchema(t))
	ix, err := tb.CreateIndex("by_candidate", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustInsert(t, tb, int64(i), int64(i%3))
	}
	ids := lookupIDs(tb, ix, types.Row{types.NewInt(1)})
	if len(ids) != 10 {
		t.Fatalf("lookup candidate=1: %d ids", len(ids))
	}
	// Delete all candidate-1 rows; index must drain.
	for _, id := range ids {
		if err := tb.Delete(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(lookupIDs(tb, ix, types.Row{types.NewInt(1)})) != 0 {
		t.Fatal("index retains deleted rows")
	}
	// Update moves rows between keys.
	ids0 := lookupIDs(tb, ix, types.Row{types.NewInt(0)})
	r, _ := tb.Get(ids0[0])
	if err := tb.Update(ids0[0], types.Row{r[0], types.NewInt(2), r[2]}, nil); err != nil {
		t.Fatal(err)
	}
	ids2 := lookupIDs(tb, ix, types.Row{types.NewInt(2)})
	if len(ids2) != 11 {
		t.Fatalf("index not updated on key change: %d", len(ids2))
	}
}

func TestCreateIndexBackfillsAndRejectsDupes(t *testing.T) {
	tb := NewTable(votesSchema(t))
	for i := 0; i < 5; i++ {
		mustInsert(t, tb, int64(i), 7)
	}
	ix, err := tb.CreateIndex("by_candidate", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ids := lookupIDs(tb, ix, types.Row{types.NewInt(7)}); len(ids) != 5 {
		t.Fatalf("backfill: %d", len(ids))
	}
	if _, err := tb.CreateIndex("by_candidate", []int{1}, false); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if _, err := tb.CreateIndex("uniq_candidate", []int{1}, true); err == nil {
		t.Fatal("unique backfill over duplicates accepted")
	}
	if _, err := tb.CreateIndex("bad", []int{9}, false); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if tb.IndexByName("by_candidate") == nil || tb.IndexByName("nope") != nil {
		t.Fatal("IndexByName")
	}
}

func TestRangeScan(t *testing.T) {
	tb := NewTable(votesSchema(t))
	for i := 0; i < 20; i++ {
		mustInsert(t, tb, int64(i), int64(19-i))
	}
	ix := tb.IndexByName("votes_pkey")
	var keys []int64
	tb.Range(ix, types.Row{types.NewInt(5)}, types.Row{types.NewInt(9)},
		func(k types.Row, _ RowID, _ types.Row) bool {
			keys = append(keys, k[0].Int())
			return true
		})
	want := []int64{5, 6, 7, 8, 9}
	if len(keys) != len(want) {
		t.Fatalf("range = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range = %v", keys)
		}
	}
	// Unbounded scans.
	n := 0
	tb.Range(ix, nil, nil, func(types.Row, RowID, types.Row) bool { n++; return true })
	if n != 20 {
		t.Fatalf("full range n=%d", n)
	}
}

func TestCompaction(t *testing.T) {
	tb := NewTable(votesSchema(t))
	var ids []RowID
	for i := 0; i < 1000; i++ {
		ids = append(ids, mustInsert(t, tb, int64(i), 0))
	}
	tb.Clock().Publish()
	for i := 0; i < 900; i++ {
		// Each delete commits (publishes) so the watermark advances and the
		// inline sweep can reclaim — the multi-version analogue of tombstone
		// compaction.
		if err := tb.Delete(ids[i], nil); err != nil {
			t.Fatal(err)
		}
		tb.Clock().Publish()
	}
	if len(tb.slots()) > 300 {
		t.Fatalf("compaction did not run: %d slots for %d rows", len(tb.slots()), tb.Count())
	}
	// Order still correct after compaction.
	var seen []int64
	tb.Scan(func(_ RowID, r types.Row) bool { seen = append(seen, r[0].Int()); return true })
	for i, v := range seen {
		if v != int64(900+i) {
			t.Fatalf("post-compaction order: %v", seen[:5])
		}
	}
	// Get by id still works.
	if _, ok := tb.Get(ids[950]); !ok {
		t.Fatal("Get broken after compaction")
	}
}

func TestTruncate(t *testing.T) {
	tb := NewTable(votesSchema(t))
	for i := 0; i < 10; i++ {
		mustInsert(t, tb, int64(i), 0)
	}
	undo := NewUndoLog()
	tb.Truncate(undo)
	if tb.Count() != 0 {
		t.Fatal("truncate left rows")
	}
	undo.Rollback()
	if tb.Count() != 10 {
		t.Fatal("truncate rollback failed")
	}
}

// TestTableIndexEquivalence drives random mutations and checks that every
// index agrees exactly with a brute-force model of the table.
func TestTableIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema, err := types.NewSchema("t",
		[]types.Column{
			{Name: "k", Type: types.TypeInt, NotNull: true},
			{Name: "v", Type: types.TypeInt, NotNull: true},
		}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(schema)
	sec, err := tb.CreateIndex("by_v", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{} // k -> v
	idOf := map[int64]RowID{}
	for step := 0; step < 5000; step++ {
		k := rng.Int63n(50)
		v := rng.Int63n(10)
		switch rng.Intn(3) {
		case 0: // insert
			id, err := tb.Insert(types.Row{types.NewInt(k), types.NewInt(v), types.Null}[:2], nil)
			if _, exists := model[k]; exists {
				if err == nil {
					t.Fatalf("step %d: dup insert k=%d accepted", step, k)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert: %v", step, err)
				}
				model[k] = v
				idOf[k] = id
			}
		case 1: // delete
			if id, ok := idOf[k]; ok {
				if err := tb.Delete(id, nil); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(model, k)
				delete(idOf, k)
			}
		case 2: // update value
			if id, ok := idOf[k]; ok {
				if err := tb.Update(id, types.Row{types.NewInt(k), types.NewInt(v)}, nil); err != nil {
					t.Fatalf("step %d: update: %v", step, err)
				}
				model[k] = v
			}
		}
	}
	// Verify.
	if tb.Count() != len(model) {
		t.Fatalf("count %d != model %d", tb.Count(), len(model))
	}
	for k, v := range model {
		ids := lookupIDs(tb, tb.PrimaryIndex(), types.Row{types.NewInt(k)})
		if len(ids) != 1 {
			t.Fatalf("pk lookup k=%d = %v", k, ids)
		}
		r, _ := tb.Get(ids[0])
		if r[1].Int() != v {
			t.Fatalf("k=%d v=%d want %d", k, r[1].Int(), v)
		}
	}
	// Secondary index agrees with a per-value count.
	counts := map[int64]int{}
	for _, v := range model {
		counts[v]++
	}
	for v, want := range counts {
		ids := lookupIDs(tb, sec, types.Row{types.NewInt(v)})
		if len(ids) != want {
			t.Fatalf("sec v=%d: %d ids want %d", v, len(ids), want)
		}
	}
	n := 0
	tb.Range(sec, nil, nil, func(types.Row, RowID, types.Row) bool { n++; return true })
	if n != len(model) {
		t.Fatalf("sec range saw %d rows want %d", n, len(model))
	}
}

// TestDeleteUnderOneKeyAllocatesLinearly: every row of the table is indexed
// under one key of a non-unique index (votes_by_contestant, kv_by_grp), and
// deleting them all, with its undo and rollback, allocates at most 64 B per
// row, because a delete does not touch the index. The pass measured is the
// second, so the undo log's own growth (~105 B per row) is not counted. A
// delete that copied the key's ref list to stamp one ref dead cost 24 B × N
// per row: 96 MB here. Committing the deletes and sweeping them allocates
// linearly too: a sweep that erased the ids one at a time would copy the
// key's list once per id, 64 MB here.
func TestDeleteUnderOneKeyAllocatesLinearly(t *testing.T) {
	const n = 4000
	tb := NewTable(votesSchema(t))
	if _, err := tb.CreateIndex("by_candidate", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	ids := make([]RowID, n)
	for i := range ids {
		ids[i] = mustInsert(t, tb, int64(i), 7)
	}
	tb.Clock().Publish()
	undo := NewUndoLog()
	deleteAll := func() {
		for _, id := range ids {
			if err := tb.Delete(id, undo); err != nil {
				t.Fatal(err)
			}
		}
		undo.Rollback()
	}
	deleteAll()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deleteAll()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64*n {
		t.Fatalf("deleting and reviving %d rows under one key allocated %d bytes (%d per row)", n, got, got/n)
	}
	if live := lookupIDs(tb, tb.IndexByName("by_candidate"), types.Row{types.NewInt(7)}); len(live) != n {
		t.Fatalf("after rollback %d of %d rows are live under the key", len(live), n)
	}
	for _, id := range ids[:n-1] {
		if err := tb.Delete(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.Clock().Publish()
	runtime.ReadMemStats(&before)
	tb.GC(tb.Clock().Current())
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256*n {
		t.Fatalf("sweeping %d rows deleted under one key allocated %d bytes (%d per row)", n, got, got/n)
	}
	if entries := tb.IndexByName("by_candidate").sl.lookup(types.Row{types.NewInt(7)}, nil); len(entries) != 1 || entries[0] != ids[n-1] {
		t.Fatalf("after the sweep the key holds %v, want only %d", entries, ids[n-1])
	}
}

// TestStoredRowFootprint pins what a stored row costs the heap, on the kv
// benchmark's shape (three BIGINTs and a VARCHAR under a primary key and
// a 1 000-group secondary index), its string bytes aside: the value array,
// the version that holds it, the slot, its directory pointer and both
// index entries. Measured 343 B; 414 B when a Value was 40 B, a version
// pointed at a separate payload object and the worker kept a RowID map.
func TestStoredRowFootprint(t *testing.T) {
	const n, maxBytes = 50000, 280.0
	schema := types.MustSchema("kv", []types.Column{
		{Name: "k", Type: types.TypeInt}, {Name: "grp", Type: types.TypeInt},
		{Name: "n", Type: types.TypeInt}, {Name: "v", Type: types.TypeString},
	}, []string{"k"})
	pad := types.NewString(strings.Repeat("x", 216)) // one string: its bytes are not the layout's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := NewTable(schema)
	if _, err := tb.CreateIndex("kv_by_grp", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if _, err := tb.Insert(types.Row{types.NewInt(i), types.NewInt(i % 1000), types.NewInt(0), pad}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.Clock().Publish()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.1f heap bytes per stored row", perRow)
	if perRow > maxBytes {
		t.Errorf("%.1f heap bytes per stored row, ceiling %.0f", perRow, maxBytes)
	}
	runtime.KeepAlive(tb)
}

// TestGCRetainedCountsStagedVersions: GC's retained count is the versions
// a sweep keeps, staged ones included, whether or not the table has dead
// versions to sweep.
func TestGCRetainedCountsStagedVersions(t *testing.T) {
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	var ids []RowID
	for k := int64(1); k <= 3; k++ {
		id, err := tb.Insert(voteRow(k, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	clock.Publish()
	for k := int64(10); k < 15; k++ {
		if _, err := tb.StageInsert(voteRow(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	versions, _ := tb.VersionStats()
	if _, retained := tb.GC(clock.Watermark()); retained != 8 || versions != 8 {
		t.Fatalf("3 live and 5 staged rows, no dead version: GC retained %d, VersionStats %d, want 8", retained, versions)
	}
	pin := clock.AcquireSnapshot()
	if err := tb.Update(ids[0], voteRow(1, 1), nil); err != nil {
		t.Fatal(err)
	}
	clock.Publish()
	if _, retained := tb.GC(clock.Watermark()); retained != 9 {
		t.Fatalf("and one pinned dead version: GC retained %d, want 9", retained)
	}
	clock.ReleaseSnapshot(pin)
}

func mustInsert(t testing.TB, tb *Table, phone, cand int64) RowID {
	t.Helper()
	id, err := tb.Insert(types.Row{types.NewInt(phone), types.NewInt(cand), types.Null}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func BenchmarkInsertPK(b *testing.B) {
	tb := NewTable(votesSchema(b))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(1), types.Null}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointLookup(b *testing.B) {
	tb := NewTable(votesSchema(b))
	for i := 0; i < 100000; i++ {
		_, _ = tb.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(1), types.Null}, nil)
	}
	pk := tb.PrimaryIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := types.Row{types.NewInt(int64(i % 100000))}
		found := 0
		tb.Lookup(pk, key, func(RowID, types.Row) bool { found++; return true })
		if found != 1 {
			b.Fatal("miss")
		}
	}
}

func ExampleTable_Scan() {
	schema := types.MustSchema("s", []types.Column{{Name: "x", Type: types.TypeInt}}, nil)
	tb := NewTable(schema)
	for i := 3; i > 0; i-- {
		_, _ = tb.Insert(types.Row{types.NewInt(int64(i))}, nil)
	}
	tb.Scan(func(_ RowID, r types.Row) bool {
		fmt.Println(r[0])
		return true
	})
	// Output:
	// 3
	// 2
	// 1
}
