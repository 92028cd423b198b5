package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// TestIndexReadsMatchVersionChain is the differential test of the single
// visibility rule: an index entry is a key and a RowID, and a read keeps a
// candidate only when the version it resolves carries the key. On a table
// with a unique and a non-unique index, three rotating pinned snapshots
// and a cold store, fixed seeds drive transactions of inserts, key and
// non-key updates and deletes with savepoint rollbacks and aborts, and
// between them GC, eviction and epoch advances. After every operation,
// each SnapshotLookup and SnapshotRange at every pinned sequence and the
// current one must equal a SnapshotScan filtered by key at that sequence,
// Table.Lookup and Table.Range must equal Scan filtered by key, and each
// index must hold exactly the (key, RowID) pairs of the versions in the
// chains.
func TestIndexReadsMatchVersionChain(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { indexDifferential(t, seed) })
	}
}

func indexDifferential(t *testing.T, seed int64) {
	const nKeys, nGroups = 24, 4
	txns := 300
	if testing.Short() {
		txns = 80
	}
	cs, err := coldstore.Open(filepath.Join(t.TempDir(), "cold.pages"), coldstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	tb := NewTable(types.MustSchema("t", []types.Column{
		{Name: "k", Type: types.TypeInt}, {Name: "g", Type: types.TypeInt}, {Name: "v", Type: types.TypeString},
	}, []string{"k"}))
	tb.AttachColdStore(cs)
	if _, err := tb.CreateIndex("t_by_g", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	clock := tb.Clock()
	rng := rand.New(rand.NewSource(seed))
	pins := []SnapPin{clock.AcquireSnapshot(), clock.AcquireSnapshot(), clock.AcquireSnapshot()}
	defer func() {
		for _, p := range pins {
			clock.ReleaseSnapshot(p)
		}
	}()
	type hit struct {
		key int64
		id  RowID
		row string
	}
	sorted := func(hs []hit) []hit {
		slices.SortFunc(hs, func(a, b hit) int {
			if a.key != b.key {
				return int(a.key - b.key)
			}
			if a.id != b.id {
				return int(a.id) - int(b.id)
			}
			return strings.Compare(a.row, b.row)
		})
		return hs
	}
	// filter keeps the rows whose column c lies in [lo, hi].
	filter := func(rows []hit, c int, lo, hi int64, all map[RowID]types.Row) []hit {
		var out []hit
		for _, h := range rows {
			if k := all[h.id][c].Int(); k >= lo && k <= hi {
				out = append(out, hit{key: k, id: h.id, row: h.row})
			}
		}
		return sorted(out)
	}
	check := func(step string) {
		t.Helper()
		seqs := []Seq{clock.Current()}
		for _, p := range pins {
			seqs = append(seqs, p.Seq())
		}
		for _, ix := range tb.Indexes() {
			c, n := ix.cols[0], int64(nKeys)
			if c == 1 {
				n = nGroups
			}
			lo := rng.Int63n(n+2) - 1
			hi := lo + rng.Int63n(n+2-lo)
			for _, seq := range seqs {
				var scanned []hit
				all := map[RowID]types.Row{}
				tb.SnapshotScan(seq, func(id RowID, row types.Row) bool {
					scanned = append(scanned, hit{id: id, row: row.String()})
					all[id] = row
					return true
				})
				for k := int64(-1); k <= n; k++ {
					var got []hit
					tb.SnapshotLookup(ix, intKey(k), seq, new(LookupBuf), func(id RowID, row types.Row) bool {
						got = append(got, hit{key: k, id: id, row: row.String()})
						return true
					})
					if want := filter(scanned, c, k, k, all); !slices.Equal(sorted(got), want) {
						t.Fatalf("%s: SnapshotLookup(%s, %d) at %d = %v, scan says %v", step, ix.Name(), k, seq, got, want)
					}
				}
				var got []hit
				_ = tb.SnapshotRange(ix, intKey(lo), intKey(hi), seq, func(key, row types.Row) bool {
					id := RowID(0)
					for rid, r := range all { // rows are distinct: k is the primary key
						if r.String() == row.String() {
							id = rid
						}
					}
					got = append(got, hit{key: key[0].Int(), id: id, row: row.String()})
					return true
				})
				if want := filter(scanned, c, lo, hi, all); !slices.Equal(sorted(got), want) {
					t.Fatalf("%s: SnapshotRange(%s, [%d,%d]) at %d = %v, scan says %v", step, ix.Name(), lo, hi, seq, got, want)
				}
			}
			// The writer view.
			var scanned []hit
			all := map[RowID]types.Row{}
			tb.Scan(func(id RowID, row types.Row) bool {
				scanned = append(scanned, hit{id: id})
				all[id] = row
				return true
			})
			for k := int64(-1); k <= n; k++ {
				var got []hit
				for _, id := range lookupIDs(tb, ix, intKey(k)) {
					got = append(got, hit{key: k, id: id})
				}
				if want := filter(scanned, c, k, k, all); !slices.Equal(sorted(got), want) {
					t.Fatalf("%s: Lookup(%s, %d) = %v, Scan says %v", step, ix.Name(), k, got, want)
				}
			}
			var got []hit
			tb.Range(ix, intKey(lo), intKey(hi), func(key types.Row, id RowID, _ types.Row) bool {
				got = append(got, hit{key: key[0].Int(), id: id})
				return true
			})
			if want := filter(scanned, c, lo, hi, all); !slices.Equal(sorted(got), want) {
				t.Fatalf("%s: Range(%s, [%d,%d]) = %v, Scan says %v", step, ix.Name(), lo, hi, got, want)
			}
			// Exactly the keys of the versions in the chains, each once.
			var entries, chains []hit
			ix.sl.scan(nil, nil, func(key types.Row, id RowID) bool {
				entries = append(entries, hit{key: key[0].Int(), id: id})
				return true
			})
			for _, s := range tb.slots() {
				for v := s.head.Load(); v != nil; v = v.next.Load() {
					if h := (hit{key: tb.resolveVersion(v.payload())[c].Int(), id: s.id}); !slices.Contains(chains, h) {
						chains = append(chains, h)
					}
				}
			}
			if !slices.Equal(sorted(entries), sorted(chains)) {
				t.Fatalf("%s: %s holds %v, the chains carry %v", step, ix.Name(), entries, chains)
			}
		}
	}

	randLive := func() (RowID, types.Row, bool) {
		var ids []RowID
		tb.Scan(func(id RowID, _ types.Row) bool { ids = append(ids, id); return true })
		if len(ids) == 0 {
			return 0, nil, false
		}
		id := ids[rng.Intn(len(ids))]
		row, _ := tb.Get(id)
		return id, row.Clone(), true
	}
	for txn := 0; txn < txns; txn++ {
		undo := NewUndoLog()
		mark := -1
		for op := rng.Intn(6) + 1; op > 0; op-- {
			step := fmt.Sprintf("txn %d op %d", txn, op)
			switch r := rng.Intn(20); {
			case r < 5:
				_, _ = tb.Insert(types.Row{types.NewInt(rng.Int63n(nKeys)), types.NewInt(rng.Int63n(nGroups)), types.NewString(step)}, undo)
			case r < 13:
				if id, row, ok := randLive(); ok {
					switch rng.Intn(3) {
					case 0:
						row[0] = types.NewInt(rng.Int63n(nKeys)) // may collide: refused, row untouched
					case 1:
						row[1] = types.NewInt(rng.Int63n(nGroups))
					}
					row[2] = types.NewString(step)
					_ = tb.Update(id, row, undo)
				}
			case r < 16:
				if id, _, ok := randLive(); ok {
					if err := tb.Delete(id, undo); err != nil {
						t.Fatal(err)
					}
				}
			case r < 18:
				mark = undo.Mark()
			default:
				if mark >= 0 {
					undo.RollbackTo(mark)
					mark = -1
				}
			}
			check(step)
		}
		if rng.Intn(5) == 0 {
			undo.Rollback()
		} else {
			clock.Publish()
			undo.Release()
		}
		if rng.Intn(3) == 0 {
			i := rng.Intn(len(pins))
			clock.ReleaseSnapshot(pins[i])
			pins[i] = clock.AcquireSnapshot()
		}
		wm := clock.Watermark()
		switch rng.Intn(4) {
		case 0:
			tb.GC(wm)
		case 1:
			tb.Evict(wm, 1<<30)
			tb.Evict(wm, 1<<30)
		case 2:
			tb.ReleaseColdFrees(wm)
			clock.Epochs().Advance()
		}
		check(fmt.Sprintf("after txn %d", txn))
	}
	if _, ev, _ := tb.ColdStats(); ev == 0 {
		t.Fatal("nothing was ever evicted")
	}
}

// BenchmarkGCSweep is one sweep of a 100 000-row kv-shaped table (a
// primary key and a 1 000-group secondary index) after 1 000 non-key
// updates: the cost of collecting what a run of kv puts leaves behind.
func BenchmarkGCSweep(b *testing.B) {
	const rows, updates = 100000, 1000
	tb := NewTable(types.MustSchema("kv", []types.Column{
		{Name: "k", Type: types.TypeInt}, {Name: "grp", Type: types.TypeInt},
		{Name: "n", Type: types.TypeInt}, {Name: "v", Type: types.TypeString},
	}, []string{"k"}))
	if _, err := tb.CreateIndex("kv_by_grp", []int{1}, false); err != nil {
		b.Fatal(err)
	}
	kv := func(k, n int64) types.Row {
		return types.Row{types.NewInt(k), types.NewInt(k % 1000), types.NewInt(n), types.NewString("value")}
	}
	ids := make([]RowID, rows)
	for k := range ids {
		id, err := tb.Insert(kv(int64(k), 0), nil)
		if err != nil {
			b.Fatal(err)
		}
		ids[k] = id
	}
	clock := tb.Clock()
	clock.Publish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for u := 0; u < updates; u++ {
			k := (i*updates + u) * 97 % rows
			if err := tb.Update(ids[k], kv(int64(k), int64(i+1)), nil); err != nil {
				b.Fatal(err)
			}
		}
		clock.Publish()
		clock.Epochs().Advance() // the last sweep's versions go back to the pool
		b.StartTimer()
		if rec, _ := tb.GC(clock.Current()); rec != updates {
			b.Fatalf("swept %d versions, want %d", rec, updates)
		}
	}
}
