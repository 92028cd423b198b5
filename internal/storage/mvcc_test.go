package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/types"
)

// snapshotRows and snapshotLookup collect what the callback readers emit.
func snapshotRows(tb *Table, seq Seq) []types.Row {
	var out []types.Row
	tb.SnapshotScan(seq, func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

func snapshotLookup(tb *Table, ix *Index, key types.Row, seq Seq) []types.Row {
	var out []types.Row
	tb.SnapshotLookup(ix, key, seq, new(LookupBuf), func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// lookupIDs collects the RowIDs the writer-view Lookup hands over.
func lookupIDs(tb *Table, ix *Index, key types.Row) []RowID {
	var ids []RowID
	tb.Lookup(ix, key, func(id RowID, _ types.Row) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

func voteRow(phone, cand int64) types.Row {
	return types.Row{types.NewInt(phone), types.NewInt(cand), types.Null}
}

// TestSnapshotVisibilityAcrossVersions walks one row through
// insert/update/delete and checks every published snapshot sees exactly
// its version — via scan, get, point lookup, and range scan.
func TestSnapshotVisibilityAcrossVersions(t *testing.T) {
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	pk := tb.PrimaryIndex()

	id, err := tb.Insert(voteRow(7, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	s0 := clock.Current() // before the insert published
	s1 := clock.Publish() // insert visible

	if err := tb.Update(id, voteRow(7, 2), nil); err != nil {
		t.Fatal(err)
	}
	s2 := clock.Publish() // update visible

	if err := tb.Delete(id, nil); err != nil {
		t.Fatal(err)
	}
	s3 := clock.Publish() // delete visible

	if _, ok := tb.SnapshotGet(id, s0); ok {
		t.Fatal("s0 sees unpublished insert")
	}
	if r, ok := tb.SnapshotGet(id, s1); !ok || r[1].Int() != 1 {
		t.Fatalf("s1: %v %v", r, ok)
	}
	if r, ok := tb.SnapshotGet(id, s2); !ok || r[1].Int() != 2 {
		t.Fatalf("s2: %v %v", r, ok)
	}
	if _, ok := tb.SnapshotGet(id, s3); ok {
		t.Fatal("s3 sees deleted row")
	}

	key := types.Row{types.NewInt(7)}
	if rows := snapshotLookup(tb, pk, key, s1); len(rows) != 1 || rows[0][1].Int() != 1 {
		t.Fatalf("lookup s1: %v", rows)
	}
	if rows := snapshotLookup(tb, pk, key, s3); len(rows) != 0 {
		t.Fatalf("lookup s3: %v", rows)
	}
	n := 0
	if err := tb.SnapshotRange(pk, nil, nil, s2, func(_, r types.Row) bool {
		n++
		if r[1].Int() != 2 {
			t.Fatalf("range s2 row: %v", r)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("range s2 rows: %d", n)
	}
	if got := len(snapshotRows(tb, s3)); got != 0 {
		t.Fatalf("rows at s3: %d", got)
	}
}

// TestSnapshotReaderSurvivesDeleteAndGC is the headline guarantee: a
// reader pinned before a delete keeps seeing the row through the delete,
// a GC sweep, and an index probe; after the pin drops the sweep reclaims.
func TestSnapshotReaderSurvivesDeleteAndGC(t *testing.T) {
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	id, _ := tb.Insert(voteRow(1, 9), nil)
	clock.Publish()

	pin := clock.AcquireSnapshot()
	s := pin.Seq()
	if err := tb.Delete(id, nil); err != nil {
		t.Fatal(err)
	}
	clock.Publish()

	// The pin holds the watermark: the sweep must keep the dead version.
	if rec, _ := tb.GC(clock.Watermark()); rec != 0 {
		t.Fatalf("GC reclaimed %d pinned versions", rec)
	}
	if r, ok := tb.SnapshotGet(id, s); !ok || r[1].Int() != 9 {
		t.Fatalf("pinned reader lost the row: %v %v", r, ok)
	}
	if rows := snapshotLookup(tb, tb.PrimaryIndex(), types.Row{types.NewInt(1)}, s); len(rows) != 1 {
		t.Fatalf("pinned index probe: %v", rows)
	}

	clock.ReleaseSnapshot(pin)
	rec, retained := tb.GC(clock.Watermark())
	if rec != 1 || retained != 0 {
		t.Fatalf("post-release GC: reclaimed=%d retained=%d", rec, retained)
	}
	if _, ok := tb.SnapshotGet(id, s); ok {
		t.Fatal("row readable after reclaim (stale pin misuse should find nothing)")
	}
	if n := tb.PrimaryIndex().sl.length; n != 0 {
		t.Fatalf("index kept %d keys after their last version went", n)
	}
}

// TestRollbackInvisibleToSnapshots aborts a multi-statement transaction
// and checks snapshots never saw it and the chains are stamp-free after.
func TestRollbackInvisibleToSnapshots(t *testing.T) {
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	idA, _ := tb.Insert(voteRow(1, 1), nil)
	tb.Insert(voteRow(2, 2), nil)
	s := clock.Publish()

	undo := NewUndoLog()
	if err := tb.Update(idA, voteRow(1, 5), undo); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(idA, voteRow(3, 6), undo); err != nil { // pk change too
		t.Fatal(err)
	}
	if err := tb.Delete(idA, undo); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(voteRow(9, 9), undo); err != nil {
		t.Fatal(err)
	}
	// Mid-transaction, the published snapshot sees none of it.
	if rows := snapshotRows(tb, s); len(rows) != 2 || rows[0][1].Int() != 1 {
		t.Fatalf("mid-txn snapshot: %v", rows)
	}
	undo.Rollback()

	if tb.Count() != 2 {
		t.Fatalf("count after rollback: %d", tb.Count())
	}
	if r, ok := tb.Get(idA); !ok || r[0].Int() != 1 || r[1].Int() != 1 {
		t.Fatalf("row A after rollback: %v %v", r, ok)
	}
	versions, dead := tb.VersionStats()
	if versions != 2 || dead != 0 {
		t.Fatalf("chains after rollback: versions=%d dead=%d", versions, dead)
	}
	if ids := lookupIDs(tb, tb.PrimaryIndex(), types.Row{types.NewInt(1)}); len(ids) != 1 {
		t.Fatalf("pk ref after rollback: %v", ids)
	}
	for _, k := range []int64{3, 9} { // the aborted key move and the aborted insert
		if ids := tb.PrimaryIndex().sl.lookup(types.Row{types.NewInt(k)}, nil); len(ids) != 0 {
			t.Fatalf("aborted transaction left index entry (%d, %v)", k, ids)
		}
	}
}

// TestSnapshotHammer is the -race workhorse: one writer (the "partition
// worker") mutates and publishes transactions — updates, delete+reinsert
// pairs, full truncate+refill, inline and explicit GC — while concurrent
// pinned readers continuously scan, probe, and range-read. Every reader
// must observe a consistent committed state: exactly nRows rows, distinct
// keys 0..nRows-1, and a per-snapshot-constant generation tag on every
// row.
func TestSnapshotHammer(t *testing.T) {
	nRows, nReaders, txns := 64, 8, 1200
	if testing.Short() {
		txns = 200
	}
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	pk := tb.PrimaryIndex()

	ids := make([]RowID, nRows)
	for i := 0; i < nRows; i++ {
		id, err := tb.Insert(voteRow(int64(i), 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	clock.Publish()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, nReaders)
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
				seen := make(map[int64]bool, nRows)
				gen := int64(-1)
				consistent := true
				tb.SnapshotScan(s, func(_ RowID, row types.Row) bool {
					k := row[0].Int()
					if seen[k] {
						consistent = false
						return false
					}
					seen[k] = true
					if gen == -1 {
						gen = row[1].Int()
					} else if row[1].Int() != gen {
						consistent = false
						return false
					}
					return true
				})
				if !consistent || len(seen) != nRows {
					clock.ReleaseSnapshot(pin)
					errs <- fmt.Errorf("reader: inconsistent snapshot at seq %d: %d rows consistent=%v", s, len(seen), consistent)
					return
				}
				if n := tb.SnapshotCount(s); n != nRows {
					clock.ReleaseSnapshot(pin)
					errs <- fmt.Errorf("reader: SnapshotCount at seq %d = %d, the scan saw %d", s, n, nRows)
					return
				}
				// Point probe and range probe agree with the scan.
				k := rng.Int63n(int64(nRows))
				if rows := snapshotLookup(tb, pk, types.Row{types.NewInt(k)}, s); len(rows) != 1 || rows[0][1].Int() != gen {
					clock.ReleaseSnapshot(pin)
					errs <- fmt.Errorf("reader: point probe key %d at seq %d: %v", k, s, rows)
					return
				}
				n := 0
				_ = tb.SnapshotRange(pk, types.Row{types.NewInt(0)}, types.Row{types.NewInt(int64(nRows - 1))}, s,
					func(_, row types.Row) bool {
						if row[1].Int() != gen {
							consistent = false
							return false
						}
						n++
						return true
					})
				clock.ReleaseSnapshot(pin)
				if !consistent || n != nRows {
					errs <- fmt.Errorf("reader: range probe at seq %d: n=%d consistent=%v", s, n, consistent)
					return
				}
			}
		}(int64(r) + 1)
	}

	// The single writer: every transaction bumps ALL rows to the same new
	// generation (so a consistent cut has one generation), by one of three
	// shapes; some abort halfway and must leave no trace.
	rng := rand.New(rand.NewSource(99))
	for txn := 1; txn <= txns; txn++ {
		gen := int64(txn)
		shape := rng.Intn(10)
		switch {
		case shape < 6: // update every row in place
			for i, id := range ids {
				if err := tb.Update(id, voteRow(int64(i), gen), nil); err != nil {
					t.Fatal(err)
				}
			}
		case shape < 8: // delete + reinsert every row (fresh RowIDs)
			for i, id := range ids {
				if err := tb.Delete(id, nil); err != nil {
					t.Fatal(err)
				}
				nid, err := tb.Insert(voteRow(int64(i), gen), nil)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = nid
			}
		default: // aborted mixed transaction: rollback, then a clean update
			undo := NewUndoLog()
			for i := 0; i < nRows/2; i++ {
				if err := tb.Delete(ids[i], undo); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.Update(ids[nRows-1], voteRow(int64(nRows-1), -gen), undo); err != nil {
				t.Fatal(err)
			}
			undo.Rollback()
			for i, id := range ids {
				if err := tb.Update(id, voteRow(int64(i), gen), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		clock.Publish()
		if txn%512 == 0 {
			tb.GC(clock.Watermark()) // the checkpoint-barrier sweep
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final sweep with no pins reclaims everything but the live set.
	_, retained := tb.GC(clock.Watermark())
	if retained != nRows {
		t.Fatalf("retained %d versions, want %d", retained, nRows)
	}
}

// TestRollbackKeyPingPongKeepsPinnedIndexView: an aborted transaction
// that moves an indexed key away and back repeatedly (A->B->A->B) must
// leave exactly the entry (A, id) behind — undo erases a key only when no
// version left in the chain carries it — so the committed row stays
// visible to pinned snapshots and to the writer, and B is gone. Exercises
// a unique (pk) and a non-unique index.
func TestRollbackKeyPingPongKeepsPinnedIndexView(t *testing.T) {
	tb := NewTable(votesSchema(t))
	if _, err := tb.CreateIndex("h", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	clock := tb.Clock()
	id, err := tb.Insert(voteRow(1, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.Publish()
	pin := clock.AcquireSnapshot()
	defer clock.ReleaseSnapshot(pin)

	undo := NewUndoLog()
	for i, key := range []int64{2, 1, 2} { // A->B, B->A, A->B
		if err := tb.Update(id, voteRow(key, 7+int64(i)), undo); err != nil {
			t.Fatal(err)
		}
	}
	undo.Rollback()

	key := types.Row{types.NewInt(1)}
	for _, ix := range []*Index{tb.PrimaryIndex(), tb.IndexByName("h")} {
		if rows := snapshotLookup(tb, ix, key, pin.Seq()); len(rows) != 1 || rows[0][1].Int() != 7 {
			t.Fatalf("index %q: pinned lookup after ping-pong rollback = %v", ix.Name(), rows)
		}
		if ids := lookupIDs(tb, ix, key); len(ids) != 1 {
			t.Fatalf("index %q: live refs = %v", ix.Name(), ids)
		}
		var entries [][2]int64
		ix.sl.scan(nil, nil, func(k types.Row, eid RowID) bool {
			entries = append(entries, [2]int64{k[0].Int(), int64(eid)})
			return true
		})
		if want := [][2]int64{{1, int64(id)}}; !reflect.DeepEqual(entries, want) {
			t.Fatalf("index %q: entries after ping-pong rollback = %v, want %v", ix.Name(), entries, want)
		}
	}
	// And after the aborted stamps, a fresh commit + GC leaves one clean ref.
	clock.Publish()
	tb.GC(clock.Watermark() /* == pin */)
	if rows := snapshotLookup(tb, tb.PrimaryIndex(), key, pin.Seq()); len(rows) != 1 {
		t.Fatal("pinned lookup lost the row after GC")
	}
}

// TestSnapshotScanChunkingStaysConsistent pushes a table past the chunked
// scan's re-lock boundary and checks a pinned scan, and a pinned count,
// still see exactly the pinned state while the writer mutates and GCs
// between chunks.
func TestSnapshotScanChunkingStaysConsistent(t *testing.T) {
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	n := snapshotScanChunk*2 + 17
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(voteRow(int64(i), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	clock.Publish()
	pin := clock.AcquireSnapshot()
	// Delete every third row and publish; the pinned scan must not notice.
	for i := 0; i < n; i += 3 {
		ids := lookupIDs(tb, tb.PrimaryIndex(), types.Row{types.NewInt(int64(i))})
		if err := tb.Delete(ids[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	clock.Publish()
	got := 0
	tb.SnapshotScan(pin.Seq(), func(_ RowID, _ types.Row) bool { got++; return true })
	if got != n || tb.SnapshotCount(pin.Seq()) != n {
		t.Fatalf("pinned chunked scan saw %d rows, count %d, want %d", got, tb.SnapshotCount(pin.Seq()), n)
	}
	clock.ReleaseSnapshot(pin)
	tb.GC(clock.Watermark())
	got = 0
	tb.SnapshotScan(clock.Current(), func(_ RowID, _ types.Row) bool { got++; return true })
	if want := n - (n+2)/3; got != want || tb.SnapshotCount(clock.Current()) != want || tb.Count() != want {
		t.Fatalf("post-GC scan saw %d rows, count %d, live %d, want %d", got, tb.SnapshotCount(clock.Current()), tb.Count(), want)
	}
}
