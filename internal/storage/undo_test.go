package storage

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

func TestUndoInsert(t *testing.T) {
	tb := NewTable(votesSchema(t))
	undo := NewUndoLog()
	_, err := tb.Insert(types.Row{types.NewInt(1), types.NewInt(2), types.Null}, undo)
	if err != nil {
		t.Fatal(err)
	}
	undo.Rollback()
	if tb.Count() != 0 {
		t.Fatal("insert not undone")
	}
	if n := tb.PrimaryIndex().sl.lookup(types.Row{types.NewInt(1)}, nil); n != nil {
		t.Fatal("index not undone")
	}
}

func TestUndoDeletePreservesRowID(t *testing.T) {
	tb := NewTable(votesSchema(t))
	id := mustInsert(t, tb, 1, 2)
	undo := NewUndoLog()
	if err := tb.Delete(id, undo); err != nil {
		t.Fatal(err)
	}
	undo.Rollback()
	r, ok := tb.Get(id)
	if !ok || r[0].Int() != 1 || r[1].Int() != 2 {
		t.Fatalf("delete not undone: %v %v", r, ok)
	}
}

func TestUndoUpdateRestoresImage(t *testing.T) {
	tb := NewTable(votesSchema(t))
	id := mustInsert(t, tb, 1, 2)
	undo := NewUndoLog()
	if err := tb.Update(id, types.Row{types.NewInt(1), types.NewInt(99), types.Null}, undo); err != nil {
		t.Fatal(err)
	}
	undo.Rollback()
	r, _ := tb.Get(id)
	if r[1].Int() != 2 {
		t.Fatalf("update not undone: %v", r)
	}
}

func TestUndoSavepoints(t *testing.T) {
	tb := NewTable(votesSchema(t))
	undo := NewUndoLog()
	mustInsertU(t, tb, undo, 1)
	mark := undo.Mark()
	mustInsertU(t, tb, undo, 2)
	mustInsertU(t, tb, undo, 3)
	undo.RollbackTo(mark)
	if tb.Count() != 1 {
		t.Fatalf("partial rollback: count=%d", tb.Count())
	}
	undo.Rollback()
	if tb.Count() != 0 {
		t.Fatalf("full rollback: count=%d", tb.Count())
	}
}

func TestUndoReleaseKeepsState(t *testing.T) {
	tb := NewTable(votesSchema(t))
	undo := NewUndoLog()
	mustInsertU(t, tb, undo, 1)
	undo.Release()
	undo.Rollback() // no-op after release
	if tb.Count() != 1 {
		t.Fatal("release must commit the state")
	}
	if undo.Len() != 0 {
		t.Fatal("release must empty the log")
	}
}

// TestUndoRandomizedRoundTrip interleaves random mutations with full
// rollbacks and checks the table returns to its exact pre-transaction state
// (rows, RowIDs, index contents, scan order).
func TestUndoRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := NewTable(votesSchema(t))
	if _, err := tb.CreateIndex("by_candidate", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	// Seed some committed state.
	committed := map[RowID]types.Row{}
	var order []RowID
	for i := 0; i < 40; i++ {
		id := mustInsert(t, tb, int64(i), int64(i%5))
		r, _ := tb.Get(id)
		committed[id] = r.Clone()
		order = append(order, id)
	}
	for trial := 0; trial < 200; trial++ {
		undo := NewUndoLog()
		live := make([]RowID, 0, len(committed))
		tb.Scan(func(id RowID, _ types.Row) bool { live = append(live, id); return true })
		for op := 0; op < 20; op++ {
			switch rng.Intn(3) {
			case 0:
				k := rng.Int63n(10000) + 1000
				if _, err := tb.Insert(types.Row{types.NewInt(k), types.NewInt(rng.Int63n(5)), types.Null}, undo); err != nil {
					// duplicate key within the trial — fine, nothing recorded
					continue
				}
			case 1:
				if len(live) > 0 {
					id := live[rng.Intn(len(live))]
					_ = tb.Delete(id, undo) // may already be deleted this trial
				}
			case 2:
				if len(live) > 0 {
					id := live[rng.Intn(len(live))]
					if r, ok := tb.Get(id); ok {
						nr := r.Clone()
						nr[1] = types.NewInt(rng.Int63n(5))
						if err := tb.Update(id, nr, undo); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		undo.Rollback()
		// Verify exact restoration.
		if tb.Count() != len(committed) {
			t.Fatalf("trial %d: count %d want %d", trial, tb.Count(), len(committed))
		}
		var scanned []RowID
		tb.Scan(func(id RowID, r types.Row) bool {
			scanned = append(scanned, id)
			want, ok := committed[id]
			if !ok || !r.Equal(want) {
				t.Fatalf("trial %d: row %d = %v want %v", trial, id, r, want)
			}
			return true
		})
		// RowID set must be identical (order may differ only in slot
		// positions of restored rows; logical membership is what ACID
		// promises).
		if len(scanned) != len(order) {
			t.Fatalf("trial %d: %d rows scanned want %d", trial, len(scanned), len(order))
		}
	}
}

func mustInsertU(t *testing.T, tb *Table, u *UndoLog, k int64) RowID {
	t.Helper()
	id, err := tb.Insert(types.Row{types.NewInt(k), types.NewInt(0), types.Null}, u)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
