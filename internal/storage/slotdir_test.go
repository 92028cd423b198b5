package storage

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// linearSearch is slotSearch's reference: the first position whose id is
// >= minID, found by walking the whole directory.
func linearSearch(d []*rowSlot, minID RowID) int {
	for i, s := range d {
		if s.id >= minID {
			return i
		}
	}
	return len(d)
}

// checkDirectory resolves every RowID the table has handed out, and the
// ones on either side, through the bounded search and through a linear
// scan, and requires the same answer from the worker's Get and from
// SnapshotGet at each of seqs. The window must hold the position and be
// no wider than the directory's holes: a bound one too tight misses a
// row, one too loose widens the window past the holes.
func checkDirectory(t *testing.T, tb *Table, seqs ...Seq) {
	t.Helper()
	d := tb.slots()
	holes := 0
	if len(d) > 0 {
		holes = int(d[len(d)-1].id-d[0].id+1) - len(d)
	}
	for id := RowID(0); id <= tb.nextID; id++ {
		want := linearSearch(d, id)
		lo, hi := slotWindow(d, id)
		if want < lo || want > hi || hi-lo > holes {
			t.Fatalf("id %d: window [%d, %d] over %d slots with %d holes; the position is %d",
				id, lo, hi, len(d), holes, want)
		}
		if got := slotSearch(d, id); got != want {
			t.Fatalf("id %d: slotSearch = %d, linear scan %d", id, got, want)
		}
		var s *rowSlot
		if want < len(d) && d[want].id == id {
			s = d[want]
		}
		if got := slotByID(d, id); got != s {
			t.Fatalf("id %d: slotByID = %p, linear scan %p", id, got, s)
		}

		var wantLive types.Row
		if s != nil {
			if h := s.liveHead(); h != nil {
				wantLive = h.hotRow()
			}
		}
		got, ok := tb.Get(id)
		if ok != (wantLive != nil) || !got.Equal(wantLive) {
			t.Fatalf("id %d: Get = %v %v, linear scan %v", id, got, ok, wantLive)
		}
		for _, seq := range seqs {
			var wantSnap types.Row
			if s != nil {
				if v := s.versionAt(seq); v != nil {
					wantSnap = v.hotRow()
				}
			}
			got, ok := tb.SnapshotGet(id, seq)
			if ok != (wantSnap != nil) || !got.Equal(wantSnap) {
				t.Fatalf("id %d at seq %d: SnapshotGet = %v %v, linear scan %v", id, seq, got, ok, wantSnap)
			}
		}
	}
	// SnapshotScan resumes each chunk through the same search.
	for _, seq := range seqs {
		var want, got []RowID
		for _, s := range d {
			if s.versionAt(seq) != nil {
				want = append(want, s.id)
			}
		}
		tb.SnapshotScan(seq, func(id RowID, _ types.Row) bool { got = append(got, id); return true })
		if len(got) != len(want) {
			t.Fatalf("SnapshotScan at seq %d saw %d rows, a linear walk %d", seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SnapshotScan at seq %d: row %d is id %d, a linear walk has %d", seq, i, got[i], want[i])
			}
		}
	}
}

// TestDirectoryLookupMatchesLinearScan is the property test of the one
// RowID resolution: random inserts, deletes, undone inserts, unstaged and
// dropped staged rows and GC compactions — some under a pin held across
// them — leave holes of every shape in the directory, and after each burst
// every RowID resolves through the bounded search exactly as a linear scan
// resolves it.
func TestDirectoryLookupMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(votesSchema(t))
		clock := tb.Clock()
		var live []RowID
		phone := int64(0)
		row := func() types.Row {
			phone++
			return voteRow(phone, phone%7)
		}
		var pin SnapPin
		held := false
		for burst := 0; burst < 60; burst++ {
			for op := 0; op < 40; op++ {
				switch r := rng.Intn(100); {
				case r < 40:
					id, err := tb.Insert(row(), nil)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case r < 65:
					if len(live) > 0 {
						i := rng.Intn(len(live))
						if err := tb.Delete(live[i], nil); err != nil {
							t.Fatal(err)
						}
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				case r < 75: // an insert rolled back: a nil-head slot until compaction
					undo := NewUndoLog()
					if _, err := tb.Insert(row(), undo); err != nil {
						t.Fatal(err)
					}
					undo.Rollback()
				case r < 85:
					id, err := tb.StageInsert(row())
					if err != nil {
						t.Fatal(err)
					}
					if err := tb.Unstage(id); err != nil {
						t.Fatal(err)
					}
				case r < 92:
					for k := rng.Intn(4); k >= 0; k-- {
						if _, err := tb.StageInsert(row()); err != nil {
							t.Fatal(err)
						}
					}
					tb.DropStaged()
				default:
					tb.GC(clock.Watermark())
				}
				clock.Publish()
			}
			switch {
			case !held && rng.Intn(3) == 0:
				pin, held = clock.AcquireSnapshot(), true
			case held && rng.Intn(3) == 0:
				clock.ReleaseSnapshot(pin)
				held = false
			}
			tb.GC(clock.Watermark())
			if held {
				checkDirectory(t, tb, clock.Current(), pin.Seq())
			} else {
				checkDirectory(t, tb, clock.Current())
			}
		}
		if held {
			clock.ReleaseSnapshot(pin)
		}
		if tb.Count() != len(live) {
			t.Fatalf("seed %d: %d live rows, the test kept %d", seed, tb.Count(), len(live))
		}
	}
}

// TestDirectoryLookupOneOldRowAmongChurn is the widest window: one row
// that survives while 100 000 others are inserted and deleted behind it,
// so after compaction the directory is that row, a few newcomers, and
// 100 000 holes between them.
func TestDirectoryLookupOneOldRowAmongChurn(t *testing.T) {
	const churn = 100_000
	tb := NewTable(votesSchema(t))
	clock := tb.Clock()
	old := mustInsert(t, tb, 0, 0)
	clock.Publish()
	for i := int64(1); i <= churn; i++ {
		id := mustInsert(t, tb, i, 0)
		clock.Publish()
		if err := tb.Delete(id, nil); err != nil {
			t.Fatal(err)
		}
		clock.Publish()
	}
	tb.GC(clock.Watermark())
	pin := clock.AcquireSnapshot() // sees only the old row
	var fresh []RowID
	for i := int64(0); i < 5; i++ {
		fresh = append(fresh, mustInsert(t, tb, churn+1+i, 1))
	}
	clock.Publish()
	if d := tb.slots(); len(d) != 1+len(fresh) || d[0].id != old {
		t.Fatalf("after compaction the directory holds %d slots, want the old row and %d newcomers", len(d), len(fresh))
	}
	checkDirectory(t, tb, clock.Current(), pin.Seq())
	clock.ReleaseSnapshot(pin)
	if r, ok := tb.Get(fresh[len(fresh)-1]); !ok || r[0].Int() != churn+5 {
		t.Fatalf("newest row = %v %v", r, ok)
	}
}
