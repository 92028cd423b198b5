package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

// pollUntilIdle drives a follower's fetch-and-apply rounds by hand until a
// whole round moves nothing or the follower diverges — the deterministic
// stand-in for Run's timed loop (no goroutine, no sleeps). A failed fetch
// moves nothing; the next round retries it, as Run's would.
func pollUntilIdle(t *testing.T, f *Follower) {
	t.Helper()
	for {
		if progress, _ := f.pollOnce(); !progress || f.Err() != nil {
			return
		}
	}
}

// TestFollowerDivergesWhenPrimaryGrows: a follower cannot hold partitions
// its store was not opened with, so the first slot-commit record that names
// one must stop it — sticky error naming both counts, reads refused,
// promotion refused. Before the single fold, recovery made this check and
// the follower did not: it kept reporting Err()==nil and Lag()==0 while
// serving 300 of 400 rows, and promoted into a store that had lost 200.
func TestFollowerDivergesWhenPrimaryGrows(t *testing.T) {
	st := buildKV(t, gcTestConfig(t.TempDir(), 2))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	f := kvFollower(t, st, 2)
	put := func(lo, hi int64) {
		t.Helper()
		for k := lo; k < hi; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 200)
	pollUntilIdle(t, f)
	if err := f.Err(); err != nil {
		t.Fatalf("diverged before the primary grew: %v", err)
	}
	if keys := keySet(t, f.Query); len(keys) != 200 {
		t.Fatalf("follower has %d keys before growth, want 200", len(keys))
	}

	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	put(200, 400)
	pollUntilIdle(t, f)

	err := f.Err()
	if err == nil {
		t.Fatal("follower of a grown primary reports no error")
	}
	for _, want := range []string{"2 partitions", "partition 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("divergence error %q does not mention %q", err, want)
		}
	}
	if _, qerr := f.Query("SELECT COUNT(*) FROM kv"); qerr == nil {
		t.Fatal("diverged follower still serves plain reads")
	}
	if _, qerr := f.Session().Query("SELECT COUNT(*) FROM kv"); qerr == nil {
		t.Fatal("diverged follower still serves session reads")
	}
	if promoted, perr := f.Promote(); perr == nil {
		promoted.Stop()
		t.Fatal("diverged follower promoted")
	}
}

// TestFollowerHoldsMigratedRowsOnce: a follower evicts a migrated slot from
// its source partition when it applies the source's copy of the slot's
// commit record, so while it tails a primary that grows it holds every row
// once, not on both partitions until promotion.
func TestFollowerHoldsMigratedRowsOnce(t *testing.T) {
	st := buildKV(t, gcTestConfig(t.TempDir(), 2))
	must(t, st.Start())
	defer st.Stop()
	f, err := NewFollower(buildKV(t, Config{Partitions: 4}), growingSource{st})
	must(t, err)
	put := func(lo, hi int64) {
		t.Helper()
		for k := lo; k < hi; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 200)
	must(t, st.Rebalance(4))
	put(200, 220)
	pollUntilIdle(t, f)
	must(t, f.Err())
	keys := keySet(t, f.Query)
	twice := 0
	for _, n := range keys {
		if n > 1 {
			twice++
		}
	}
	if len(keys) != 220 || twice > 0 {
		t.Fatalf("follower holds %d keys, %d of them more than once; want each of the 220 once", len(keys), twice)
	}
}

// storeState renders everything the log applier is responsible for: each
// relation's rows per partition (sorted), the slot-owner table, the paused
// graphs, and the 2PC id counter. The store must have no running workers.
func storeState(st *Store) string {
	var b strings.Builder
	parts := st.partList()
	for _, name := range parts[0].cat.Names() {
		for _, p := range parts {
			var rows []string
			for _, row := range p.cat.Relation(name).Table.ScanRows() {
				rows = append(rows, fmt.Sprint(row))
			}
			sort.Strings(rows)
			fmt.Fprintf(&b, "%s@%d: %v\n", name, p.idx, rows)
		}
	}
	sch := st.schema.Load()
	var paused, gate []string
	for _, df := range sch.Dataflows() {
		if df.Paused {
			paused = append(paused, df.Name)
		}
		for _, n := range df.Nodes {
			if g := sch.PausedGraph(n.Input); n.Input != "" && g != "" {
				gate = append(gate, n.Input+"->"+g)
			}
		}
	}
	for _, p := range parts {
		if p.cat.Schema() != sch {
			fmt.Fprintf(&b, "partition %d is synced to another Schema\n", p.idx)
		}
	}
	slots := st.slots.Load()
	fmt.Fprintf(&b, "slots: %v\npaused: %v gate %v\nnextMPTxnID: %d\n",
		slots.Owner, paused, gate, st.nextMPTxnID.Load())
	return b.String()
}

// totalsOf reads the totals table straight from a stopped store's storage.
func totalsOf(st *Store) map[int64]int64 {
	out := map[int64]int64{}
	for _, p := range st.partList() {
		for _, row := range p.cat.Relation("totals").Table.ScanRows() {
			out[row[0].Int()] = row[1].Int()
		}
	}
	return out
}

// TestSlotOwnerIsLatestMove: one slot's moves sit in different logs, and
// recovery folds the logs in partition order, so the owner it routes to
// and keeps the rows on is the destination of the move with the largest
// id, not of the move folded last. Here a slot went 1 → 2 (id 1) and back
// 2 → 1 (id 2), and partition 2's unforced source record of the move back
// was lost: partition 1's log, folded first, holds the move back, and
// partition 2's log, folded last, holds the move away.
func TestSlotOwnerIsLatestMove(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 3})
	ap := newApplier(st)
	for _, rec := range []*pe.LogRecord{
		{Kind: pe.RecSlotCommit, Slot: 5, FromPart: 1, ToPart: 2, MPTxnID: 1}, // partition 1: source record
		{Kind: pe.RecSlotCommit, Slot: 5, FromPart: 2, ToPart: 1, MPTxnID: 2}, // partition 1: the move back
		{Kind: pe.RecSlotCommit, Slot: 5, FromPart: 1, ToPart: 2, MPTxnID: 1}, // partition 2: the move away
	} {
		if err := ap.fold(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.finish(); err != nil {
		t.Fatal(err)
	}
	if owner := st.slots.Load().Owner[5]; owner != 1 {
		t.Fatalf("slot 5 routes to partition %d, want 1", owner)
	}
}
