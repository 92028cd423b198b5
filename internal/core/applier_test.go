package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// pollUntilIdle drives a follower's fetch-and-apply rounds by hand until a
// whole round moves nothing — the deterministic stand-in for Run's timed
// loop (no goroutine, no sleeps).
func pollUntilIdle(t *testing.T, f *Follower) {
	t.Helper()
	for {
		progress, err := f.pollOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !progress || f.Err() != nil {
			return
		}
	}
}

// TestFollowerDivergesWhenPrimaryGrows: a follower cannot hold partitions
// its store was not opened with, so the first coordinator record that names
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
	fmt.Fprintf(&b, "slots: %d parts %v\npaused: %v gate %v\nnextMPTxnID: %d\n",
		slots.Parts, slots.Owner, paused, gate, st.nextMPTxnID.Load())
	return b.String()
}

// TestRecoverFollowPromoteAgree is the differential test of the one log
// applier: the same log, fed from the directory's files (crash recovery),
// from the shipping source into a follower that then declares its streams
// final, and into a follower that is promoted, must yield the same store.
// The script covers every record kind the applier folds or applies.
func TestRecoverFollowPromoteAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode pe.LogMode
	}{{"LogBorderOnly", pe.LogBorderOnly}, {"LogAllTEs", pe.LogAllTEs}} {
		t.Run(tc.name, func(t *testing.T) { recoverFollowPromoteAgree(t, tc.mode) })
	}
}

func recoverFollowPromoteAgree(t *testing.T, mode pe.LogMode) {
	dir := t.TempDir()
	durable := func(parts int) Config {
		return Config{Dir: dir, Partitions: parts, Sync: wal.SyncEveryRecord, LogMode: mode}
	}
	st := buildPartApp(t, durable(2))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bumpAll := func() {
		t.Helper()
		for k := int64(0); k < 16; k++ {
			_, err := st.Call("bump", types.NewInt(k))
			must(err)
		}
	}
	// mpPair commits one coordinated transaction inserting a totals row on
	// each of two partitions (keys picked so each lands on its owner).
	mpPair := func(pa, pb int, start int64) {
		t.Helper()
		ka, kb := keysOwnedBy(st, pa, 1, start)[0], keysOwnedBy(st, pb, 1, start)[0]
		must(st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(pa, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(ka)); err != nil {
				return err
			}
			_, err := tx.Exec(pb, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(kb))
			return err
		}))
	}

	// A replicated table written by a coordinated transaction, a dataflow
	// with border batches, single-partition calls, committed pair inserts,
	// ad-hoc writes of every shape, and a pause with its resume.
	must(st.MultiPartitionTxn(func(tx *MPTxn) error {
		_, err := tx.ExecAll("INSERT INTO ref VALUES (1, 10)")
		return err
	}))
	ingestKeys(t, st, 16, 2)
	bumpAll()
	mpPair(0, 1, 1000)
	adHoc := adHocWrites(t, st, 5000)
	must(st.PauseDataflow("events"))
	must(st.ResumeDataflow("events"))

	// Growth to four partitions. The first attempt completes one slot
	// migration and aborts the second after its COPIED record (a BEGIN /
	// COPIED pair with no COMMIT stays in the coordinator log); the retry
	// migrates the rest, so the slot table ends canonical and recovery has
	// nothing left to rehome.
	migrations := 0
	testHookAfterCopied = func(int) error {
		if migrations++; migrations == 2 {
			return errors.New("injected abort after COPIED")
		}
		return nil
	}
	err := st.Rebalance(4)
	testHookAfterCopied = nil
	if err == nil || !strings.Contains(err.Error(), "injected abort") {
		t.Fatalf("first rebalance err = %v", err)
	}
	bumpAll() // writes between the migrations, on old and new owners
	must(st.Rebalance(4))
	ingestKeys(t, st, 16, 1)
	bumpAll()
	mpPair(2, 3, 2000)
	for k, n := range adHocWrites(t, st, 7000) {
		adHoc[k] = n
	}
	must(st.PauseDataflow("events")) // still paused at the crash

	// The crash state: an in-doubt PREPARE (no decision anywhere) with a
	// decided transaction's legs behind it, as the pipelined commit path can
	// leave them.
	inDoubt, decided0 := keysOwnedBy(st, 0, 2, 3000)[0], keysOwnedBy(st, 0, 2, 3000)[1]
	decided1 := keysOwnedBy(st, 1, 1, 3000)[0]
	want := totals(t, st)
	want[decided0], want[decided1] = 7, 7
	must(st.Stop())
	put := func(k int64) []pe.LoggedOp {
		return []pe.LoggedOp{{SQL: "INSERT INTO totals (k, n) VALUES (?, 7)", Params: []types.Value{types.NewInt(k)}}}
	}
	logPath0, _ := wal.PartitionPaths(dir, 0)
	logPath1, _ := wal.PartitionPaths(dir, 1)
	appendRecords(t, logPath0,
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9001, Ops: put(inDoubt)},
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9002, Ops: put(decided0)})
	appendRecords(t, logPath1, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9002, Ops: put(decided1)})
	appendRecords(t, wal.CoordPath(dir), &pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 9002, Commit: true})

	follower := func() *Follower {
		t.Helper()
		f, err := NewFollower(buildPartApp(t, Config{Partitions: 4, LogMode: mode}), StoreSource{St: st}, FollowerOpts{})
		must(err)
		pollUntilIdle(t, f)
		must(f.Err())
		return f
	}

	// Feed 2: a follower caught up by explicit rounds, then declared final.
	fb := follower()
	if _, ok := totalsOf(fb.st)[decided0]; ok {
		t.Fatal("follower applied a record past an in-doubt prepare before its stream was final")
	}
	must(fb.settle())
	followed := storeState(fb.st)

	// Feed 2 again, ending in Promote.
	promotedSt, err := follower().Promote()
	must(err)
	must(promotedSt.Stop())
	promoted := storeState(promotedSt)

	// Feed 1: crash recovery from the directory (last: it appends to it).
	re := buildPartApp(t, durable(4))
	must(re.Recover())
	recovered := storeState(re)
	got := totalsOf(re)
	must(re.Stop())

	if followed != recovered {
		t.Errorf("follower (final drain) and crash recovery disagree:\n--- followed\n%s--- recovered\n%s", followed, recovered)
	}
	if promoted != recovered {
		t.Errorf("promoted follower and crash recovery disagree:\n--- promoted\n%s--- recovered\n%s", promoted, recovered)
	}
	// And the agreed state is the right one: the primary's acknowledged
	// totals plus the decided transaction, without the in-doubt leg.
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered totals = %v\nwant %v", got, want)
	}
	if _, ok := got[inDoubt]; ok {
		t.Error("in-doubt leg resurrected")
	}
	for k, n := range adHoc {
		if got[k] != n {
			t.Errorf("ad-hoc write to totals[%d] recovered as %d, want %d", k, got[k], n)
		}
	}
	if !strings.Contains(recovered, "paused: [events]") {
		t.Errorf("pause did not survive:\n%s", recovered)
	}
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
