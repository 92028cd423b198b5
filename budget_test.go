package sstore_test

import (
	"testing"

	sstore "repro"
	"repro/internal/apps/voter"
)

// Allocation budgets for the two paths BenchmarkVoterVoteSStore and
// BenchmarkOLTPCall time, as tests: testing.AllocsPerRun counts every
// goroutine's allocations, so a figure is the client's (the ingested row's
// copy, the request) plus the worker's, and it is the same on any host.
// What the worker has left to allocate is what the TE stores: validated
// rows, versions, slots (DESIGN.md §1.6.3; EXPERIMENTS.md E18 lists each).
// Before TE-scoped memory these read 107 and 23; before a version held its
// own row, 33 and 10.

// TestVoteAllocBudget: one vote through SP1 → SP2 with the trending window
// and its trigger, ingested and drained, every hundredth with SP3 behind it.
func TestVoteAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{})
	if err := voter.Setup(st, 250); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	phone := int64(0)
	vote := func() {
		phone++
		if err := st.Ingest("votes_in",
			sstore.Row{sstore.Int(5_550_000 + phone), sstore.Int(1 + phone%200), sstore.Int(phone)}); err != nil {
			t.Fatal(err)
		}
		st.Drain()
	}
	for i := 0; i < 500; i++ { // fills the window, settles the scratch
		vote()
	}
	// Measured 25, and 26 under the race detector, whose sync.Pool drops a
	// quarter of what the version and index-node pools are given back.
	const budget = 26
	if got := testing.AllocsPerRun(1000, vote); got > budget {
		t.Fatalf("%.0f allocations per vote, budget %d", got, budget)
	}
	// All but the votes for a candidate already eliminated were counted.
	res, err := st.Query("SELECT n FROM vote_totals WHERE id = 0")
	if err != nil || res.Rows[0][0].Int() < phone*9/10 {
		t.Fatalf("vote_totals = %v, %v after %d votes", res, err, phone)
	}
}

// TestOLTPCallAllocBudget: a one-INSERT procedure called and answered.
func TestOLTPCallAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript("CREATE TABLE t (k INT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "put",
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO t VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	k := int64(0)
	put := func() {
		k++
		if _, err := st.Call("put", sstore.Int(k), sstore.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	const budget = 9 // measured, with and without the race detector
	if got := testing.AllocsPerRun(1000, put); got > budget {
		t.Fatalf("%.0f allocations per call, budget %d", got, budget)
	}
}

// TestKeyedQueryAllocBudget: kv-mixed's point read on two partitions. The
// key names its owner, so the statement runs there alone: no leg
// goroutines, no merge (a fan-out read 26).
func TestKeyedQueryAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{Partitions: 2})
	if err := st.ExecScript("CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const keys = 1000
	for k := int64(0); k < keys; k++ {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?, ?, ?)",
			sstore.Int(k), sstore.Int(k%100), sstore.Int(0), sstore.Str("v")); err != nil {
			t.Fatal(err)
		}
	}
	params := make([]sstore.Value, keys)
	for k := range params {
		params[k] = sstore.Int(int64(k))
	}
	k := 0
	read := func() {
		k = (k + 1) % keys
		res, err := st.Query("SELECT k, grp, n, v FROM kv WHERE k = ?", params[k])
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point read of %d: %v, %v", k, res, err)
		}
	}
	for i := 0; i < 100; i++ {
		read()
	}
	// Measured 9, and 10 under the race detector.
	const budget = 10
	if got := testing.AllocsPerRun(1000, read); got > budget {
		t.Fatalf("%.0f allocations per keyed read, budget %d", got, budget)
	}
}
