package voter

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/internal/workload"
)

// globalFeed is a small feed with enough duplicates and invalid candidates
// to exercise every rejection path, sized so several eliminations fire.
func globalFeed(seed int64, n int) ([]workload.Vote, int) {
	const contestants = 5
	cfg := workload.VoterConfig{
		Seed:        seed,
		NumVotes:    n,
		Contestants: contestants,
		PhoneSpace:  1 << 16,
		InvalidPct:  4,
		DupPct:      10,
		Skew:        0.7,
	}
	return workload.Votes(cfg), contestants
}

// checkGlobalMatchesOracle compares the engine's end state and elimination
// history against the sequential oracle for the same feed.
func checkGlobalMatchesOracle(t *testing.T, st *core.Store, o *Oracle,
	accepted int64, eliminations, elimTotals []int64) {
	t.Helper()
	if accepted != int64(o.Accepted) {
		t.Fatalf("accepted = %d, oracle %d", accepted, o.Accepted)
	}
	if fmt.Sprint(eliminations) != fmt.Sprint(o.Eliminations) {
		t.Fatalf("eliminations = %v, oracle %v", eliminations, o.Eliminations)
	}
	if fmt.Sprint(elimTotals) != fmt.Sprint(o.EliminationTotals) {
		t.Fatalf("elimination totals = %v, oracle %v", elimTotals, o.EliminationTotals)
	}
	alive, err := GlobalAlive(st)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(alive) != fmt.Sprint(o.AliveSorted()) {
		t.Fatalf("alive = %v, oracle %v", alive, o.AliveSorted())
	}
	counts, err := GlobalCounts(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(o.Counts) {
		t.Fatalf("count rows = %v, oracle %v", counts, o.Counts)
	}
	for id, n := range o.Counts {
		if counts[id] != n {
			t.Fatalf("counts[%d] = %d, oracle %d (%v vs %v)", id, counts[id], n, counts, o.Counts)
		}
	}
}

// TestGlobalEliminationMatchesOracle drives the partitioned store with
// global elimination — every vote one coordinated cross-partition
// transaction — and requires it to match the sequential oracle vote for
// vote and elimination for elimination. This is the workload §4.3 said a
// coordinator-less store cannot run.
func TestGlobalEliminationMatchesOracle(t *testing.T) {
	votes, contestants := globalFeed(7, 400)
	const every = 40
	o := RunOracle(votes, contestants, every)
	if len(o.Eliminations) == 0 {
		t.Fatal("feed produced no eliminations; test proves nothing")
	}

	st := core.Open(core.Config{Partitions: 3})
	if err := SetupGlobal(st, contestants); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	accepted, eliminations, elimTotals, err := RunGlobal(st, votes, every)
	if err != nil {
		t.Fatal(err)
	}
	checkGlobalMatchesOracle(t, st, o, accepted, eliminations, elimTotals)
	if st.Metrics().Load(metrics.MPTxns) == 0 {
		t.Fatal("no coordinated transactions ran; the test did not exercise 2PC")
	}
}

// TestGlobalEliminationSurvivesRestart splits the feed across a crash:
// half the votes run on a durable group-commit store, the store stops, a
// fresh store recovers from the logs — replaying the coordinated
// transactions' PREPARE records against the decision log — and the second
// half runs on the recovered store. The end state must still match the
// oracle exactly.
func TestGlobalEliminationSurvivesRestart(t *testing.T) {
	votes, contestants := globalFeed(11, 300)
	const every = 30
	o := RunOracle(votes, contestants, every)
	if len(o.Eliminations) < 2 {
		t.Fatal("want at least 2 eliminations to land on both sides of the restart")
	}
	dir := t.TempDir()
	cfg := core.Config{
		Dir:        dir,
		Sync:       wal.SyncGroupCommit,
		Partitions: 3,
	}

	build := func() *core.Store {
		st := core.Open(cfg)
		if err := SetupGlobal(st, contestants); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := build()
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	half := len(votes) / 2
	acc1, elim1, tot1, err := RunGlobal(st, votes[:half], every)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := build()
	if err := st2.Start(); err != nil { // recovers: replay + decision resolution
		t.Fatal(err)
	}
	defer st2.Stop()
	acc2, elim2, tot2, err := RunGlobal(st2, votes[half:], every)
	if err != nil {
		t.Fatal(err)
	}
	accepted := acc1 + acc2
	eliminations := append(append([]int64{}, elim1...), elim2...)
	elimTotals := append([]int64{}, tot1...)
	for _, tt := range tot2 {
		elimTotals = append(elimTotals, tt+acc1)
	}
	checkGlobalMatchesOracle(t, st2, o, accepted, eliminations, elimTotals)
}
