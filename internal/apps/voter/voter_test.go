package voter

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func newSStore(t testing.TB, contestants int) *core.Store {
	t.Helper()
	st := core.Open(core.Config{})
	if err := Setup(st, contestants); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	return st
}

func newHStore(t testing.TB, contestants int) *core.Store {
	t.Helper()
	st := core.Open(core.Config{HStoreMode: true})
	if err := SetupHStore(st, contestants); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkTrending requires the EE-trigger-maintained leaderboard to be exact:
// one row per surviving contestant, counting that contestant's votes among
// the last TrendWindow accepted ones.
func checkTrending(t *testing.T, st *core.Store, o *Oracle) {
	t.Helper()
	want := make(map[int64]int64, len(o.Alive))
	for id := range o.Alive {
		want[id] = 0
	}
	for _, c := range o.accepted[max(0, len(o.accepted)-TrendWindow):] {
		if o.Alive[c] {
			want[c]++
		}
	}
	res, err := st.Query("SELECT contestant, n FROM trending")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("trending has %d rows, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if n, ok := want[r[0].Int()]; !ok || n != r[1].Int() {
			t.Errorf("trending[%d] = %d, want %d (alive %v)", r[0].Int(), r[1].Int(), n, ok)
		}
	}
}

func TestOracleBasics(t *testing.T) {
	votes := []workload.Vote{
		{Phone: 1, Contestant: 1}, {Phone: 2, Contestant: 1},
		{Phone: 1, Contestant: 2},  // duplicate phone: rejected
		{Phone: 3, Contestant: 99}, // invalid candidate: rejected
		{Phone: 4, Contestant: 2},
	}
	o := RunOracle(votes, 3, 100)
	if o.Accepted != 3 || o.Rejected != 2 || o.Total != 3 {
		t.Fatalf("oracle: %+v", o)
	}
	if o.Counts[1] != 2 || o.Counts[2] != 1 || o.Counts[3] != 0 {
		t.Fatalf("counts: %v", o.Counts)
	}
}

func TestOracleElimination(t *testing.T) {
	// 3 candidates, eliminate every 4 votes. Votes: c1 x2, c2 x1, c3 x1.
	votes := make([]workload.Vote, 0, 8)
	seq := []int64{1, 1, 2, 3} // after 4th vote: lowest = c2 (count 1, tie with c3 -> lower id)
	for i, c := range seq {
		votes = append(votes, workload.Vote{Phone: int64(100 + i), Contestant: c})
	}
	o := RunOracle(votes, 3, 4)
	if len(o.Eliminations) != 1 || o.Eliminations[0] != 2 {
		t.Fatalf("eliminations: %v", o.Eliminations)
	}
	// Phone 102 (voted c2) may vote again.
	votes = append(votes, workload.Vote{Phone: 102, Contestant: 3})
	o = RunOracle(votes, 3, 4)
	if o.Counts[3] != 2 {
		t.Fatalf("revote not counted: %v", o.Counts)
	}
}

func TestSStoreMatchesOracleSmall(t *testing.T) {
	cfg := workload.DefaultVoterConfig(7, 500)
	cfg.Contestants = 5
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)

	st := newSStore(t, cfg.Contestants)
	defer st.Stop()
	if err := RunSStore(st, votes); err != nil {
		t.Fatal(err)
	}
	d, err := Audit(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsClean() {
		t.Fatalf("S-Store diverged from oracle: %s", d)
	}
	checkTrending(t, st, o)
	if o.Winner != 0 {
		w, _ := WinnerOf(st)
		if w != o.Winner {
			t.Fatalf("winner %d want %d", w, o.Winner)
		}
	}
}

func TestSStoreMatchesOracleFullShow(t *testing.T) {
	// A full 25-candidate show: the feed drives all 24 eliminations and a
	// winner, exactly as the oracle computes them. (Rejections — invalid
	// candidates, duplicate phones, votes for eliminated candidates —
	// mean raw votes exceed the 2400 accepted ones needed.)
	cfg := workload.DefaultVoterConfig(42, 6000)
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)
	if o.Winner == 0 {
		t.Fatalf("feed too small: no winner (total=%d, elims=%d)", o.Total, len(o.Eliminations))
	}

	st := newSStore(t, cfg.Contestants)
	defer st.Stop()
	if err := RunSStore(st, votes); err != nil {
		t.Fatal(err)
	}
	d, err := Audit(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsClean() {
		t.Fatalf("S-Store diverged: %s", d)
	}
	checkTrending(t, st, o)
	w, _ := WinnerOf(st)
	if w != o.Winner {
		t.Fatalf("winner %d want %d", w, o.Winner)
	}
}

// TestSStoreMatchesOracleLargePool runs the workflow over 2000 contestants,
// the pool size at which a trigger that scanned `trending` twice per vote
// dominated everything else. The feed covers the filling window, ~100
// eliminations (each deletes a trending row that votes still in the window
// name) and steady sliding; the result must be oracle-exact.
func TestSStoreMatchesOracleLargePool(t *testing.T) {
	cfg := workload.DefaultVoterConfig(11, 12000)
	cfg.Contestants = 2000
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)
	if len(o.Eliminations) < 100 {
		t.Fatalf("feed too small: %d eliminations", len(o.Eliminations))
	}

	st := newSStore(t, cfg.Contestants)
	defer st.Stop()
	if err := RunSStore(st, votes); err != nil {
		t.Fatal(err)
	}
	d, err := Audit(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsClean() {
		t.Fatalf("S-Store diverged from oracle: %s", d)
	}
	checkTrending(t, st, o)
}

// TestTrendTriggerIsDeltaDriven is the golden plan of the trending trigger
// in both shipped variants: each body is driven from the window's delta
// through trending's key, and nothing in it scans a table.
func TestTrendTriggerIsDeltaDriven(t *testing.T) {
	plain := core.Open(core.Config{})
	if err := Setup(plain, 25); err != nil {
		t.Fatal(err)
	}
	parted := core.Open(core.Config{Partitions: 2})
	if err := SetupPartitioned(parted, 25); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*core.Store{"voter": plain, "voter_partitioned": parted} {
		text, err := st.ExplainDataflow(name)
		if err != nil {
			t.Fatal(err)
		}
		const want = `    trend_maintain ON w_trend
      UPDATE trending (1 assignments)
        scan: trending via index trending_pkey (probe from subquery 0)
        subquery 0 (materialized once):
          SELECT (1 output columns)
            scan: inserted (transient batch)
      UPDATE trending (1 assignments)
        scan: trending via index trending_pkey (probe from subquery 0)
        subquery 0 (materialized once):
          SELECT (1 output columns)
            scan: expired (transient batch)
`
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN DATAFLOW %s:\n%s\nwant the trigger planned as:\n%s", name, text, want)
		}
		if err := st.Stop(); err != nil {
			t.Error(err)
		}
	}
}

func TestHStoreSequentialIsCorrect(t *testing.T) {
	// Pipeline=1: the client fully serializes the workflow; the baseline
	// is then correct (and slow — that is the E2 story).
	cfg := workload.DefaultVoterConfig(42, 1200)
	cfg.Contestants = 8
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)

	st := newHStore(t, cfg.Contestants)
	defer st.Stop()
	cl := &HClient{St: st, Pipeline: 1, MaintainTrending: true}
	if err := cl.Run(votes); err != nil {
		t.Fatal(err)
	}
	d, err := Audit(st, o)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsClean() {
		t.Fatalf("sequential H-Store diverged: %s", d)
	}
}

func TestHStorePipelinedProducesAnomalies(t *testing.T) {
	// The paper's E1 claim: with asynchronous submission the naïve
	// H-Store implementation yields incorrect results. Anomalies must be
	// nonzero and grow (weakly) with pipeline depth.
	// Uniform popularity keeps the bottom candidates in a dead heat, so a
	// few out-of-order votes at an elimination boundary flip who is
	// lowest — the race §3.1 describes.
	cfg := workload.DefaultVoterConfig(42, 3000)
	cfg.Skew = 0
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)

	prev := -1
	for _, pipeline := range []int{8, 32} {
		st := newHStore(t, cfg.Contestants)
		cl := &HClient{St: st, Pipeline: pipeline}
		if err := cl.Run(votes); err != nil {
			t.Fatal(err)
		}
		d, err := Audit(st, o)
		if err != nil {
			t.Fatal(err)
		}
		st.Stop()
		if d.IsClean() {
			t.Fatalf("pipeline %d: expected anomalies, got a clean run", pipeline)
		}
		t.Logf("pipeline=%d: %s", pipeline, d)
		if d.Anomalies() < prev/4 {
			t.Errorf("anomalies collapsed unexpectedly: %d after %d", d.Anomalies(), prev)
		}
		prev = d.Anomalies()
	}
}

func TestLeaderboards(t *testing.T) {
	cfg := workload.DefaultVoterConfig(3, 400)
	cfg.Contestants = 6
	votes := workload.Votes(cfg)
	st := newSStore(t, cfg.Contestants)
	defer st.Stop()
	if err := RunSStore(st, votes); err != nil {
		t.Fatal(err)
	}
	top, bottom, trend, err := Leaderboards(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || len(bottom) == 0 {
		t.Fatalf("empty leaderboards: top=%v bottom=%v", top, bottom)
	}
	// 400 votes with default skew: the trending window (100) has slid, so
	// the trending leaderboard is populated.
	if len(trend) == 0 {
		t.Fatal("trending leaderboard empty after 400 votes")
	}
	// Trending totals cannot exceed the window size.
	res, err := st.Query("SELECT SUM(n) FROM trending")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got > TrendWindow {
		t.Fatalf("trending holds %d votes, window is %d", got, TrendWindow)
	}
}

func TestRoundTripAccounting(t *testing.T) {
	// E3's mechanism: S-Store pays 1 client→PE trip per vote; the H-Store
	// client pays one per stage invocation plus trend maintenance.
	cfg := workload.DefaultVoterConfig(5, 300)
	cfg.Contestants = 5
	votes := workload.Votes(cfg)

	ss := newSStore(t, cfg.Contestants)
	if err := RunSStore(ss, votes); err != nil {
		t.Fatal(err)
	}
	ssTrips := ss.Metrics().Load(metrics.ClientToPE)
	ss.Stop()

	hs := newHStore(t, cfg.Contestants)
	cl := &HClient{St: hs, Pipeline: 1, MaintainTrending: true}
	if err := cl.Run(votes); err != nil {
		t.Fatal(err)
	}
	hsTrips := hs.Metrics().Load(metrics.ClientToPE)
	hs.Stop()

	if ssTrips > int64(len(votes))+5 {
		t.Errorf("S-Store trips = %d for %d votes", ssTrips, len(votes))
	}
	if hsTrips < 2*ssTrips {
		t.Errorf("H-Store should pay ≥2× the client trips: hs=%d ss=%d", hsTrips, ssTrips)
	}
}

func TestSStoreVsHStoreDivergenceSideBySide(t *testing.T) {
	// The demo itself: same feed into both engines side by side; S-Store
	// stays on the oracle while pipelined H-Store drifts.
	cfg := workload.DefaultVoterConfig(99, 2000)
	cfg.Skew = 0
	votes := workload.Votes(cfg)
	o := RunOracle(votes, cfg.Contestants, EliminateEvery)

	ss := newSStore(t, cfg.Contestants)
	defer ss.Stop()
	if err := RunSStore(ss, votes); err != nil {
		t.Fatal(err)
	}
	dSS, err := Audit(ss, o)
	if err != nil {
		t.Fatal(err)
	}

	hs := newHStore(t, cfg.Contestants)
	defer hs.Stop()
	cl := &HClient{St: hs, Pipeline: 16}
	if err := cl.Run(votes); err != nil {
		t.Fatal(err)
	}
	dHS, err := Audit(hs, o)
	if err != nil {
		t.Fatal(err)
	}
	if !dSS.IsClean() {
		t.Errorf("S-Store: %s", dSS)
	}
	if dHS.IsClean() {
		t.Error("H-Store pipelined run unexpectedly clean")
	}
	t.Logf("side by side: S-Store %s | H-Store %s", dSS, dHS)
}
