package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// ---------- E10: elastic repartitioning under live Voter load ----------
//
// Store.Rebalance grows a running store and migrates hash slots to their
// new owners one at a time. Each slot's bulk copy runs off an MVCC
// snapshot while writers keep committing; only the final cutover — the
// catch-up delta, the atomic ownership flip — stalls the partition
// workers. E10 prices exactly that stall against the OLTP Voter workload:
// a pipelined cast_vote feed runs throughout while the store grows, and
// the per-slot cutover pause is measured against cutoverPauseBudget. A
// migration whose pauses hide inside that envelope is invisible to a client
// of the durable store.
//
// Correctness is checked with the sequential oracle: after the feed
// drains on the grown store, SUM(vote_counts.n) must equal the oracle's
// accepted count exactly — a migration that lost a row, double-applied
// one, or routed a phone to two owners cannot pass.

// cutoverPauseBudget is the pause a client of the durable store does not
// notice: 2ms, a handful of back-to-back commit fsyncs on the reference
// disk and the bound the log puts on how stale an un-waited record may get.
// Every recorded E10 row was judged against this number.
const cutoverPauseBudget = 2 * time.Millisecond

// E10Result is the elastic-repartitioning experiment's summary.
type E10Result struct {
	PartsFrom, PartsTo int
	Votes              int
	VotesSecBefore     float64 // throughput before the rebalance began
	VotesSecDuring     float64 // throughput while slots migrated
	VotesSecAfter      float64 // throughput on the grown store
	RebalanceWall      time.Duration
	SlotsMigrated      int64
	RowsMoved          int64
	PauseP50           time.Duration
	PauseP99           time.Duration
	PauseBudget        time.Duration // cutoverPauseBudget
	WithinBudget       bool          // PauseP99 <= PauseBudget
	Correct            bool
}

// E10 feeds `votes` Voter transactions through `pipeline` concurrent
// clients over a store of `from` partitions, triggering Rebalance(to)
// after a third of the feed. The store is volatile (the migration
// protocol's WAL records are exercised by the crash-recovery tests; here
// the partition workers' pause is the measurement).
func E10(seed int64, votes, from, to, pipeline int) (E10Result, error) {
	const contestants = 25
	feed := workload.Votes(workload.DefaultVoterConfig(seed, votes))
	st := core.Open(core.Config{Partitions: from})
	if err := voter.SetupOLTP(st, contestants); err != nil {
		return E10Result{}, err
	}
	if err := st.Start(); err != nil {
		return E10Result{}, err
	}
	defer st.Stop()

	if pipeline < 1 {
		pipeline = 1
	}
	var done atomic.Int64
	next := make(chan workload.Vote, pipeline)
	errs := make([]error, pipeline)
	var wg sync.WaitGroup
	for w := 0; w < pipeline; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := range next {
				if _, err := st.Call("cast_vote",
					types.NewInt(v.Phone), types.NewInt(v.Contestant), types.NewInt(v.TS)); err != nil {
					errs[w] = err
					break
				}
				done.Add(1)
			}
			for range next {
			} // drain on error so the feeder never blocks
		}(w)
	}

	var res E10Result
	res.PartsFrom, res.PartsTo, res.Votes = from, to, votes
	t0 := time.Now()
	var rebalErr error
	for i, v := range feed {
		if i == len(feed)/3 {
			c1, t1 := done.Load(), time.Now()
			res.VotesSecBefore = float64(c1) / t1.Sub(t0).Seconds()
			rebalErr = st.Rebalance(to)
			c2, t2 := done.Load(), time.Now()
			res.RebalanceWall = t2.Sub(t1)
			res.VotesSecDuring = float64(c2-c1) / res.RebalanceWall.Seconds()
			if rebalErr != nil {
				break
			}
			t0 = t2 // the "after" window starts here
			done.Store(0)
		}
		next <- v
	}
	close(next)
	wg.Wait()
	if rebalErr != nil {
		return E10Result{}, rebalErr
	}
	for _, err := range errs {
		if err != nil {
			return E10Result{}, err
		}
	}
	res.VotesSecAfter = float64(done.Load()) / time.Since(t0).Seconds()

	snap := st.Metrics().Snapshot()
	res.SlotsMigrated = snap.SlotsMigrated
	res.RowsMoved = snap.SlotRowsMoved
	res.PauseP50 = snap.CutoverPauseP50
	res.PauseP99 = snap.CutoverPauseP99
	res.PauseBudget = cutoverPauseBudget
	res.WithinBudget = res.PauseP99 <= res.PauseBudget

	want := voter.ExpectedValidVotes(feed, contestants)
	sum, err := st.Query("SELECT SUM(n) FROM vote_counts")
	if err != nil {
		return E10Result{}, err
	}
	cnt, err := st.Query("SELECT COUNT(*) FROM votes")
	if err != nil {
		return E10Result{}, err
	}
	res.Correct = sum.Rows[0][0].Int() == want && cnt.Rows[0][0].Int() == want
	if !res.Correct {
		return res, fmt.Errorf("E10: SUM(n)=%d COUNT(votes)=%d want %d",
			sum.Rows[0][0].Int(), cnt.Rows[0][0].Int(), want)
	}
	if st.NumPartitions() != to {
		return res, fmt.Errorf("E10: store has %d partitions, want %d", st.NumPartitions(), to)
	}
	return res, nil
}
