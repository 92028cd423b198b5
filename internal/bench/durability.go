package bench

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ---------- E7: durable throughput vs sync policy ----------

// latencyQuantiles flattens per-worker latency slices and returns an exact
// quantile lookup over the sorted samples (shared by the E7 and E8
// drivers).
func latencyQuantiles(latencies [][]time.Duration) func(p float64) time.Duration {
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}
}

// E7Config is one sync-policy configuration under test.
type E7Config struct {
	Name string
	Sync wal.SyncPolicy
}

// E7Row is one row of the durable-throughput table.
type E7Row struct {
	Policy   string
	VotesSec float64
	P50      time.Duration // client-observed Call latency
	P99      time.Duration
	Counted  int64 // valid votes counted across partitions
	Correct  bool  // Counted matches the sequential reference
}

// DefaultE7Configs is the sweep EXPERIMENTS.md records: the unsafe
// ceiling, per-record fsync, and group commit. Group commit has nothing to
// sweep: its batch is whatever arrives during one fsync.
func DefaultE7Configs() []E7Config {
	return []E7Config{
		{Name: "never (unsafe)", Sync: wal.SyncNever},
		{Name: "every-record", Sync: wal.SyncEveryRecord},
		{Name: "group", Sync: wal.SyncGroupCommit},
	}
}

// E7 measures durable Voter throughput per sync policy: the Call-driven
// cast_vote workload with `pipeline` concurrent clients against a fresh
// durable store per configuration. Every vote is a command-logged OLTP
// transaction whose acknowledgement waits on durability per the policy, so
// the table isolates what the fsync strategy costs: SyncEveryRecord pays
// one fsync on every transaction's critical path, while group commit
// amortizes one fsync over the whole in-flight batch — the partition
// worker keeps executing and acks are delivered as batches harden.
func E7(seed int64, votes, partitions, pipeline int, configs []E7Config) ([]E7Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	expected := voter.ExpectedValidVotes(feed, cfg.Contestants)
	var rows []E7Row
	for _, c := range configs {
		dir, err := os.MkdirTemp("", "sstore-e7")
		if err != nil {
			return nil, err
		}
		row, err := runE7Config(dir, c, feed, cfg.Contestants, partitions, pipeline, expected)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", c.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE7Config(dir string, c E7Config, feed []workload.Vote, contestants, partitions, pipeline int, expected int64) (E7Row, error) {
	st := core.Open(core.Config{
		Dir:        dir,
		Sync:       c.Sync,
		Partitions: partitions,
	})
	if err := voter.SetupOLTP(st, contestants); err != nil {
		return E7Row{}, err
	}
	if err := st.Start(); err != nil {
		return E7Row{}, err
	}

	if pipeline < 1 {
		pipeline = 1
	}
	latencies := make([][]time.Duration, pipeline)
	errs := make([]error, pipeline)
	next := make(chan workload.Vote, pipeline)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < pipeline; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, len(feed)/pipeline+1)
			for v := range next {
				s := time.Now()
				if _, err := st.Call("cast_vote",
					types.NewInt(v.Phone), types.NewInt(v.Contestant), types.NewInt(v.TS)); err != nil {
					errs[w] = err
					break
				}
				lats = append(lats, time.Since(s))
			}
			latencies[w] = lats
			for range next {
			} // drain on error so the feeder never blocks
		}(w)
	}
	for _, v := range feed {
		next <- v
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			st.Stop()
			return E7Row{}, err
		}
	}

	res, err := st.Query("SELECT SUM(n) FROM vote_counts")
	if err != nil {
		st.Stop()
		return E7Row{}, err
	}
	counted := res.Rows[0][0].Int()
	if err := st.Stop(); err != nil {
		return E7Row{}, err
	}

	q := latencyQuantiles(latencies)
	return E7Row{
		Policy:   c.Name,
		VotesSec: float64(len(feed)) / elapsed.Seconds(),
		P50:      q(0.50),
		P99:      q(0.99),
		Counted:  counted,
		Correct:  counted == expected,
	}, nil
}
