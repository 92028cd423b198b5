// Experiment drivers (DESIGN.md §2). E1-E7 return their table's rows, which
// the root benchmarks report through b.ReportMetric and the driver tests
// check small; E10-E12 live in their benchmarks (bench_test.go).
package sstore_test

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/apps/bikeshare"
	"repro/internal/apps/voter"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/workload"
)

// startStore opens a store, runs setup on it and starts it.
func startStore(cfg core.Config, setup func(*core.Store) error) (*core.Store, error) {
	st := core.Open(cfg)
	if err := setup(st); err != nil {
		return nil, err
	}
	if err := st.Start(); err != nil {
		return nil, err
	}
	return st, nil
}

func newVoterSStore(contestants int) (*core.Store, error) {
	return startStore(core.Config{}, func(st *core.Store) error { return voter.Setup(st, contestants) })
}

func newVoterHStore(contestants int) (*core.Store, error) {
	return startStore(core.Config{HStoreMode: true}, func(st *core.Store) error { return voter.SetupHStore(st, contestants) })
}

// voteRow is a vote as a votes_in tuple.
func voteRow(v workload.Vote) types.Row {
	return types.Row{types.NewInt(v.Phone), types.NewInt(v.Contestant), types.NewInt(v.TS)}
}

func voteRows(votes []workload.Vote) []types.Row {
	rows := make([]types.Row, len(votes))
	for i, v := range votes {
		rows[i] = voteRow(v)
	}
	return rows
}

// castVote runs one OLTP vote (E7, E10).
func castVote(st *core.Store, v workload.Vote) error {
	_, err := st.Call("cast_vote", voteRow(v)...)
	return err
}

// closedLoop is the closed-loop client of E7, E10 and E11: clients workers
// take the operations 0..n-1 in order from one feed and run each one
// synchronously, timing it. feed, when non-nil, runs on the feeding
// goroutine before operation i is handed out. The first error stops the
// feed; workers drain what is queued without running it. It returns the
// wall time and every latency, sorted.
func closedLoop(n, clients int, feed, op func(i int) error) (time.Duration, []time.Duration, error) {
	next := make(chan int, clients)
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients+1)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[w] != nil {
					continue
				}
				s := time.Now()
				if errs[w] = op(i); errs[w] == nil {
					lats[w] = append(lats[w], time.Since(s))
				}
			}
		}()
	}
	for i := 0; i < n && errs[clients] == nil; i++ {
		if feed != nil {
			errs[clients] = feed(i)
		}
		if errs[clients] == nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)
	all := slices.Concat(lats...)
	slices.Sort(all)
	return elapsed, all, errors.Join(errs...)
}

// quantile is the p-quantile of sorted latencies.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// ---------- E1: correctness under pipelining ----------

type E1Row struct {
	System    string
	Pipeline  int
	Anomalies int
	Detail    string
}

// E1 runs the §3.1 correctness comparison: the same seeded vote feed
// through S-Store and through the H-Store baseline at several client
// pipeline depths, auditing each final state against the sequential
// reference semantics.
func E1(seed int64, votes int, pipelines []int) ([]E1Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	// Uniform popularity keeps bottom candidates tied, making elimination
	// order maximally sensitive to the §3.1 ordering races.
	cfg.Skew = 0
	feed := workload.Votes(cfg)
	oracle := voter.RunOracle(feed, cfg.Contestants, voter.EliminateEvery)
	audit := func(st *core.Store, system string, p int) (E1Row, error) {
		d, err := voter.Audit(st, oracle)
		st.Stop()
		if err != nil {
			return E1Row{}, err
		}
		return E1Row{System: system, Pipeline: p, Anomalies: d.Anomalies(), Detail: d.String()}, nil
	}
	ss, err := newVoterSStore(cfg.Contestants)
	if err != nil {
		return nil, err
	}
	if err := voter.RunSStore(ss, feed); err != nil {
		return nil, err
	}
	row, err := audit(ss, "S-Store", 0)
	if err != nil {
		return nil, err
	}
	rows := []E1Row{row}
	for _, p := range pipelines {
		hs, err := newVoterHStore(cfg.Contestants)
		if err != nil {
			return nil, err
		}
		if err := (&voter.HClient{St: hs, Pipeline: p, MaintainTrending: true}).Run(feed); err != nil {
			return nil, err
		}
		row, err := audit(hs, "H-Store", p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------- E2: throughput vs round-trip time ----------

type E2Row struct {
	System   string
	RTT      time.Duration
	VotesSec float64
	Correct  bool
}

// simWait delays for d with microsecond accuracy: time.Sleep rounds small
// waits up to the host timer granularity (≈1ms on stock kernels), which
// would distort sub-millisecond RTT experiments, so short waits spin.
func simWait(d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
	}
}

// rttTransport wraps an engine's async call path with a simulated network
// round trip; concurrent in-flight calls overlap their RTTs, exactly like
// a pipelined connection.
func rttTransport(st *core.Store, rtt time.Duration) func(string, ...types.Value) <-chan pe.CallResult {
	return func(proc string, params ...types.Value) <-chan pe.CallResult {
		out := make(chan pe.CallResult, 1)
		go func() {
			simWait(rtt / 2) // request propagation
			cr := <-st.CallAsync(proc, params...)
			simWait(rtt / 2) // response propagation
			out <- cr
		}()
		return out
	}
}

// E2 measures end-to-end vote throughput for both systems across simulated
// client↔server round-trip times. S-Store pushes votes (one message per
// chunk); the baseline drives the workflow per stage and must wait for
// responses, so its effective rate collapses as RTT grows — the paper's
// throughput demonstration.
func E2(seed int64, votes int, rtts []time.Duration, hPipeline, ssChunk int) ([]E2Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	oracle := voter.RunOracle(feed, cfg.Contestants, voter.EliminateEvery)
	var rows []E2Row
	run := func(st *core.Store, system string, rtt time.Duration, drive func() error) error {
		t0 := time.Now()
		if err := drive(); err != nil {
			return err
		}
		el := time.Since(t0)
		d, err := voter.Audit(st, oracle)
		st.Stop()
		if err != nil {
			return err
		}
		rows = append(rows, E2Row{System: system, RTT: rtt, VotesSec: float64(len(feed)) / el.Seconds(), Correct: d.IsClean()})
		return nil
	}
	for _, rtt := range rtts {
		ss, err := newVoterSStore(cfg.Contestants)
		if err != nil {
			return nil, err
		}
		if err := run(ss, fmt.Sprintf("S-Store(chunk=%d)", ssChunk), rtt, func() error {
			return runSStoreRTT(ss, feed, rtt, ssChunk)
		}); err != nil {
			return nil, err
		}
		hs, err := newVoterHStore(cfg.Contestants)
		if err != nil {
			return nil, err
		}
		cl := &voter.HClient{St: hs, Pipeline: hPipeline, MaintainTrending: true, Transport: rttTransport(hs, rtt)}
		if err := run(hs, fmt.Sprintf("H-Store(p=%d)", hPipeline), rtt, func() error { return cl.Run(feed) }); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runSStoreRTT paces chunked ingest messages by one RTT each (the push
// interface needs no response before the next message, but a TCP client
// still pays propagation per message; charging the full RTT is the
// conservative model).
func runSStoreRTT(st *core.Store, feed []workload.Vote, rtt time.Duration, chunk int) error {
	for i := 0; i < len(feed); i += chunk {
		simWait(rtt)
		if err := st.Ingest("votes_in", voteRows(feed[i:min(i+chunk, len(feed))])...); err != nil {
			return err
		}
	}
	st.FlushBatches()
	st.Drain()
	return nil
}

// ---------- E2TCP: E2 over real TCP on localhost ----------

type E2TCPRow struct {
	System     string
	VotesSec   float64
	ClientToPE int64 // client→PE crossings the store counted
	Correct    bool
}

// E2TCP runs the §3.1 throughput comparison over real TCP on localhost —
// the closest substitute for the paper's live client-server demo. The
// S-Store client pushes chunked ingest messages over one connection; the
// H-Store client drives the workflow over a pool of `pipeline`
// connections (one in-flight call each).
func E2TCP(seed int64, votes, pipeline, ssChunk int) ([]E2TCPRow, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	oracle := voter.RunOracle(feed, cfg.Contestants, voter.EliminateEvery)
	var rows []E2TCPRow
	run := func(st *core.Store, system string, conns int, drive func(conns []*client.TCP) error) error {
		defer st.Stop()
		srv := server.New(st)
		srv.Logf = func(string, ...any) {}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
		cs := make([]*client.TCP, conns)
		for i := range cs {
			c, err := client.DialTCP(srv.Addr())
			if err != nil {
				return err
			}
			defer c.Close()
			cs[i] = c
		}
		t0 := time.Now()
		if err := drive(cs); err != nil {
			return err
		}
		el := time.Since(t0)
		crossings := st.Metrics().Snapshot()[metrics.ClientToPE]
		d, err := voter.Audit(st, oracle)
		if err != nil {
			return err
		}
		rows = append(rows, E2TCPRow{System: system, VotesSec: float64(len(feed)) / el.Seconds(),
			ClientToPE: crossings, Correct: d.IsClean()})
		return nil
	}
	ss, err := newVoterSStore(cfg.Contestants)
	if err != nil {
		return nil, err
	}
	if err := run(ss, fmt.Sprintf("S-Store/tcp(chunk=%d)", ssChunk), 1, func(cs []*client.TCP) error {
		for i := 0; i < len(feed); i += ssChunk {
			if err := cs[0].Ingest("votes_in", voteRows(feed[i:min(i+ssChunk, len(feed))])...); err != nil {
				return err
			}
		}
		return cs[0].Flush()
	}); err != nil {
		return nil, err
	}
	hs, err := newVoterHStore(cfg.Contestants)
	if err != nil {
		return nil, err
	}
	if err := run(hs, fmt.Sprintf("H-Store/tcp(p=%d)", pipeline), pipeline, func(cs []*client.TCP) error {
		cl := &voter.HClient{St: hs, Pipeline: pipeline, MaintainTrending: true, Transport: poolTransport(cs)}
		return cl.Run(feed)
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// poolTransport round-robins calls across TCP connections, each carrying
// one request at a time — a pipelined client without reordering within a
// connection.
func poolTransport(conns []*client.TCP) func(string, ...types.Value) <-chan pe.CallResult {
	var mu sync.Mutex
	next := 0
	return func(proc string, params ...types.Value) <-chan pe.CallResult {
		mu.Lock()
		c := conns[next%len(conns)]
		next++
		mu.Unlock()
		out := make(chan pe.CallResult, 1)
		go func() {
			resp, err := c.Call(proc, params...)
			if err != nil {
				out <- pe.CallResult{Err: err}
				return
			}
			out <- pe.CallResult{Result: &pe.Result{Columns: resp.Columns, Rows: resp.Rows, RowsAffected: int(resp.RowsAffected)}}
		}()
		return out
	}
}

// ---------- E3: round-trip accounting ----------

// E3Row reports layer crossings per 1000 input votes.
type E3Row struct {
	System     string
	ClientToPE float64
	PEToEE     float64
	EEInternal float64
}

// E3 counts the layer crossings both systems pay for the same feed — the
// mechanism behind E2 (paper: fewer client→PE trips from push-based
// workflows, fewer PE→EE trips from native windowing).
func E3(seed int64, votes int) ([]E3Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	per1k := func(n int64) float64 { return float64(n) * 1000 / float64(len(feed)) }
	row := func(st *core.Store, system string) E3Row {
		m := st.Metrics().Snapshot()
		st.Stop()
		return E3Row{System: system, ClientToPE: per1k(m[metrics.ClientToPE]), PEToEE: per1k(m[metrics.PEToEE]), EEInternal: per1k(m[metrics.EEInternal])}
	}
	ss, err := newVoterSStore(cfg.Contestants)
	if err != nil {
		return nil, err
	}
	if err := voter.RunSStore(ss, feed); err != nil {
		return nil, err
	}
	rows := []E3Row{row(ss, "S-Store")}
	hs, err := newVoterHStore(cfg.Contestants)
	if err != nil {
		return nil, err
	}
	if err := (&voter.HClient{St: hs, Pipeline: 1, MaintainTrending: true}).Run(feed); err != nil {
		return nil, err
	}
	return append(rows, row(hs, "H-Store")), nil
}

// ---------- E4: BikeShare mixed workload ----------

// E4Result summarizes the §3.2 mixed-workload run.
type E4Result struct {
	OLTPTxns        int64
	GPSTuples       int64
	WindowSlides    int64
	Alerts          int64
	CompletedRides  int64
	DoubleDiscounts int64
	Elapsed         time.Duration
	InvariantsOK    bool
}

// E4 runs the BikeShare scenario: OLTP churn, the GPS stream, and discount
// accept/expire races, then checks the global invariants and that no
// discount was double-assigned.
func E4(seed int64, stations, bikesPer, riders, ticks int) (*E4Result, error) {
	st, err := startStore(core.Config{}, func(st *core.Store) error { return bikeshare.Setup(st, stations, bikesPer, riders) })
	if err != nil {
		return nil, err
	}
	defer st.Stop()

	gcfg := workload.DefaultBikeConfig(seed, stations*bikesPer, ticks)
	gcfg.StolenPct = 2
	points := workload.GPS(gcfg)
	perTick := len(points) / ticks
	ts := int64(1_700_000_000_000_000)
	res := &E4Result{}
	call := func(proc string, params ...int64) {
		vs := make([]types.Value, len(params))
		for i, p := range params {
			vs[i] = types.NewInt(p)
		}
		_, _ = st.Call(proc, vs...)
		res.OLTPTxns++
	}
	t0 := time.Now()
	for tick := 0; tick < ticks; tick++ {
		ts += 1_000_000
		// Each rider checks out on one tick and returns on the next, at a
		// station that advances each visit, then tries to grab whatever
		// discount is open there.
		rider, stn := int64(1+(tick/2)%riders), int64(1+tick%stations)
		if tick%2 == 0 {
			call("bs_checkout", rider, stn, ts)
		} else {
			call("bs_return", rider, stn, ts)
		}
		call("bs_accept_discount", rider, stn, ts)
		if lo := tick * perTick; lo < len(points) {
			if err := bikeshare.IngestGPS(st, points[lo:min(lo+perTick, len(points))]); err != nil {
				return nil, err
			}
		}
		if tick%15 == 0 {
			call("bs_expire_discounts", ts)
		}
	}
	st.FlushBatches()
	st.Drain()
	res.Elapsed = time.Since(t0)

	m := st.Metrics().Snapshot()
	res.GPSTuples, res.WindowSlides = m[metrics.TuplesIngested], m[metrics.WindowSlides]
	if q, err := st.Query("SELECT COUNT(*) FROM alerts"); err == nil {
		res.Alerts = q.Rows[0][0].Int()
	}
	if q, err := st.Query("SELECT COUNT(*) FROM rides WHERE active = 0"); err == nil {
		res.CompletedRides = q.Rows[0][0].Int()
	}
	// A station's discount row is unique by PK: a double assignment shows
	// as a station with two rows.
	if q, err := st.Query(`SELECT COUNT(*) FROM discounts GROUP BY station HAVING COUNT(*) > 1`); err == nil {
		res.DoubleDiscounts = int64(len(q.Rows))
	}
	res.InvariantsOK = bikeshare.Invariants(st) == nil
	return res, nil
}

// ---------- E5: fault tolerance ----------

// E5Row compares the two logging modes.
type E5Row struct {
	Mode        string
	LogRecords  int64
	LogBytes    int64
	RecoveryDur time.Duration
	StateEqual  bool
}

// E5 runs the same voter feed under upstream backup (border-only logging)
// and full per-TE logging, crashes, recovers, and reports log volume vs
// recovery time, verifying both recover the identical state.
func E5(dirA, dirB string, seed int64, votes int) ([]E5Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	oracle := voter.RunOracle(feed, cfg.Contestants, voter.EliminateEvery)
	setup := func(st *core.Store) error { return voter.Setup(st, cfg.Contestants) }
	run := func(dir string, mode pe.LogMode, name string) (E5Row, error) {
		st, err := startStore(core.Config{Dir: dir, LogMode: mode}, setup)
		if err != nil {
			return E5Row{}, err
		}
		if err := voter.RunSStore(st, feed); err != nil {
			return E5Row{}, err
		}
		m := st.Metrics().Snapshot()
		st.Stop() // crash point

		t0 := time.Now()
		st2, err := startStore(core.Config{Dir: dir, LogMode: mode}, setup)
		if err != nil {
			return E5Row{}, err
		}
		rec := time.Since(t0)
		d, err := voter.Audit(st2, oracle)
		st2.Stop()
		if err != nil {
			return E5Row{}, err
		}
		return E5Row{Mode: name, LogRecords: m[metrics.LogRecords], LogBytes: m[metrics.LogBytes], RecoveryDur: rec, StateEqual: d.IsClean()}, nil
	}
	a, err := run(dirA, pe.LogBorderOnly, "upstream-backup")
	if err != nil {
		return nil, err
	}
	b, err := run(dirB, pe.LogAllTEs, "log-all-TEs")
	if err != nil {
		return nil, err
	}
	return []E5Row{a, b}, nil
}

// ---------- E6: multi-partition scale-out ----------

type E6Row struct {
	Partitions int
	VotesSec   float64
	Speedup    float64 // vs the first row of the same run
	Counted    int64   // valid votes counted across all partitions
	Correct    bool    // Counted matches the sequential reference
}

// E6 runs the partitioned Voter ingest workload (validate → count, with a
// partition-local trending window) at each requested partition count over
// the identical feed, and reports throughput scaling versus the first
// count. Two effects add up: partition workers run in parallel on
// independent serial engines, and each partition's working set — the
// votes shard the per-vote support probe scans — shrinks by the partition
// factor.
func E6(seed int64, votes int, partitionCounts []int, chunk int) ([]E6Row, error) {
	cfg := workload.DefaultVoterConfig(seed, votes)
	feed := workload.Votes(cfg)
	expected := voter.ExpectedValidVotes(feed, cfg.Contestants)
	var rows []E6Row
	var base float64
	for _, n := range partitionCounts {
		st, err := startStore(core.Config{Partitions: n}, func(st *core.Store) error { return voter.SetupPartitioned(st, cfg.Contestants) })
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := voter.RunPartitioned(st, feed, chunk); err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		counted, err := sumOf(st, "SELECT SUM(n) FROM vote_counts")
		if err := errors.Join(err, st.Stop()); err != nil {
			return nil, err
		}
		r := E6Row{Partitions: n, VotesSec: float64(len(feed)) / elapsed.Seconds(), Counted: counted, Correct: counted == expected}
		if len(rows) == 0 {
			base = r.VotesSec
		}
		r.Speedup = r.VotesSec / base
		rows = append(rows, r)
	}
	return rows, nil
}

// sumOf runs a one-cell aggregate query.
func sumOf(st *core.Store, q string) (int64, error) {
	res, err := st.Query(q)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int(), nil
}

// ---------- E7: durable throughput vs sync policy ----------

// E7Config is one sync-policy configuration under test.
type E7Config struct {
	Name string
	Sync wal.SyncPolicy
}

type E7Row struct {
	Policy   string
	VotesSec float64
	P50      time.Duration // client-observed Call latency
	P99      time.Duration
	Counted  int64 // valid votes counted across partitions
	Correct  bool  // Counted matches the sequential reference
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
		defer os.RemoveAll(dir)
		st, err := startStore(core.Config{Dir: dir, Sync: c.Sync, Partitions: partitions},
			func(st *core.Store) error { return voter.SetupOLTP(st, cfg.Contestants) })
		if err != nil {
			return nil, err
		}
		elapsed, lats, err := closedLoop(len(feed), pipeline, nil, func(i int) error { return castVote(st, feed[i]) })
		counted, qerr := sumOf(st, "SELECT SUM(n) FROM vote_counts")
		if err := errors.Join(err, qerr, st.Stop()); err != nil {
			return nil, fmt.Errorf("E7 %s: %w", c.Name, err)
		}
		rows = append(rows, E7Row{Policy: c.Name, VotesSec: float64(len(feed)) / elapsed.Seconds(),
			P50: quantile(lats, 0.50), P99: quantile(lats, 0.99), Counted: counted, Correct: counted == expected})
	}
	return rows, nil
}
