// Benchmarks regenerating the experiments of DESIGN.md §2 (E1-E12), plus
// engine microbenchmarks. Each experiment reports its table through
// b.ReportMetric and fails when its oracle does, so
// `go test -run '^$' -bench '^BenchmarkE' -benchtime 1x .` stands alone as
// the experiment record. Sizes are the latest recorded in EXPERIMENTS.md.
package sstore_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sstore "repro"
	"repro/internal/apps/bikeshare"
	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/workload"
)

const benchSeed = 42

// reportLatency reports p50 and p99 of sorted latencies in microseconds.
func reportLatency(b *testing.B, prefix string, sorted []time.Duration) {
	b.ReportMetric(float64(quantile(sorted, 0.50).Microseconds()), prefix+"p50-us")
	b.ReportMetric(float64(quantile(sorted, 0.99).Microseconds()), prefix+"p99-us")
}

// ---------- E1: correctness (anomalies as metrics) ----------

func BenchmarkE1CorrectnessAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := E1(benchSeed, 4000, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Anomalies != 0 {
			b.Fatalf("S-Store: %s", rows[0].Detail)
		}
		b.ReportMetric(float64(rows[0].Anomalies), "sstore-anomalies")
		b.ReportMetric(float64(rows[1].Anomalies), "hstore-anomalies@p16")
	}
}

// ---------- E2: throughput, S-Store push vs H-Store poll ----------

func BenchmarkE2RTT(b *testing.B) {
	for _, rtt := range []time.Duration{0, 500 * time.Microsecond} {
		b.Run("rtt="+rtt.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := E2(benchSeed, 4000, []time.Duration{rtt}, 16, 16)
				if err != nil {
					b.Fatal(err)
				}
				if !rows[0].Correct {
					b.Fatal("S-Store run was not correct")
				}
				b.ReportMetric(rows[0].VotesSec, "sstore-votes/s")
				b.ReportMetric(rows[1].VotesSec, "hstore-votes/s")
			}
		})
	}
}

func BenchmarkE2TCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := E2TCP(benchSeed, 4000, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Correct {
			b.Fatal("S-Store over TCP was not correct")
		}
		b.ReportMetric(rows[0].VotesSec, "sstore-tcp-votes/s")
		b.ReportMetric(rows[1].VotesSec, "hstore-tcp-votes/s")
	}
}

// ---------- E3: round trips per vote ----------

func BenchmarkE3RoundTrips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := E3(benchSeed, 3000)
		if err != nil {
			b.Fatal(err)
		}
		ss, hs := rows[0], rows[1]
		if ss.ClientToPE >= hs.ClientToPE {
			b.Fatalf("S-Store paid %v client->PE trips per 1000 votes, H-Store %v", ss.ClientToPE, hs.ClientToPE)
		}
		b.ReportMetric(ss.ClientToPE/1000, "sstore-clientPE/vote")
		b.ReportMetric(ss.PEToEE/1000, "sstore-PEEE/vote")
		b.ReportMetric(hs.ClientToPE/1000, "hstore-clientPE/vote")
		b.ReportMetric(hs.PEToEE/1000, "hstore-PEEE/vote")
	}
}

// ---------- E4: BikeShare mixed workload ----------

func BenchmarkE4BikeShareMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := E4(benchSeed, 10, 5, 30, 120)
		if err != nil {
			b.Fatal(err)
		}
		if !res.InvariantsOK || res.DoubleDiscounts != 0 {
			b.Fatalf("E4 integrity failure: %+v", res)
		}
		b.ReportMetric(float64(res.GPSTuples)/res.Elapsed.Seconds(), "gps-tuples/s")
		b.ReportMetric(float64(res.Alerts), "alerts")
	}
}

// ---------- E5: recovery ----------

func BenchmarkE5Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := E5(b.TempDir(), b.TempDir(), benchSeed, 3000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.StateEqual {
				b.Fatalf("%s: recovered state diverged", r.Mode)
			}
		}
		b.ReportMetric(float64(rows[0].LogBytes), "ub-logbytes")
		b.ReportMetric(float64(rows[0].RecoveryDur.Milliseconds()), "ub-recovery-ms")
		b.ReportMetric(float64(rows[1].LogBytes), "all-logbytes")
		b.ReportMetric(float64(rows[1].RecoveryDur.Milliseconds()), "all-recovery-ms")
	}
}

// ---------- E6: multi-partition scale-out ----------

func BenchmarkE6PartitionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := E6(benchSeed, 6000, []int{1, 4}, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Correct {
				b.Fatalf("partitions=%d counted %d valid votes (reference mismatch)", r.Partitions, r.Counted)
			}
		}
		b.ReportMetric(rows[0].VotesSec, "p1-votes/s")
		b.ReportMetric(rows[1].VotesSec, "p4-votes/s")
		b.ReportMetric(rows[1].Speedup, "p4-speedup")
	}
}

// ---------- E7: durable throughput vs sync policy ----------

// BenchmarkE7SyncPolicy runs the OLTP Voter through 128 closed-loop
// clients on a durable 2-partition store under each sync policy.
func BenchmarkE7SyncPolicy(b *testing.B) {
	for _, c := range []E7Config{
		{Name: "never", Sync: wal.SyncNever},
		{Name: "every-record", Sync: wal.SyncEveryRecord},
		{Name: "group", Sync: wal.SyncGroupCommit},
	} {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := E7(benchSeed, 20000, 2, 128, []E7Config{c})
				if err != nil {
					b.Fatal(err)
				}
				if r := rows[0]; !r.Correct {
					b.Fatalf("counted %d valid votes (reference mismatch)", r.Counted)
				}
				b.ReportMetric(rows[0].VotesSec, "votes/s")
				b.ReportMetric(float64(rows[0].P50.Microseconds()), "p50-us")
				b.ReportMetric(float64(rows[0].P99.Microseconds()), "p99-us")
			}
		})
	}
}

// ---------- E10: elastic repartitioning under live load ----------

// BenchmarkE10Rebalance feeds 20 000 OLTP votes through 128 closed-loop
// clients into a volatile 2-partition store and grows it to 4 partitions
// after a third of the feed; the feed keeps flowing while slots migrate.
// The oracle is exact: SUM(vote_counts.n) and COUNT(votes) equal the
// sequential reference, so a migration that lost a row, applied one twice
// or routed a phone to two owners fails.
func BenchmarkE10Rebalance(b *testing.B) {
	const votes, from, to, contestants = 20000, 2, 4, 25
	feed := workload.Votes(workload.DefaultVoterConfig(benchSeed, votes))
	want := voter.ExpectedValidVotes(feed, contestants)
	for i := 0; i < b.N; i++ {
		st, err := startStore(core.Config{Partitions: from}, func(st *core.Store) error { return voter.SetupOLTP(st, contestants) })
		if err != nil {
			b.Fatal(err)
		}
		var done atomic.Int64
		var before, during float64
		var grown time.Time
		var doneGrown int64
		t0 := time.Now()
		_, _, err = closedLoop(votes, 128, func(i int) error {
			if i != votes/3 {
				return nil
			}
			c1, t1 := done.Load(), time.Now()
			before = float64(c1) / t1.Sub(t0).Seconds()
			if err := st.Rebalance(to); err != nil {
				return err
			}
			doneGrown, grown = done.Load(), time.Now()
			during = float64(doneGrown-c1) / grown.Sub(t1).Seconds()
			return nil
		}, func(i int) error {
			err := castVote(st, feed[i])
			done.Add(1)
			return err
		})
		after := float64(done.Load()-doneGrown) / time.Since(grown).Seconds()
		sum, serr := sumOf(st, "SELECT SUM(n) FROM vote_counts")
		cnt, cerr := sumOf(st, "SELECT COUNT(*) FROM votes")
		parts := st.NumPartitions()
		snap := st.Metrics().Snapshot()
		if err := errors.Join(err, serr, cerr, st.Stop()); err != nil {
			b.Fatal(err)
		}
		if sum != want || cnt != want || parts != to {
			b.Fatalf("SUM(n)=%d COUNT(votes)=%d on %d partitions, want %d on %d", sum, cnt, parts, want, to)
		}
		b.ReportMetric(float64(snap[metrics.SlotRowsMoved]), "rows-moved")
		b.ReportMetric(float64(snap[metrics.SlotsMigrated]), "slots-migrated")
		b.ReportMetric(float64(snap.Duration(metrics.CutoverPauseP50).Microseconds()), "pause-p50-us")
		b.ReportMetric(float64(snap.Duration(metrics.CutoverPauseP99).Microseconds()), "pause-p99-us")
		b.ReportMetric(before, "votes/s-before")
		b.ReportMetric(during, "votes/s-during")
		b.ReportMetric(after, "votes/s-after")
	}
}

// ---------- E8 / E11: multi-partition commit ----------

// BenchmarkE11MPCommit runs one logical transaction, insert a pair of rows,
// 2 000 times through 128 closed-loop clients on a durable 4-partition
// group-commit store. single: a routed procedure whose rows share the
// partition key. multi: a coordinated transaction whose rows hash
// independently, so usually onto two partitions (2PC). The multi mode
// reports how many PREPARE and DECIDE records each fsync covered. The
// oracle counts: every acked pair is stored, every multi transaction is
// one coordinated commit, and the PREPARE fsyncs account for exactly the
// PREPARE records in the logs.
func BenchmarkE11MPCommit(b *testing.B) {
	const txns, partitions = 2000, 4
	for _, mode := range []string{"single", "multi"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				st, err := startStore(core.Config{Dir: dir, Sync: wal.SyncGroupCommit, Partitions: partitions}, setupPairs)
				if err != nil {
					b.Fatal(err)
				}
				put := putPair
				if mode == "multi" {
					put = putPairMP
				}
				elapsed, lats, err := closedLoop(txns, 128, nil, func(i int) error { return put(st, int64(i), txns) })
				stored, qerr := sumOf(st, "SELECT COUNT(*) FROM pairs")
				if err := errors.Join(err, qerr, st.Stop()); err != nil {
					b.Fatal(err)
				}
				snap := st.Metrics().Snapshot() // after Stop: every fsync's batch is counted
				prepares, err := countPrepares(dir, partitions)
				if err != nil {
					b.Fatal(err)
				}
				wantMP := int64(0)
				if mode == "multi" {
					wantMP = txns
				}
				switch {
				case stored != 2*txns:
					b.Fatalf("%d rows stored, want %d", stored, 2*txns)
				case snap[metrics.MPTxns] != wantMP:
					b.Fatalf("mp_txns %d, want %d", snap[metrics.MPTxns], wantMP)
				case mode == "multi" && prepares == 0:
					b.Fatal("no PREPARE record logged")
				case int64(math.Round(float64(snap[metrics.MPPrepareBatches])*snap.Mean(metrics.MPPrepareBatchMean))) != prepares:
					b.Fatalf("%d prepare fsyncs of mean %.2f, but %d PREPARE records logged",
						snap[metrics.MPPrepareBatches], snap.Mean(metrics.MPPrepareBatchMean), prepares)
				}
				b.ReportMetric(float64(txns)/elapsed.Seconds(), "txns/s")
				reportLatency(b, "", lats)
				if mode == "multi" {
					b.ReportMetric(snap.Mean(metrics.MPPrepareBatchMean), "prepare_batch_mean")
					b.ReportMetric(float64(snap.Duration(metrics.MPVoteWaitP50).Microseconds()), "mp_vote_wait_p50-us")
					b.ReportMetric(float64(snap.Duration(metrics.MPMarkerWaitP50).Microseconds()), "mp_marker_wait_p50-us")
				}
			}
		})
	}
}

func setupPairs(st *core.Store) error {
	if err := st.ExecScript(`CREATE TABLE pairs (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT) PARTITION BY grp;`); err != nil {
		return err
	}
	return st.RegisterProcedure(&pe.Procedure{
		Name:           "put_pair",
		WriteSet:       []string{"pairs"},
		PartitionParam: 2,
		Handler: func(ctx *pe.ProcCtx) error {
			id, grp := ctx.Params[0].Int(), ctx.Params[1]
			if _, err := ctx.Exec("INSERT INTO pairs VALUES (?, ?, 1)", types.NewInt(id), grp); err != nil {
				return err
			}
			_, err := ctx.Exec("INSERT INTO pairs VALUES (?, ?, 1)", types.NewInt(id+1), grp)
			return err
		},
	})
}

// putPair inserts pair i on one partition: both rows share group key i.
func putPair(st *core.Store, i int64, _ int) error {
	_, err := st.Call("put_pair", types.NewInt(2*i), types.NewInt(i))
	return err
}

// putPairMP inserts pair i as a coordinated transaction with group keys i
// and i+txns, hashed independently. It declares its partitions up front,
// so the slots are taken in canonical order with no retry.
func putPairMP(st *core.Store, i int64, txns int) error {
	return st.MultiPartitionTxn(func(tx *core.MPTxn) error {
		grps := []int64{i, i + int64(txns)}
		pa, pb := tx.PartitionFor(types.NewInt(grps[0])), tx.PartitionFor(types.NewInt(grps[1]))
		if err := tx.Enlist(pa, pb); err != nil {
			return err
		}
		for j, part := range []int{pa, pb} {
			if _, err := tx.Exec(part, "INSERT INTO pairs VALUES (?, ?, 1)", types.NewInt(2*i+int64(j)), types.NewInt(grps[j])); err != nil {
				return err
			}
		}
		return nil
	})
}

// countPrepares counts the PREPARE records in a stopped store's partition
// logs.
func countPrepares(dir string, partitions int) (int64, error) {
	var n int64
	for p := range partitions {
		path, _ := wal.PartitionPaths(dir, p)
		if _, err := wal.ScanLog(path, func(_ uint64, payload []byte) error {
			rec, err := wal.DecodeRecord(payload)
			if err == nil && rec.Kind == pe.RecPrepare {
				n++
			}
			return err
		}); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// ---------- E12: WAL-shipped read replicas and failover ----------

// E12's load: every serving node (the primary with no replicas, else each
// follower) carries its own readers, each issuing e12ReadBatch point
// SELECTs every e12ReadPace. The writers are paced too, so every topology
// serves reads under the same write load: two writers, each e12WriteBatch
// pipelined bumps every e12WritePace.
const (
	e12Keys, e12ReadersPerNode, e12Dur = 1024, 4, 2 * time.Second
	e12ReadPace, e12ReadBatch          = 4 * time.Millisecond, 8
	e12WritePace, e12WriteBatch        = 2 * time.Millisecond, 4
)

// BenchmarkE12Replicas measures read scaling at 0, 1 and 2 followers of a
// durable 2-partition group-commit primary. With 2 followers it then stops
// the primary mid-load, promotes the most-caught-up follower and fails if
// any acknowledged bump is missing from it.
func BenchmarkE12Replicas(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runE12(b, replicas)
			}
		})
	}
}

// e12Store assembles the kv fixture: durable with group commit when dir is
// set, volatile (a follower) when it is empty.
func e12Store(dir string) (*core.Store, error) {
	cfg := core.Config{Partitions: 2, Dir: dir}
	if dir != "" {
		cfg.Sync = wal.SyncGroupCommit
	}
	st := core.Open(cfg)
	if err := st.ExecScript(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		return nil, err
	}
	for name, stmt := range map[string]string{
		"put":  "INSERT INTO kv VALUES (?, ?)",
		"bump": "UPDATE kv SET v = v + 1 WHERE k = ?",
	} {
		if err := st.RegisterProcedure(&pe.Procedure{
			Name:           name,
			WriteSet:       []string{"kv"},
			PartitionParam: 1,
			Handler: func(ctx *pe.ProcCtx) error {
				_, err := ctx.Exec(stmt, ctx.Params...)
				return err
			},
		}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func runE12(b *testing.B, replicas int) {
	st, err := e12Store(b.TempDir())
	if err == nil {
		err = st.Start()
	}
	if err != nil {
		b.Fatal(err)
	}
	primaryUp := true
	defer func() {
		if primaryUp {
			st.Stop()
		}
	}()
	for k := range e12Keys {
		if _, err := st.Call("put", types.NewInt(int64(k)), types.NewInt(0)); err != nil {
			b.Fatal(err)
		}
	}
	// The followers reach the seeded horizon before the window opens.
	followers := make([]*core.Follower, replicas)
	nodes := []func(string, ...types.Value) (*pe.Result, error){st.Query}
	if replicas > 0 {
		nodes = nil
	}
	for i := range followers {
		fst, err := e12Store("")
		if err != nil {
			b.Fatal(err)
		}
		f, err := core.NewFollower(fst, core.StoreSource{St: st}, core.FollowerOpts{})
		if err == nil {
			err = f.Run()
		}
		if err != nil {
			b.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); f.Lag() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("follower never caught up (lag %d)", f.Lag())
			}
		}
		followers[i] = f
		nodes = append(nodes, f.Query)
	}
	defer func() {
		for _, f := range followers {
			f.Stop() // a no-op on the one e12Failover promoted
		}
	}()

	nReaders := len(nodes) * e12ReadersPerNode
	lats := make([][]time.Duration, nReaders)
	errs := make([]error, nReaders+2)
	writes := make([]int, 2)
	stop := make(chan struct{})
	var rwg, wwg sync.WaitGroup
	// paced runs burst every pace until stop closes or its error is set.
	paced := func(wg *sync.WaitGroup, pace time.Duration, burst func() error, e *error) {
		defer wg.Done()
		for next := time.Now(); ; {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(time.Until(next))
			if *e = burst(); *e != nil {
				return
			}
			if next = next.Add(pace); next.Before(time.Now()) {
				next = time.Now()
			}
		}
	}
	for r := range nReaders {
		rwg.Add(1)
		q, rng := nodes[r%len(nodes)], rand.New(rand.NewSource(benchSeed+int64(r)+1))
		go paced(&rwg, e12ReadPace, func() error {
			for range e12ReadBatch {
				s := time.Now()
				if _, err := q("SELECT v FROM kv WHERE k = ?", types.NewInt(rng.Int63n(e12Keys))); err != nil {
					return err
				}
				lats[r] = append(lats[r], time.Since(s))
			}
			return nil
		}, &errs[r])
	}
	t0 := time.Now()
	for w := range writes {
		wwg.Add(1)
		rng := rand.New(rand.NewSource(benchSeed + int64(w)*7919))
		go paced(&wwg, e12WritePace, func() error {
			if time.Since(t0) >= e12Dur {
				return errStop
			}
			var futs [e12WriteBatch]<-chan pe.CallResult
			for i := range futs {
				futs[i] = st.CallAsync("bump", types.NewInt(rng.Int63n(e12Keys)))
			}
			for _, fut := range futs {
				if cr := <-fut; cr.Err != nil {
					return cr.Err
				}
				writes[w]++
			}
			return nil
		}, &errs[nReaders+w])
	}
	wwg.Wait()
	elapsed := time.Since(t0)
	// Lag while the tail is still draining, before the readers stop.
	var lag int64
	for _, f := range followers {
		lag = max(lag, f.Lag())
	}
	close(stop)
	rwg.Wait()
	for _, err := range errs {
		if err != nil && err != errStop {
			b.Fatal(err)
		}
	}
	all := slices.Concat(lats...)
	slices.Sort(all)
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "reads/s")
	b.ReportMetric(float64(writes[0]+writes[1])/elapsed.Seconds(), "writes/s")
	reportLatency(b, "read-", all)
	b.ReportMetric(float64(lag), "end-lag-records")
	if replicas == 2 {
		primaryUp = false
		rto := e12Failover(b, st, followers, int64(writes[0]+writes[1]))
		b.ReportMetric(float64(rto.Microseconds()), "failover-rto-us")
	}
}

// errStop ends a paced writer's window.
var errStop = errors.New("window closed")

// e12Failover stops the primary under a closed-loop writer, promotes the
// most-caught-up follower and times the promotion. Every bump acked before
// the stop, acked before it counting the window's, must be in the promoted
// store's SUM(v).
func e12Failover(b *testing.B, st *core.Store, followers []*core.Follower, acked int64) time.Duration {
	var n atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(benchSeed + 31337))
		for {
			if _, err := st.Call("bump", types.NewInt(rng.Int63n(e12Keys))); err != nil {
				return // the crash: stop on the first failed ack
			}
			n.Add(1)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := st.Stop(); err != nil {
		b.Fatal(err)
	}
	<-writerDone
	t0 := time.Now()
	promoted, err := core.MostCaughtUp(followers).Promote()
	if err != nil {
		b.Fatal(err)
	}
	rto := time.Since(t0)
	defer promoted.Stop()
	sum, err := sumOf(promoted, "SELECT SUM(v) FROM kv")
	if err != nil {
		b.Fatal(err)
	}
	if sum < acked+n.Load() {
		b.Fatalf("promoted follower holds %d bumps, %d were acknowledged", sum, acked+n.Load())
	}
	// One write on the promoted primary proves it serves the full role.
	if _, err := promoted.Call("put", types.NewInt(e12Keys), types.NewInt(1)); err != nil {
		b.Fatal(err)
	}
	return rto
}

// ---------- engine microbenchmarks ----------

// BenchmarkVoterVoteSStore measures per-vote cost through the full
// SP1→SP2(→SP3) workflow, amortized, at three contestant-pool sizes: the
// window trigger's cost must depend on the delta (one vote in, one out),
// not on how many rows `trending` holds, so the three should be level.
func BenchmarkVoterVoteSStore(b *testing.B) {
	for _, contestants := range []int{25, 250, 2000} {
		b.Run(fmt.Sprintf("contestants=%d", contestants), func(b *testing.B) {
			st := sstore.Open(sstore.Config{})
			if err := voter.Setup(st, contestants); err != nil {
				b.Fatal(err)
			}
			if err := st.Start(); err != nil {
				b.Fatal(err)
			}
			defer st.Stop()
			cfg := workload.DefaultVoterConfig(benchSeed, 200_000)
			cfg.Contestants = contestants
			feed := workload.Votes(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := feed[i%len(feed)]
				if err := st.Ingest("votes_in",
					sstore.Row{sstore.Int(v.Phone), sstore.Int(v.Contestant), sstore.Int(v.TS)}); err != nil {
					b.Fatal(err)
				}
			}
			st.FlushBatches()
			st.Drain()
		})
	}
}

// BenchmarkOLTPCall measures a single-statement OLTP procedure round trip
// through the partition engine.
func BenchmarkOLTPCall(b *testing.B) {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript("CREATE TABLE t (k INT PRIMARY KEY, v BIGINT)"); err != nil {
		b.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "put",
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO t VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Call("put", sstore.Int(int64(i)), sstore.Int(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures what a checkpoint holds (DESIGN.md §1.4): 4
// partitions and 200 000 rows, with one goroutine calling a keyed procedure
// in a closed loop while each Checkpoint runs. hold-ns is the longest call
// latency among the calls that overlap a checkpoint, the worst over the
// checkpoints; calls-during is the calls acknowledged while one ran, per
// checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	const rows, chunk = 200_000, 1000
	st := sstore.Open(sstore.Config{Dir: b.TempDir(), Partitions: 4})
	if err := st.ExecScript("CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k"); err != nil {
		b.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name:           "bump",
		WriteSet:       []string{"kv"},
		PartitionParam: 1,
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", ctx.Params[0])
			return err
		},
	}); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	insert := "INSERT INTO kv VALUES (?, 0)" + strings.Repeat(", (?, 0)", chunk-1)
	params := make([]sstore.Value, chunk)
	for k := 0; k < rows; k += chunk {
		for i := range params {
			params[i] = sstore.Int(int64(k + i))
		}
		if _, err := st.Exec(insert, params...); err != nil {
			b.Fatal(err)
		}
	}
	var hold time.Duration
	calls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type call struct{ start, end time.Time }
		var log []call
		stop, running, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			for k := 0; ; k++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				start := time.Now()
				if _, err := st.Call("bump", sstore.Int(int64(k*7919%rows))); err != nil {
					done <- err
					return
				}
				log = append(log, call{start, time.Now()})
				if k == 0 {
					close(running)
				}
			}
		}()
		<-running
		from := time.Now()
		err := st.Checkpoint()
		to := time.Now()
		close(stop)
		if err := errors.Join(err, <-done); err != nil {
			b.Fatal(err)
		}
		for _, c := range log {
			if c.start.Before(to) && c.end.After(from) {
				hold = max(hold, c.end.Sub(c.start))
			}
			if c.end.After(from) && c.end.Before(to) {
				calls++
			}
		}
	}
	b.ReportMetric(float64(hold.Nanoseconds()), "hold-ns")
	b.ReportMetric(float64(calls)/float64(b.N), "calls-during")
}

// BenchmarkWindowSlide measures native tuple-window maintenance per tuple.
func BenchmarkWindowSlide(b *testing.B) {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript(`
		CREATE STREAM s (v BIGINT);
		CREATE WINDOW w ON s ROWS 100 SLIDE 1;
	`); err != nil {
		b.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name:    "noop",
		Handler: func(ctx *sstore.ProcCtx) error { return nil },
	}); err != nil {
		b.Fatal(err)
	}
	if err := st.Deploy(&sstore.Dataflow{
		Name:  "s",
		Nodes: []sstore.DataflowNode{{Proc: "noop", Input: "s", Batch: 64}},
	}); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	row := sstore.Row{sstore.Int(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Ingest("s", row); err != nil {
			b.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
}

// BenchmarkGPSIngest measures the BikeShare streaming stage end to end.
func BenchmarkGPSIngest(b *testing.B) {
	st := sstore.Open(sstore.Config{})
	if err := bikeshare.Setup(st, 10, 5, 20); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	points := workload.GPS(workload.DefaultBikeConfig(benchSeed, 50, 400))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		// keep event time moving forward so the time window slides
		p.TS += int64(i/len(points)) * 400_000_000
		if err := bikeshare.IngestGPS(st, []workload.GPSPoint{p}); err != nil {
			b.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
}

// BenchmarkAdHocQuery measures the read-only query path (monitoring GUIs).
func BenchmarkAdHocQuery(b *testing.B) {
	st := sstore.Open(sstore.Config{})
	if err := voter.Setup(st, 25); err != nil {
		b.Fatal(err)
	}
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	if err := voter.RunSStore(st, workload.Votes(workload.DefaultVoterConfig(benchSeed, 500))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(`SELECT c.name, vc.n FROM vote_counts vc
			JOIN contestants c ON c.id = vc.contestant
			ORDER BY vc.n DESC, c.id ASC LIMIT 3`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerRoundTrip times kv-mixed's three reads, mp-pair's
// whole-table count and its pair write over loopback TCP (kvOverTCP) with
// B/op and allocs/op, every goroutine's, client included.
func BenchmarkServerRoundTrip(b *testing.B) {
	reads := kvOverTCP(b)
	for _, name := range []string{"point", "range", "agg", "count", "pair"} {
		b.Run(name, func(b *testing.B) {
			read := reads[name]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}
