// Benchmarks regenerating the paper's demonstrated results, one per
// experiment in DESIGN.md §2 (E1–E6), plus engine microbenchmarks. Custom
// metrics carry the non-time results (anomaly counts, round trips per
// vote) so `go test -bench` output stands alone as the experiment record.
package sstore_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	sstore "repro"
	"repro/internal/apps/bikeshare"
	"repro/internal/apps/voter"
	"repro/internal/bench"
	"repro/internal/workload"
)

const benchSeed = 42

// ---------- E1: correctness (anomalies as metrics) ----------

func BenchmarkE1CorrectnessAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.E1(benchSeed, 4000, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		var ss, hs float64
		for _, r := range rows {
			if r.System == "S-Store" {
				ss = float64(r.Anomalies)
			} else {
				hs = float64(r.Anomalies)
			}
		}
		b.ReportMetric(ss, "sstore-anomalies")
		b.ReportMetric(hs, "hstore-anomalies@p16")
	}
}

// ---------- E2: throughput, S-Store push vs H-Store poll ----------

func benchVoterFeed(b *testing.B, n int) []workload.Vote {
	b.Helper()
	return workload.Votes(workload.DefaultVoterConfig(benchSeed, n))
}

func BenchmarkE2SStorePush(b *testing.B) {
	feed := benchVoterFeed(b, 4000)
	for _, rtt := range []time.Duration{0, 500 * time.Microsecond} {
		b.Run("rtt="+rtt.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.E2(benchSeed, len(feed), []time.Duration{rtt}, 16, 16)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.System == "S-Store(chunk=16)" {
						b.ReportMetric(r.VotesSec, "votes/s")
						if !r.Correct {
							b.Fatal("S-Store run was not correct")
						}
					}
				}
			}
		})
	}
}

func BenchmarkE2HStorePoll(b *testing.B) {
	feed := benchVoterFeed(b, 4000)
	for _, rtt := range []time.Duration{0, 500 * time.Microsecond} {
		b.Run("rtt="+rtt.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.E2(benchSeed, len(feed), []time.Duration{rtt}, 16, 16)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.System == "H-Store(p=16)" {
						b.ReportMetric(r.VotesSec, "votes/s")
					}
				}
			}
		})
	}
}

// ---------- E2TCP: throughput over a real localhost TCP deployment ----------

func BenchmarkE2TCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.E2TCP(benchSeed, 4000, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch {
			case r.Correct:
				b.ReportMetric(r.VotesSec, "sstore-tcp-votes/s")
			default:
				b.ReportMetric(r.VotesSec, "hstore-tcp-votes/s")
			}
		}
	}
}

// ---------- E3: round trips per vote ----------

func BenchmarkE3RoundTrips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.E3(benchSeed, 3000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.System {
			case "S-Store":
				b.ReportMetric(r.ClientToPE/1000, "sstore-clientPE/vote")
				b.ReportMetric(r.PEToEE/1000, "sstore-PEEE/vote")
			case "H-Store":
				b.ReportMetric(r.ClientToPE/1000, "hstore-clientPE/vote")
				b.ReportMetric(r.PEToEE/1000, "hstore-PEEE/vote")
			}
		}
	}
}

// ---------- E4: BikeShare mixed workload ----------

func BenchmarkE4BikeShareMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.E4(benchSeed, 10, 5, 30, 120)
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
		dirA, err := os.MkdirTemp("", "e5a")
		if err != nil {
			b.Fatal(err)
		}
		dirB, err := os.MkdirTemp("", "e5b")
		if err != nil {
			b.Fatal(err)
		}
		rows, err := bench.E5(dirA, dirB, benchSeed, 3000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.StateEqual {
				b.Fatalf("%s: recovered state diverged", r.Mode)
			}
			switch r.Mode {
			case "upstream-backup":
				b.ReportMetric(float64(r.LogBytes), "ub-logbytes")
				b.ReportMetric(float64(r.RecoveryDur.Milliseconds()), "ub-recovery-ms")
			case "log-all-TEs":
				b.ReportMetric(float64(r.LogBytes), "all-logbytes")
				b.ReportMetric(float64(r.RecoveryDur.Milliseconds()), "all-recovery-ms")
			}
		}
		os.RemoveAll(dirA)
		os.RemoveAll(dirB)
	}
}

// ---------- E6: multi-partition scale-out ----------

func BenchmarkE6PartitionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.E6(benchSeed, 6000, []int{1, 4}, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Correct {
				b.Fatalf("partitions=%d counted %d valid votes (reference mismatch)", r.Partitions, r.Counted)
			}
			switch r.Partitions {
			case 1:
				b.ReportMetric(r.VotesSec, "p1-votes/s")
			case 4:
				b.ReportMetric(r.VotesSec, "p4-votes/s")
				b.ReportMetric(r.Speedup, "p4-speedup")
			}
		}
	}
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
