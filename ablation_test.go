// Ablation benchmarks for the design decisions DESIGN.md §5 calls out:
// transport-level ingest batching, and native windowing + EE triggers vs.
// client-emulated window maintenance.
package sstore_test

import (
	"fmt"
	"testing"

	sstore "repro"
	"repro/internal/apps/voter"
	"repro/internal/workload"
)

// BenchmarkAblationIngestChunk sweeps the transport batching of the voter
// feed: one client message per 1/8/64 votes (TE granularity unchanged).
func BenchmarkAblationIngestChunk(b *testing.B) {
	feed := workload.Votes(workload.DefaultVoterConfig(benchSeed, 100_000))
	for _, chunk := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			st := sstore.Open(sstore.Config{})
			if err := voterSetup(st); err != nil {
				b.Fatal(err)
			}
			if err := st.Start(); err != nil {
				b.Fatal(err)
			}
			defer st.Stop()
			b.ResetTimer()
			i := 0
			for n := 0; n < b.N; n += chunk {
				rows := make([]sstore.Row, 0, chunk)
				for k := 0; k < chunk; k++ {
					v := feed[i%len(feed)]
					i++
					rows = append(rows, sstore.Row{
						sstore.Int(v.Phone), sstore.Int(v.Contestant), sstore.Int(v.TS)})
				}
				if err := st.Ingest("votes_in", rows...); err != nil {
					b.Fatal(err)
				}
			}
			st.FlushBatches()
			st.Drain()
		})
	}
}

// BenchmarkAblationWindowMaintenance compares native windowing + EE
// trigger (one ingest drives everything in-engine) against the client-
// emulated equivalent (the client issues the update statements that the
// trigger would have chained).
func BenchmarkAblationWindowMaintenance(b *testing.B) {
	build := func(native bool) *sstore.Store {
		st := sstore.Open(sstore.Config{})
		if err := st.ExecScript(`
			CREATE STREAM ticks (sym INT, ts BIGINT);
			CREATE WINDOW w ON ticks ROWS 100 SLIDE 1;
			CREATE TABLE freq (sym INT PRIMARY KEY, n BIGINT DEFAULT 0);
		`); err != nil {
			b.Fatal(err)
		}
		if err := st.RegisterProcedure(&sstore.Procedure{
			Name:    "sinkproc",
			Handler: func(ctx *sstore.ProcCtx) error { return nil },
		}); err != nil {
			b.Fatal(err)
		}
		df := &sstore.Dataflow{
			Name:  "ticks",
			Nodes: []sstore.DataflowNode{{Proc: "sinkproc", Input: "ticks", Batch: 1}},
		}
		if native {
			df.Triggers = []sstore.DataflowTrigger{{Name: "maintain", Relation: "w", Bodies: []string{
				"UPDATE freq SET n = n + 1 WHERE sym IN (SELECT sym FROM inserted)",
				"UPDATE freq SET n = n - 1 WHERE sym IN (SELECT sym FROM expired)",
			}}}
		}
		if err := st.Deploy(df); err != nil {
			b.Fatal(err)
		}
		if err := st.Start(); err != nil {
			b.Fatal(err)
		}
		for s := int64(0); s < 16; s++ {
			if _, err := st.Exec("INSERT INTO freq (sym, n) VALUES (?, 0)", sstore.Int(s)); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	b.Run("native-window", func(b *testing.B) {
		st := build(true)
		defer st.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Ingest("ticks",
				sstore.Row{sstore.Int(int64(i % 16)), sstore.Int(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
		st.Drain()
	})
	b.Run("client-emulated", func(b *testing.B) {
		st := build(false)
		defer st.Stop()
		window := make([]int64, 0, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sym := int64(i % 16)
			if err := st.Ingest("ticks", sstore.Row{sstore.Int(sym), sstore.Int(int64(i))}); err != nil {
				b.Fatal(err)
			}
			// Client-side deque + two extra client statements per tick.
			window = append(window, sym)
			if _, err := st.Exec("UPDATE freq SET n = n + 1 WHERE sym = ?", sstore.Int(sym)); err != nil {
				b.Fatal(err)
			}
			if len(window) > 100 {
				old := window[0]
				window = window[1:]
				if _, err := st.Exec("UPDATE freq SET n = n - 1 WHERE sym = ?", sstore.Int(old)); err != nil {
					b.Fatal(err)
				}
			}
		}
		st.Drain()
	})
}

// voterSetup installs the full §3.1 application via the internal package
// (shared with the experiment drivers).
func voterSetup(st *sstore.Store) error { return voter.Setup(st, 25) }
