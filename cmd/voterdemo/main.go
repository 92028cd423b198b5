// Command voterdemo runs the §3.1 demonstration: the Voter-with-
// Leaderboard workload side by side on S-Store and on the naïve H-Store
// baseline, printing the leaderboards (Fig. 2), the divergence between
// the two engines (the paper's correctness claim), and the throughput
// comparison.
//
//	voterdemo                         # side-by-side with defaults
//	voterdemo -votes 20000 -pipeline 16
//	voterdemo -print-workflow         # Fig. 3 as text
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/voter"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	var (
		votes      = flag.Int("votes", 10000, "number of votes in the feed")
		seed       = flag.Int64("seed", 42, "vote feed seed")
		contest    = flag.Int("contestants", 25, "number of contestants")
		pipeline   = flag.Int("pipeline", 16, "H-Store client pipeline depth")
		printWF    = flag.Bool("print-workflow", false, "print the Fig. 3 workflow and exit")
		leaderFrom = flag.String("leaderboards", "sstore", "which engine's leaderboards to print: sstore | hstore")
	)
	flag.Parse()

	if *printWF {
		printWorkflow()
		return
	}

	cfg := workload.DefaultVoterConfig(*seed, *votes)
	cfg.Contestants = *contest
	feed := workload.Votes(cfg)
	oracle := voter.RunOracle(feed, cfg.Contestants, voter.EliminateEvery)
	fmt.Printf("feed: %d votes, %d accepted by the reference semantics, %d eliminations, winner=%d\n\n",
		len(feed), oracle.Accepted, len(oracle.Eliminations), oracle.Winner)

	// ---- S-Store ----
	ss := core.Open(core.Config{})
	if err := voter.Setup(ss, cfg.Contestants); err != nil {
		fail(err)
	}
	if err := ss.Start(); err != nil {
		fail(err)
	}
	t0 := time.Now()
	if err := voter.RunSStore(ss, feed); err != nil {
		fail(err)
	}
	ssElapsed := time.Since(t0)
	ssDiv, err := voter.Audit(ss, oracle)
	if err != nil {
		fail(err)
	}

	// ---- H-Store baseline ----
	hs := core.Open(core.Config{HStoreMode: true})
	if err := voter.SetupHStore(hs, cfg.Contestants); err != nil {
		fail(err)
	}
	if err := hs.Start(); err != nil {
		fail(err)
	}
	cl := &voter.HClient{St: hs, Pipeline: *pipeline, MaintainTrending: true}
	t0 = time.Now()
	if err := cl.Run(feed); err != nil {
		fail(err)
	}
	hsElapsed := time.Since(t0)
	hsDiv, err := voter.Audit(hs, oracle)
	if err != nil {
		fail(err)
	}

	fmt.Println("=== correctness (vs. sequential reference) ===")
	fmt.Printf("  S-Store: %s\n", ssDiv)
	fmt.Printf("  H-Store (pipeline=%d): %s\n\n", *pipeline, hsDiv)

	ssTPS := float64(len(feed)) / ssElapsed.Seconds()
	hsTPS := float64(len(feed)) / hsElapsed.Seconds()
	ssm, hsm := ss.Metrics().Snapshot(), hs.Metrics().Snapshot()
	fmt.Println("=== throughput (votes/sec, in-process) ===")
	fmt.Printf("  S-Store: %10.0f   (client->PE %d, PE->EE %d, EE-internal %d)\n",
		ssTPS, ssm[metrics.ClientToPE], ssm[metrics.PEToEE], ssm[metrics.EEInternal])
	fmt.Printf("  H-Store: %10.0f   (client->PE %d, PE->EE %d, EE-internal %d)\n",
		hsTPS, hsm[metrics.ClientToPE], hsm[metrics.PEToEE], hsm[metrics.EEInternal])
	fmt.Printf("  speedup: %.2fx\n\n", ssTPS/hsTPS)

	var lb *core.Store
	if *leaderFrom == "hstore" {
		lb = hs
	} else {
		lb = ss
	}
	top, bottom, trend, err := voter.Leaderboards(lb)
	if err != nil {
		fail(err)
	}
	fmt.Printf("=== leaderboards (%s) ===\n", *leaderFrom)
	printBoard("top 3", top)
	printBoard("bottom 3", bottom)
	printBoard("trending (last 100)", trend)

	if err := ss.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "voterdemo: stop: %v\n", err)
	}
	if err := hs.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "voterdemo: stop: %v\n", err)
	}
}

func printBoard(title string, rows []string) {
	fmt.Printf("  %-22s", title+":")
	for i, r := range rows {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(r)
	}
	fmt.Println()
}

func printWorkflow() {
	// Deploy the real graph and render the engine's own view of it —
	// the declared dataflow is the source of truth, not a hand-drawn
	// diagram.
	st := core.Open(core.Config{})
	if err := voter.Setup(st, 25); err != nil {
		fail(err)
	}
	text, err := st.ExplainDataflow("voter")
	if err != nil {
		fail(err)
	}
	if err := st.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "voterdemo: stop: %v\n", err)
	}
	fmt.Print(text, "\n")
	fmt.Print(`Leaderboard maintenance workflow (Fig. 3):

  clients ──text votes──▶ [votes_in stream]
      │ border batch (1 vote)
      ▼
  ┌──────────────┐  validated   ┌────────────────┐  removals   ┌──────────────┐
  │ SP1 validate │ ───────────▶ │ SP2 leaderboard │ ──────────▶ │ SP3 eliminate │
  │  contestants │   stream     │  vote_counts    │  (every     │  contestants  │
  │  votes       │              │  vote_totals    │  100 votes) │  votes        │
  └──────────────┘              └────────────────┘             │  vote_counts  │
                                     │                          │  trending     │
                             [w_trend ROWS 100 SLIDE 1]         │  winner       │
                                     │ EE trigger on slide      └──────────────┘
                                     ▼
                                 trending table

Shared writable tables force serial execution: SP1(b), SP2(b), SP3(b)
complete before SP1(b+1) begins (each partition runs a chain to its end
before the next batch).
`)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "voterdemo:", err)
	os.Exit(1)
}
