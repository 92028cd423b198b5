// Command benchrunner regenerates every experiment table recorded in
// EXPERIMENTS.md. Run it with no flags for the full suite, or -e to pick
// one experiment.
//
//	benchrunner            # E1..E8, E10..E12
//	benchrunner -e E2 -votes 6000
//	benchrunner -e E6 -votes 40000
//	benchrunner -e E7 -votes 20000 -json BENCH_E7.json
//	benchrunner -e E8 -txns 5000 -json BENCH_E8.json
//	benchrunner -e E10 -votes 20000 -json BENCH_E10.json
//	benchrunner -e E11 -txns 5000 -partitions 4 -json BENCH_E11.json
//	benchrunner -e E12 -readers 4 -dur 2s -json BENCH_E12.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("e", "all", "experiment to run: E1 E2 E2TCP E3 E4 E5 E6 E7 E8 E10 E11 E12 all")
		votes    = flag.Int("votes", 6000, "voter feed size")
		seed     = flag.Int64("seed", 42, "workload seed")
		jsonOut  = flag.String("json", "", "write machine-readable E7/E8/E10/E11/E12 results to this file")
		parts    = flag.Int("partitions", 2, "E7/E8/E11: partition count")
		pipeline = flag.Int("pipeline", 128, "E7/E8/E11: concurrent clients")
		txns     = flag.Int("txns", 5000, "E8/E11: pair-insert transactions per mode")
		readers  = flag.Int("readers", 8, "E12: readers per serving node")
		keys     = flag.Int("keys", 1024, "E12: rows in the read/update table")
		dur      = flag.Duration("dur", time.Second, "E12: measured duration per mode")
	)
	flag.Parse()
	run := func(name string, fn func() error) {
		if *exp != "all" && !strings.EqualFold(*exp, name) {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("E1", func() error {
		rows, err := bench.E1(*seed, *votes, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-9s %-10s %s\n", "system", "pipeline", "anomalies", "detail")
		for _, r := range rows {
			pl := "-"
			if r.Pipeline > 0 {
				pl = fmt.Sprint(r.Pipeline)
			}
			fmt.Printf("%-10s %-9s %-10d %s\n", r.System, pl, r.Anomalies, r.Detail)
		}
		return nil
	})

	run("E2", func() error {
		rtts := []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
		rows, err := bench.E2(*seed, *votes, rtts, 16, 16)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-10s %-12s %s\n", "system", "RTT", "votes/sec", "correct")
		for _, r := range rows {
			fmt.Printf("%-18s %-10s %-12.0f %v\n", r.System, r.RTT, r.VotesSec, r.Correct)
		}
		return nil
	})

	run("E2TCP", func() error {
		rows, err := bench.E2TCP(*seed, *votes, 16, 16)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %-12s %s\n", "system", "votes/sec", "correct")
		for _, r := range rows {
			fmt.Printf("%-24s %-12.0f %v\n", r.System, r.VotesSec, r.Correct)
		}
		return nil
	})

	run("E3", func() error {
		rows, err := bench.E3(*seed, *votes)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-14s %-12s %-12s (per 1000 votes)\n", "system", "client->PE", "PE->EE", "EE-internal")
		for _, r := range rows {
			fmt.Printf("%-10s %-14.0f %-12.0f %-12.0f\n", r.System, r.ClientToPE, r.PEToEE, r.EEInternal)
		}
		return nil
	})

	run("E4", func() error {
		res, err := bench.E4(*seed, 20, 6, 60, 300)
		if err != nil {
			return err
		}
		fmt.Printf("OLTP txns        : %d\n", res.OLTPTxns)
		fmt.Printf("GPS tuples       : %d\n", res.GPSTuples)
		fmt.Printf("window slides    : %d\n", res.WindowSlides)
		fmt.Printf("stolen alerts    : %d\n", res.Alerts)
		fmt.Printf("completed rides  : %d\n", res.CompletedRides)
		fmt.Printf("double discounts : %d (must be 0)\n", res.DoubleDiscounts)
		fmt.Printf("invariants hold  : %v\n", res.InvariantsOK)
		fmt.Printf("elapsed          : %s (%.0f GPS tuples/sec)\n",
			res.Elapsed, float64(res.GPSTuples)/res.Elapsed.Seconds())
		return nil
	})

	run("E5", func() error {
		dirA, err := os.MkdirTemp("", "sstore-e5a")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dirA)
		dirB, err := os.MkdirTemp("", "sstore-e5b")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dirB)
		rows, err := bench.E5(dirA, dirB, *seed, *votes)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-12s %-12s %-14s %s\n", "mode", "records", "bytes", "recovery", "state==reference")
		for _, r := range rows {
			fmt.Printf("%-16s %-12d %-12d %-14s %v\n", r.Mode, r.LogRecords, r.LogBytes, r.RecoveryDur, r.StateEqual)
		}
		return nil
	})

	run("E6", func() error {
		rows, err := bench.E6(*seed, *votes, []int{1, 2, 4, 8}, 16)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-12s %-9s %-10s %s\n", "partitions", "votes/sec", "speedup", "counted", "correct")
		for _, r := range rows {
			fmt.Printf("%-12d %-12.0f %-9.2f %-10d %v\n", r.Partitions, r.VotesSec, r.Speedup, r.Counted, r.Correct)
		}
		return nil
	})

	run("E7", func() error {
		rows, err := bench.E7(*seed, *votes, *parts, *pipeline, bench.DefaultE7Configs())
		if err != nil {
			return err
		}
		var base float64
		for _, r := range rows {
			if r.Policy == "every-record" {
				base = r.VotesSec
			}
		}
		fmt.Printf("%-18s %-12s %-10s %-10s %-9s %-10s %s\n",
			"policy", "votes/sec", "p50", "p99", "vs-every", "counted", "correct")
		for _, r := range rows {
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", r.VotesSec/base)
			}
			fmt.Printf("%-18s %-12.0f %-10s %-10s %-9s %-10d %v\n",
				r.Policy, r.VotesSec, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
				speedup, r.Counted, r.Correct)
		}
		if *jsonOut != "" {
			if err := writeE7JSON(*jsonOut, *seed, *votes, *parts, *pipeline, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	run("E8", func() error {
		rows, err := bench.E8(*seed, *txns, *parts, *pipeline)
		if err != nil {
			return err
		}
		var base float64
		for _, r := range rows {
			if r.Mode == "single-partition" {
				base = r.TxnsSec
			}
		}
		fmt.Printf("%-18s %-12s %-10s %-10s %-10s %-8s %s\n",
			"mode", "txns/sec", "p50", "p99", "vs-single", "rows", "correct")
		for _, r := range rows {
			ratio := "-"
			if base > 0 {
				ratio = fmt.Sprintf("%.2fx", r.TxnsSec/base)
			}
			fmt.Printf("%-18s %-12.0f %-10s %-10s %-10s %-8d %v\n",
				r.Mode, r.TxnsSec, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
				ratio, r.Rows, r.Correct)
		}
		if *jsonOut != "" {
			if err := writeE8JSON(*jsonOut, *seed, *txns, *parts, *pipeline, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	run("E10", func() error {
		res, err := bench.E10(*seed, *votes, *parts, *parts*2, *pipeline)
		if err != nil {
			return err
		}
		fmt.Printf("partitions       : %d -> %d (%d slots, %d rows moved)\n",
			res.PartsFrom, res.PartsTo, res.SlotsMigrated, res.RowsMoved)
		fmt.Printf("votes/sec        : before %.0f, during %.0f, after %.0f\n",
			res.VotesSecBefore, res.VotesSecDuring, res.VotesSecAfter)
		fmt.Printf("rebalance wall   : %s\n", res.RebalanceWall.Round(time.Millisecond))
		fmt.Printf("cutover pause    : p50 %s, p99 %s (budget %s, within: %v)\n",
			res.PauseP50.Round(time.Microsecond), res.PauseP99.Round(time.Microsecond),
			res.PauseBudget, res.WithinBudget)
		fmt.Printf("oracle match     : %v\n", res.Correct)
		if *jsonOut != "" {
			if err := writeE10JSON(*jsonOut, *seed, res); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	run("E11", func() error {
		rows, stats, err := bench.E11(*seed, *txns, *parts, *pipeline)
		if err != nil {
			return err
		}
		var base float64
		for _, r := range rows {
			if r.Mode == "single-partition" {
				base = r.TxnsSec
			}
		}
		fmt.Printf("%-18s %-12s %-10s %-10s %-10s %-8s %s\n",
			"mode", "txns/sec", "p50", "p99", "vs-single", "rows", "correct")
		for _, r := range rows {
			ratio := "-"
			if base > 0 {
				ratio = fmt.Sprintf("%.2fx", r.TxnsSec/base)
			}
			fmt.Printf("%-18s %-12.0f %-10s %-10s %-10s %-8d %v\n",
				r.Mode, r.TxnsSec, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
				ratio, r.Rows, r.Correct)
		}
		fmt.Printf("force batching: %d prepare fsyncs (mean %.1f records), %d decide fsyncs (mean %.1f records) over %d mp txns\n",
			stats.PrepareBatches, stats.PrepareBatchMean,
			stats.DecideBatches, stats.DecideBatchMean, stats.MPTxns)
		if *jsonOut != "" {
			if err := writeE11JSON(*jsonOut, *seed, *txns, *parts, *pipeline, rows, stats); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	run("E12", func() error {
		res, err := bench.E12(*seed, *keys, *readers, *dur)
		if err != nil {
			return err
		}
		var base float64
		for _, r := range res.Rows {
			if r.Replicas == 0 {
				base = r.ReadsSec
			}
		}
		fmt.Printf("%-14s %-12s %-10s %-10s %-12s %-12s %s\n",
			"mode", "reads/sec", "p50", "p99", "vs-primary", "writes/sec", "lag(records)")
		for _, r := range res.Rows {
			ratio := "-"
			if base > 0 {
				ratio = fmt.Sprintf("%.2fx", r.ReadsSec/base)
			}
			fmt.Printf("%-14s %-12.0f %-10s %-10s %-12s %-12.0f %d\n",
				r.Mode, r.ReadsSec, r.ReadP50.Round(time.Microsecond), r.ReadP99.Round(time.Microsecond),
				ratio, r.WritesSec, r.LagRecords)
		}
		fmt.Printf("failover: RTO %s, acked %d, recovered sum %d, zero acked-write loss: %v\n",
			res.FailoverRTO.Round(time.Microsecond), res.AckedBumps, res.RecoveredSum, res.ZeroLoss)
		if *jsonOut != "" {
			if err := writeE12JSON(*jsonOut, *seed, *keys, *readers, *dur, res); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
}

// e12JSON is the BENCH_E12.json document.
type e12JSON struct {
	Experiment     string       `json:"experiment"`
	Seed           int64        `json:"seed"`
	Keys           int          `json:"keys"`
	ReadersPerNode int          `json:"readers_per_node"`
	DurationMs     int64        `json:"duration_ms"`
	Rows           []e12JSONRow `json:"results"`
	FailoverRTOms  float64      `json:"failover_rto_ms"`
	AckedBumps     int64        `json:"failover_acked_writes"`
	RecoveredSum   int64        `json:"failover_recovered_sum"`
	ZeroLoss       bool         `json:"zero_acked_write_loss"`
}

type e12JSONRow struct {
	Mode       string  `json:"mode"`
	Replicas   int     `json:"replicas"`
	ReadsSec   float64 `json:"reads_per_sec"`
	ReadP50us  int64   `json:"read_p50_us"`
	ReadP99us  int64   `json:"read_p99_us"`
	WritesSec  float64 `json:"writes_per_sec"`
	LagRecords int64   `json:"end_lag_records"`
}

func writeE12JSON(path string, seed int64, keys, readers int, dur time.Duration, res *bench.E12Result) error {
	doc := e12JSON{Experiment: "E12 WAL-shipped read replicas: follower read scaling and failover",
		Seed: seed, Keys: keys, ReadersPerNode: readers, DurationMs: dur.Milliseconds(),
		FailoverRTOms: float64(res.FailoverRTO.Microseconds()) / 1000,
		AckedBumps:    res.AckedBumps,
		RecoveredSum:  res.RecoveredSum,
		ZeroLoss:      res.ZeroLoss,
	}
	for _, r := range res.Rows {
		doc.Rows = append(doc.Rows, e12JSONRow{
			Mode:       r.Mode,
			Replicas:   r.Replicas,
			ReadsSec:   r.ReadsSec,
			ReadP50us:  r.ReadP50.Microseconds(),
			ReadP99us:  r.ReadP99.Microseconds(),
			WritesSec:  r.WritesSec,
			LagRecords: r.LagRecords,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// e10JSON is the BENCH_E10.json document.
type e10JSON struct {
	Experiment     string  `json:"experiment"`
	Seed           int64   `json:"seed"`
	Votes          int     `json:"votes"`
	PartsFrom      int     `json:"partitions_from"`
	PartsTo        int     `json:"partitions_to"`
	SlotsMigrated  int64   `json:"slots_migrated"`
	RowsMoved      int64   `json:"rows_moved"`
	VotesSecBefore float64 `json:"votes_per_sec_before"`
	VotesSecDuring float64 `json:"votes_per_sec_during"`
	VotesSecAfter  float64 `json:"votes_per_sec_after"`
	RebalanceMs    int64   `json:"rebalance_wall_ms"`
	PauseP50us     int64   `json:"cutover_pause_p50_us"`
	PauseP99us     int64   `json:"cutover_pause_p99_us"`
	PauseBudgetUs  int64   `json:"pause_budget_us"`
	WithinBudget   bool    `json:"within_budget"`
	Correct        bool    `json:"correct"`
}

func writeE10JSON(path string, seed int64, res bench.E10Result) error {
	doc := e10JSON{Experiment: "E10 elastic repartitioning under live Voter load",
		Seed:           seed,
		Votes:          res.Votes,
		PartsFrom:      res.PartsFrom,
		PartsTo:        res.PartsTo,
		SlotsMigrated:  res.SlotsMigrated,
		RowsMoved:      res.RowsMoved,
		VotesSecBefore: res.VotesSecBefore,
		VotesSecDuring: res.VotesSecDuring,
		VotesSecAfter:  res.VotesSecAfter,
		RebalanceMs:    res.RebalanceWall.Milliseconds(),
		PauseP50us:     res.PauseP50.Microseconds(),
		PauseP99us:     res.PauseP99.Microseconds(),
		PauseBudgetUs:  res.PauseBudget.Microseconds(),
		WithinBudget:   res.WithinBudget,
		Correct:        res.Correct,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// e8JSON is the BENCH_E8.json document.
type e8JSON struct {
	Experiment string      `json:"experiment"`
	Seed       int64       `json:"seed"`
	Txns       int         `json:"txns"`
	Partitions int         `json:"partitions"`
	Pipeline   int         `json:"pipeline"`
	Rows       []e8JSONRow `json:"results"`
}

type e8JSONRow struct {
	Mode    string  `json:"mode"`
	TxnsSec float64 `json:"txns_per_sec"`
	P50us   int64   `json:"p50_us"`
	P99us   int64   `json:"p99_us"`
	Rows    int64   `json:"rows"`
	Correct bool    `json:"correct"`
}

func writeE8JSON(path string, seed int64, txns, parts, pipeline int, rows []bench.E8Row) error {
	doc := e8JSON{Experiment: "E8 multi-partition txn throughput vs single-partition baseline",
		Seed: seed, Txns: txns, Partitions: parts, Pipeline: pipeline}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, e8JSONRow{
			Mode:    r.Mode,
			TxnsSec: r.TxnsSec,
			P50us:   r.P50.Microseconds(),
			P99us:   r.P99.Microseconds(),
			Rows:    r.Rows,
			Correct: r.Correct,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// e11JSON is the BENCH_E11.json document: the E8 comparison re-run under
// the slot-enlistment coordinator, plus the force-batching stats.
type e11JSON struct {
	Experiment string         `json:"experiment"`
	Seed       int64          `json:"seed"`
	Txns       int            `json:"txns"`
	Partitions int            `json:"partitions"`
	Pipeline   int            `json:"pipeline"`
	GapVsE8    string         `json:"note"`
	Batching   bench.E11Stats `json:"force_batching"`
	Rows       []e8JSONRow    `json:"results"`
}

func writeE11JSON(path string, seed int64, txns, parts, pipeline int, rows []bench.E8Row, stats bench.E11Stats) error {
	doc := e11JSON{Experiment: "E11 pipelined batched multi-partition commit vs single-partition baseline",
		Seed: seed, Txns: txns, Partitions: parts, Pipeline: pipeline,
		GapVsE8:  "same workload and store config as E8; only the commit protocol changed",
		Batching: stats}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, e8JSONRow{
			Mode:    r.Mode,
			TxnsSec: r.TxnsSec,
			P50us:   r.P50.Microseconds(),
			P99us:   r.P99.Microseconds(),
			Rows:    r.Rows,
			Correct: r.Correct,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// e7JSON is the BENCH_E7.json document: enough context to reproduce the
// run plus one entry per sync policy.
type e7JSON struct {
	Experiment string      `json:"experiment"`
	Seed       int64       `json:"seed"`
	Votes      int         `json:"votes"`
	Partitions int         `json:"partitions"`
	Pipeline   int         `json:"pipeline"`
	Rows       []e7JSONRow `json:"results"`
}

type e7JSONRow struct {
	Policy   string  `json:"policy"`
	VotesSec float64 `json:"votes_per_sec"`
	P50us    int64   `json:"p50_us"`
	P99us    int64   `json:"p99_us"`
	Counted  int64   `json:"counted"`
	Correct  bool    `json:"correct"`
}

func writeE7JSON(path string, seed int64, votes, parts, pipeline int, rows []bench.E7Row) error {
	doc := e7JSON{Experiment: "E7 durable Voter throughput vs sync policy",
		Seed: seed, Votes: votes, Partitions: parts, Pipeline: pipeline}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, e7JSONRow{
			Policy:   r.Policy,
			VotesSec: r.VotesSec,
			P50us:    r.P50.Microseconds(),
			P99us:    r.P99.Microseconds(),
			Counted:  r.Counted,
			Correct:  r.Correct,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
