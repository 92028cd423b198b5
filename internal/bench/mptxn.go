package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// ---------- E8: multi-partition transaction throughput ----------

// E8 prices the 2PC coordinator against the single-partition fast path.
// Both modes run the same logical transaction — insert a pair of rows —
// on the same durable group-commit store:
//
//   - single-partition: a routed stored-procedure Call whose two rows are
//     co-located (one partition, one commit record, pipelined fsync).
//   - multi-partition: a coordinated transaction whose rows land on two
//     different partitions (two forced PREPAREs + one forced decision
//     record, store-wide serialization).
//
// The gap is the price of cross-partition atomicity; the paper's answer —
// and this repo's — is to co-partition workflows so the fast path carries
// the volume, and spend the coordinator only where global semantics
// (e.g. Voter's worldwide-minimum elimination) genuinely require it.

// E8Row is one row of the multi-partition throughput table.
type E8Row struct {
	Mode    string
	TxnsSec float64
	P50     time.Duration
	P99     time.Duration
	Rows    int64 // rows stored at the end
	Correct bool  // every acknowledged pair fully present
}

const e8PairDDL = `
	CREATE TABLE pairs (id BIGINT PRIMARY KEY, grp BIGINT, v BIGINT) PARTITION BY grp;
`

// e8PutPair is the single-partition baseline: both rows share the group
// key, so the whole transaction runs on the owning partition.
func e8PutPair() *pe.Procedure {
	return &pe.Procedure{
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
	}
}

// E8 measures pair-insert throughput in both modes with `pipeline`
// concurrent clients over `txns` transactions each mode.
func E8(seed int64, txns, partitions, pipeline int) ([]E8Row, error) {
	if pipeline < 1 {
		pipeline = 1
	}
	var rows []E8Row
	for _, mode := range []string{"single-partition", "multi-partition"} {
		dir, err := os.MkdirTemp("", "sstore-e8")
		if err != nil {
			return nil, err
		}
		row, _, err := runE8Mode(dir, mode, txns, partitions, pipeline)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------- E11: pipelined, batched multi-partition commit ----------

// E11Stats is the force-batching accounting from the multi-partition mode:
// how many fsyncs the group-commit daemons issued for PREPARE and DECIDE
// records, and how many records each fsync amortized. Means well above 1
// are the mechanism behind the closed gap: concurrent coordinators share
// forces instead of paying one fsync per protocol step.
type E11Stats struct {
	MPTxns           int64   `json:"mp_txns"`
	PrepareBatches   int64   `json:"prepare_batches"`
	PrepareBatchMean float64 `json:"prepare_batch_mean"`
	DecideBatches    int64   `json:"decide_batches"`
	DecideBatchMean  float64 `json:"decide_batch_mean"`
}

// E11 re-runs the E8 pair-insert comparison after the slot-enlistment
// coordinator: disjoint-set transactions commit concurrently and PREPARE /
// DECIDE forces ride the group-commit daemons. Same workload, same store
// configuration — only the commit protocol changed — so the vs-single
// ratio is directly comparable with the E8 baseline recorded in
// EXPERIMENTS.md.
func E11(seed int64, txns, partitions, pipeline int) ([]E8Row, E11Stats, error) {
	if pipeline < 1 {
		pipeline = 1
	}
	var rows []E8Row
	var stats E11Stats
	for _, mode := range []string{"single-partition", "multi-partition"} {
		dir, err := os.MkdirTemp("", "sstore-e11")
		if err != nil {
			return nil, E11Stats{}, err
		}
		row, snap, err := runE8Mode(dir, mode, txns, partitions, pipeline)
		os.RemoveAll(dir)
		if err != nil {
			return nil, E11Stats{}, fmt.Errorf("E11 %s: %w", mode, err)
		}
		if mode == "multi-partition" {
			stats = E11Stats{
				MPTxns:           snap.MPTxns,
				PrepareBatches:   snap.MPPrepareBatches,
				PrepareBatchMean: snap.MPPrepareBatchMean,
				DecideBatches:    snap.MPDecideBatches,
				DecideBatchMean:  snap.MPDecideBatchMean,
			}
		}
		rows = append(rows, row)
	}
	return rows, stats, nil
}

func runE8Mode(dir, mode string, txns, partitions, pipeline int) (E8Row, metrics.Snapshot, error) {
	// Both modes run the same durable group-commit store, so the vs-single
	// ratio stays a pure protocol comparison. PREPARE / DECIDE / commit
	// records that reach a log while its fsync runs share the next one;
	// the force-batching line reports how many did.
	st := core.Open(core.Config{
		Dir:        dir,
		Sync:       wal.SyncGroupCommit,
		Partitions: partitions,
	})
	if err := st.ExecScript(e8PairDDL); err != nil {
		return E8Row{}, metrics.Snapshot{}, err
	}
	if err := st.RegisterProcedure(e8PutPair()); err != nil {
		return E8Row{}, metrics.Snapshot{}, err
	}
	if err := st.Start(); err != nil {
		return E8Row{}, metrics.Snapshot{}, err
	}

	latencies := make([][]time.Duration, pipeline)
	errs := make([]error, pipeline)
	next := make(chan int64, pipeline)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < pipeline; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, txns/pipeline+1)
			for i := range next {
				id := i * 2
				s := time.Now()
				var err error
				if mode == "single-partition" {
					_, err = st.Call("put_pair", types.NewInt(id), types.NewInt(i))
				} else {
					// The two rows use group keys i and i+txns: hashed
					// independently, usually on different partitions.
					err = st.MultiPartitionTxn(func(tx *core.MPTxn) error {
						grps := []int64{i, i + int64(txns)}
						// Declare the access set up front (procedures know
						// their partitions): slots acquire in canonical
						// order with no optimistic-retry attempts.
						pa := tx.PartitionFor(types.NewInt(grps[0]))
						pb := tx.PartitionFor(types.NewInt(grps[1]))
						if err := tx.Enlist(pa, pb); err != nil {
							return err
						}
						for j, grp := range grps {
							part := tx.PartitionFor(types.NewInt(grp))
							if _, err := tx.Exec(part, "INSERT INTO pairs VALUES (?, ?, 1)",
								types.NewInt(id+int64(j)), types.NewInt(grp)); err != nil {
								return err
							}
						}
						return nil
					})
				}
				if err != nil {
					errs[w] = err
					break
				}
				lats = append(lats, time.Since(s))
			}
			latencies[w] = lats
			for range next {
			} // drain on error
		}(w)
	}
	for i := 0; i < txns; i++ {
		next <- int64(i)
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			st.Stop()
			return E8Row{}, metrics.Snapshot{}, err
		}
	}

	res, err := st.Query("SELECT COUNT(*) FROM pairs")
	if err != nil {
		st.Stop()
		return E8Row{}, metrics.Snapshot{}, err
	}
	stored := res.Rows[0][0].Int()
	snap := st.Metrics().Snapshot()
	if err := st.Stop(); err != nil {
		return E8Row{}, metrics.Snapshot{}, err
	}

	q := latencyQuantiles(latencies)
	return E8Row{
		Mode:    mode,
		TxnsSec: float64(txns) / elapsed.Seconds(),
		P50:     q(0.50),
		P99:     q(0.99),
		Rows:    stored,
		Correct: stored == int64(2*txns),
	}, snap, nil
}
