// Package metrics provides the counters the experiments report: layer
// round trips (client↔PE, PE↔EE), transaction outcomes, stream/window
// activity, and latency histograms. Counters are atomic so reporting
// goroutines can read while the partition engine writes.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is one engine's counter set.
type Metrics struct {
	// ClientToPE counts client→partition-engine round trips (one per
	// request that crosses the client boundary). S-Store's push-based
	// workflows remove the polling and per-stage invocation trips that the
	// H-Store baseline pays (paper §3.1).
	ClientToPE atomic.Int64
	// PEToEE counts statement executions crossing the partition-engine /
	// execution-engine boundary. Native windowing and EE triggers keep
	// chained work inside the EE, so S-Store pays fewer crossings.
	PEToEE atomic.Int64
	// EEInternal counts statements executed inside the EE by trigger
	// chaining (no boundary crossing).
	EEInternal atomic.Int64

	TxnCommitted atomic.Int64
	TxnAborted   atomic.Int64

	TuplesIngested atomic.Int64
	BatchesBorder  atomic.Int64 // border (BSP) transaction executions
	TriggeredTxns  atomic.Int64 // PE-trigger (ISP) transaction executions
	WindowSlides   atomic.Int64
	StreamGCTuples atomic.Int64

	LogRecords atomic.Int64
	LogBytes   atomic.Int64
	// Group-commit batching, observed rather than inferred: WalFsyncs
	// counts commit-daemon fsyncs, WalFsyncRecords the records they made
	// durable (records per fsync is their quotient), WalUnwaitedRecords
	// the appends nobody waited on (border and triggered batches), which
	// start no fsync of their own.
	WalFsyncs          atomic.Int64
	WalFsyncRecords    atomic.Int64
	WalUnwaitedRecords atomic.Int64

	// MPTxns counts coordinated multi-partition transactions (commit
	// decisions); MPAborts counts coordinator aborts; MPLegsCommitted
	// counts per-partition committed legs.
	MPTxns          atomic.Int64
	MPAborts        atomic.Int64
	MPLegsCommitted atomic.Int64
	// MPConcurrent is a gauge of in-flight multi-partition coordinators —
	// under slot enlistment, transactions over disjoint partition sets
	// overlap, so this exceeds 1 under concurrent MP load (the overlap the
	// concurrency tests assert). MPReadOnlyLegs counts legs released at
	// PREPARE by the read-only optimization (no DECIDE force, worker freed
	// one phase early). MPOnePhase counts transactions that enlisted a
	// single logged partition after routing and skipped the coordinator's
	// decision force entirely.
	MPConcurrent   atomic.Int64
	MPReadOnlyLegs atomic.Int64
	MPOnePhase     atomic.Int64
	// MPLegWaits counts the times a coordinator waited on a parked leg's
	// worker. A leg whose fragments and vote were queued together costs two
	// (the vote, the decision); a fragment whose result the handler needs
	// before it goes on costs one more.
	MPLegWaits atomic.Int64
	// mpPrepareBatch / mpDecideBatch record how many 2PC force records each
	// group-commit fsync covered: prepare batches per partition log, decide
	// batches on the coordinator log. Means above 1 are the fsync
	// amortization the batched-commit path buys.
	mpPrepareBatch CountHist
	mpDecideBatch  CountHist

	// SnapshotReads counts read-only queries executed on the caller
	// goroutine against an MVCC snapshot (off the serial partition
	// worker).
	SnapshotReads atomic.Int64

	// Version-chain / GC gauges: GCRuns counts watermark sweeps,
	// GCVersionsReclaimed the row versions they reclaimed, and
	// VersionsRetained the versions (live + awaiting-watermark) left in
	// the store after the latest sweeps (a gauge, maintained by delta so
	// partitions sharing this set sum correctly).
	GCRuns              atomic.Int64
	GCVersionsReclaimed atomic.Int64
	VersionsRetained    atomic.Int64

	// Elastic-repartitioning counters: Rebalances counts completed
	// Store.Rebalance calls, SlotsMigrated the slots whose ownership moved
	// (including recovery-time migrations), SlotRowsMoved the row images
	// carried to their new partition.
	Rebalances    atomic.Int64
	SlotsMigrated atomic.Int64
	SlotRowsMoved atomic.Int64

	// Anti-caching counters: ColdEvictions counts row versions moved to
	// the cold store, ColdFaults the stub resolutions (reads that went to
	// the cold store's buffer pool). ColdResidentBytes is a gauge of heap
	// bytes held by in-memory versions of evictable tables (maintained by
	// delta so partitions sharing this set sum correctly), which the
	// evictor works to keep at the configured MemoryBudget.
	ColdEvictions     atomic.Int64
	ColdFaults        atomic.Int64
	ColdResidentBytes atomic.Int64

	// Replication counters: ReplRecordsApplied counts WAL records a
	// follower replayed into its storage, FollowerReads the snapshot
	// SELECTs served by a follower, Promotions the follower→primary
	// promotions completed. ReplLag is a gauge of how many log records
	// the follower still trails the shipping horizon by, summed across
	// partition streams.
	ReplRecordsApplied atomic.Int64
	ReplLag            atomic.Int64
	FollowerReads      atomic.Int64
	Promotions         atomic.Int64

	latency Histogram

	// cutoverPause records, per migrated slot, how long the cutover barrier
	// held every partition worker parked — the moment routing flips. E10's
	// acceptance bound compares its p99 against a 2ms pause budget.
	cutoverPause Histogram

	// Per-dataflow counters, keyed by graph name. The set is shared by all
	// partitions of a store, so each graph's counters aggregate across its
	// hash shards.
	graphMu sync.Mutex
	graphs  map[string]*GraphStats
}

// GraphStats is one dataflow graph's counter set: its border batches, the
// PE-triggered executions they fanned into, and the end-to-end latency
// from border admission to each execution's commit (the last stage of a
// chain gives the full workflow latency).
type GraphStats struct {
	Batches   atomic.Int64 // border (BSP) transaction executions
	Triggered atomic.Int64 // PE-triggered (ISP) transaction executions
	latency   Histogram
}

// ObserveLatency records one end-to-end observation for the graph.
func (g *GraphStats) ObserveLatency(d time.Duration) { g.latency.Observe(d) }

// Latency returns the graph's end-to-end latency histogram.
func (g *GraphStats) Latency() *Histogram { return &g.latency }

// Graph returns the named dataflow's counters, creating them on first use.
func (m *Metrics) Graph(name string) *GraphStats {
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	if m.graphs == nil {
		m.graphs = make(map[string]*GraphStats)
	}
	g := m.graphs[name]
	if g == nil {
		g = &GraphStats{}
		m.graphs[name] = g
	}
	return g
}

// ObserveLogged counts one appended log record of n payload bytes (plus
// the frame's length and CRC words).
func (m *Metrics) ObserveLogged(n int) {
	m.LogRecords.Add(1)
	m.LogBytes.Add(int64(n + 8))
}

// ObserveLatency records one transaction latency.
func (m *Metrics) ObserveLatency(d time.Duration) { m.latency.Observe(d) }

// Latency returns the latency histogram.
func (m *Metrics) Latency() *Histogram { return &m.latency }

// ObserveCutoverPause records one slot migration's worker-pause duration.
func (m *Metrics) ObserveCutoverPause(d time.Duration) { m.cutoverPause.Observe(d) }

// CutoverPause returns the slot-migration pause histogram.
func (m *Metrics) CutoverPause() *Histogram { return &m.cutoverPause }

// MPPrepareBatchSize returns the PREPARE-forces-per-fsync histogram.
func (m *Metrics) MPPrepareBatchSize() *CountHist { return &m.mpPrepareBatch }

// MPDecideBatchSize returns the DECIDE-forces-per-fsync histogram.
func (m *Metrics) MPDecideBatchSize() *CountHist { return &m.mpDecideBatch }

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	ClientToPE, PEToEE, EEInternal        int64
	TxnCommitted, TxnAborted              int64
	TuplesIngested                        int64
	BatchesBorder, TriggeredTxns          int64
	WindowSlides, StreamGCTuples          int64
	LogRecords, LogBytes                  int64
	WalFsyncs, WalFsyncRecords            int64
	WalUnwaitedRecords                    int64
	MPTxns, MPAborts, MPLegsCommitted     int64
	MPConcurrent, MPReadOnlyLegs          int64
	MPOnePhase, MPLegWaits                int64
	MPPrepareBatches, MPDecideBatches     int64
	MPPrepareBatchMean, MPDecideBatchMean float64
	SnapshotReads                         int64
	GCRuns, GCVersionsReclaimed           int64
	VersionsRetained                      int64
	Rebalances, SlotsMigrated             int64
	SlotRowsMoved                         int64
	ColdEvictions, ColdFaults             int64
	ColdResidentBytes                     int64
	ReplRecordsApplied, ReplLag           int64
	FollowerReads, Promotions             int64
	LatencyCount                          int64
	LatencyP50, LatencyP99, LatencyP9999  time.Duration
	CutoverPauseCount                     int64
	CutoverPauseP50, CutoverPauseP99      time.Duration
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		ClientToPE:          m.ClientToPE.Load(),
		PEToEE:              m.PEToEE.Load(),
		EEInternal:          m.EEInternal.Load(),
		TxnCommitted:        m.TxnCommitted.Load(),
		TxnAborted:          m.TxnAborted.Load(),
		TuplesIngested:      m.TuplesIngested.Load(),
		BatchesBorder:       m.BatchesBorder.Load(),
		TriggeredTxns:       m.TriggeredTxns.Load(),
		WindowSlides:        m.WindowSlides.Load(),
		StreamGCTuples:      m.StreamGCTuples.Load(),
		LogRecords:          m.LogRecords.Load(),
		LogBytes:            m.LogBytes.Load(),
		WalFsyncs:           m.WalFsyncs.Load(),
		WalFsyncRecords:     m.WalFsyncRecords.Load(),
		WalUnwaitedRecords:  m.WalUnwaitedRecords.Load(),
		MPTxns:              m.MPTxns.Load(),
		MPAborts:            m.MPAborts.Load(),
		MPLegsCommitted:     m.MPLegsCommitted.Load(),
		MPConcurrent:        m.MPConcurrent.Load(),
		MPReadOnlyLegs:      m.MPReadOnlyLegs.Load(),
		MPOnePhase:          m.MPOnePhase.Load(),
		MPLegWaits:          m.MPLegWaits.Load(),
		MPPrepareBatches:    m.mpPrepareBatch.Count(),
		MPDecideBatches:     m.mpDecideBatch.Count(),
		MPPrepareBatchMean:  m.mpPrepareBatch.Mean(),
		MPDecideBatchMean:   m.mpDecideBatch.Mean(),
		SnapshotReads:       m.SnapshotReads.Load(),
		GCRuns:              m.GCRuns.Load(),
		GCVersionsReclaimed: m.GCVersionsReclaimed.Load(),
		VersionsRetained:    m.VersionsRetained.Load(),
		Rebalances:          m.Rebalances.Load(),
		SlotsMigrated:       m.SlotsMigrated.Load(),
		SlotRowsMoved:       m.SlotRowsMoved.Load(),
		ColdEvictions:       m.ColdEvictions.Load(),
		ColdFaults:          m.ColdFaults.Load(),
		ColdResidentBytes:   m.ColdResidentBytes.Load(),
		ReplRecordsApplied:  m.ReplRecordsApplied.Load(),
		ReplLag:             m.ReplLag.Load(),
		FollowerReads:       m.FollowerReads.Load(),
		Promotions:          m.Promotions.Load(),
		LatencyCount:        m.latency.Count(),
		LatencyP50:          m.latency.Quantile(0.50),
		LatencyP99:          m.latency.Quantile(0.99),
		LatencyP9999:        m.latency.Quantile(0.9999),
		CutoverPauseCount:   m.cutoverPause.Count(),
		CutoverPauseP50:     m.cutoverPause.Quantile(0.50),
		CutoverPauseP99:     m.cutoverPause.Quantile(0.99),
	}
}

// Delta returns s - prev, counter-wise (latency quantiles keep s's values).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := s
	d.ClientToPE -= prev.ClientToPE
	d.PEToEE -= prev.PEToEE
	d.EEInternal -= prev.EEInternal
	d.TxnCommitted -= prev.TxnCommitted
	d.TxnAborted -= prev.TxnAborted
	d.TuplesIngested -= prev.TuplesIngested
	d.BatchesBorder -= prev.BatchesBorder
	d.TriggeredTxns -= prev.TriggeredTxns
	d.WindowSlides -= prev.WindowSlides
	d.StreamGCTuples -= prev.StreamGCTuples
	d.LogRecords -= prev.LogRecords
	d.LogBytes -= prev.LogBytes
	d.WalFsyncs -= prev.WalFsyncs
	d.WalFsyncRecords -= prev.WalFsyncRecords
	d.WalUnwaitedRecords -= prev.WalUnwaitedRecords
	d.MPTxns -= prev.MPTxns
	d.MPAborts -= prev.MPAborts
	d.MPLegsCommitted -= prev.MPLegsCommitted
	// MPConcurrent is a gauge: keep s's value, not a difference.
	d.MPReadOnlyLegs -= prev.MPReadOnlyLegs
	d.MPOnePhase -= prev.MPOnePhase
	d.MPLegWaits -= prev.MPLegWaits
	d.MPPrepareBatches -= prev.MPPrepareBatches
	d.MPDecideBatches -= prev.MPDecideBatches
	// Batch-size means keep s's values (cumulative averages).
	d.SnapshotReads -= prev.SnapshotReads
	d.GCRuns -= prev.GCRuns
	d.GCVersionsReclaimed -= prev.GCVersionsReclaimed
	// VersionsRetained is a gauge: keep s's value, not a difference.
	d.Rebalances -= prev.Rebalances
	d.SlotsMigrated -= prev.SlotsMigrated
	d.SlotRowsMoved -= prev.SlotRowsMoved
	d.ColdEvictions -= prev.ColdEvictions
	d.ColdFaults -= prev.ColdFaults
	// ColdResidentBytes is a gauge: keep s's value, not a difference.
	d.ReplRecordsApplied -= prev.ReplRecordsApplied
	// ReplLag is a gauge: keep s's value, not a difference.
	d.FollowerReads -= prev.FollowerReads
	d.Promotions -= prev.Promotions
	d.LatencyCount -= prev.LatencyCount
	d.CutoverPauseCount -= prev.CutoverPauseCount
	return d
}

// String renders a compact one-line summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "txn=%d aborted=%d client->PE=%d PE->EE=%d EE-internal=%d",
		s.TxnCommitted, s.TxnAborted, s.ClientToPE, s.PEToEE, s.EEInternal)
	fmt.Fprintf(&b, " ingested=%d slides=%d gc=%d", s.TuplesIngested, s.WindowSlides, s.StreamGCTuples)
	return b.String()
}

// Histogram is a concurrency-safe latency histogram with exponential
// buckets from 1µs to ~17s.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]int64
	count   int64
	sum     time.Duration
	samples []time.Duration // reservoir for exact small-n quantiles
}

const reservoirSize = 4096

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	b := bucketOf(d)
	h.buckets[b]++
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, d)
	} else {
		// deterministic-enough replacement keyed by count
		h.samples[int(h.count)%reservoirSize] = d
	}
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 0 && b < 63 {
		us >>= 1
		b++
	}
	return b
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the approximate q-quantile (exact while fewer than
// reservoirSize samples have been observed).
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// CountHist is a concurrency-safe histogram over dimensionless counts
// (batch sizes), with the same reservoir scheme as Histogram.
type CountHist struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	max     int64
	samples []int64
}

// Observe records one count sample.
func (h *CountHist) Observe(n int64) {
	if n < 0 {
		n = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += n
	if n > h.max {
		h.max = n
	}
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, n)
	} else {
		h.samples[int(h.count)%reservoirSize] = n
	}
}

// Count returns the number of samples observed.
func (h *CountHist) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean count (0 with no samples).
func (h *CountHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest count observed.
func (h *CountHist) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the approximate q-quantile (exact while fewer than
// reservoirSize samples have been observed).
func (h *CountHist) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]int64(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
