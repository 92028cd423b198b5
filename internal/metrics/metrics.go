// Package metrics provides the counters the experiments report: layer
// round trips (client↔PE, PE↔EE), transaction outcomes, stream/window
// activity, and latency histograms. Counters are atomic so reporting
// goroutines can read while the partition engine writes.
//
// Each metric is declared once, as a Metric constant and its row in defs;
// Snapshot, Delta and the stats rows iterate that table (DESIGN.md,
// "Metrics and stats").
package metrics

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric names one metric; its declaration is its row in defs.
type Metric int

// The metrics, in the order the stats rows list them.
const (
	TxnCommitted Metric = iota
	TxnAborted
	// ClientToPE counts client→partition-engine round trips (one per
	// request that crosses the client boundary). S-Store's push-based
	// workflows remove the polling and per-stage invocation trips that the
	// H-Store baseline pays (paper §3.1).
	ClientToPE
	// PEToEE counts statement executions crossing the partition-engine /
	// execution-engine boundary; EEInternal those that EE trigger chaining
	// ran inside the EE, with no crossing.
	PEToEE
	EEInternal
	TuplesIngested
	BatchesBorder // border (BSP) transaction executions
	TriggeredTxns // PE-trigger (ISP) transaction executions
	WindowSlides
	StreamGCTuples
	LogRecords
	LogBytes
	// Group-commit batching, observed rather than inferred: commit-daemon
	// fsyncs, the records they made durable, and the appends nobody waited
	// on (border and triggered batches, and the records of a force, which
	// its one SyncNow makes durable), which start no fsync of their own;
	// per partition, the fsyncs that waited out the sync period because the
	// log was batching (its fsync before covered more than one record);
	// then how long those fsyncs took, which is what a durable commit waits
	// for beyond its turn on the disk.
	WalFsyncs
	WalFsyncRecords
	WalUnwaitedRecords
	WalPeriodWaits
	WalFsyncP50
	WalFsyncP99
	// Coordinated multi-partition transactions: commit decisions,
	// coordinator aborts, committed legs, and (a gauge) the coordinators in
	// flight, which exceeds 1 when transactions over disjoint partition
	// sets overlap.
	MPTxns
	MPAborts
	MPLegsCommitted
	MPConcurrent
	// MPReadOnlyLegs counts legs released at PREPARE (no PREPARE record,
	// no marker); MPOnePhase transactions with one writing leg, whose
	// marker is their only commit record; MPLegWaits the coordinator's
	// waits on a parked leg's worker (two per leg whose fragments and vote
	// were queued together, one more per fragment whose result the handler
	// needed).
	MPReadOnlyLegs
	MPOnePhase
	MPLegWaits
	// PREPARE records per partition-log group-commit fsync. A mean above 1
	// is the amortization the batched-commit path buys.
	MPPrepareBatches
	MPPrepareBatchMean
	SnapshotReads // read-only queries run against an MVCC snapshot
	// Version GC: watermark sweeps, the versions they reclaimed, and (a
	// gauge, kept by deltas so partitions sum) the versions left.
	GCRuns
	GCVersionsReclaimed
	VersionsRetained
	// Why GC stopped, read when the rows are rendered: per partition, the
	// sequences its GC watermark trails its published clock by (a held
	// snapshot keeps it back), and store-wide, the milliseconds the oldest
	// held session pin (MsgPinSnapshot) has been held, 0 with none.
	GCWatermarkLag
	OldestPinAgeMs
	// Anti-caching: versions moved to the cold store, stub faults, and (a
	// gauge) the heap bytes of resident versions of evictable tables.
	ColdEvictions
	ColdFaults
	ColdResidentBytes
	// Per partition, read from the partitions when the rows are rendered:
	// the index heap MemoryBudget does not govern (DESIGN.md §7); the bytes
	// the cold file served to faults (beside cold_faults); the rows the
	// access paths handed to statements; then, store-wide, the rows SELECTs
	// gave back (a read that examines far more than it returns is one to
	// index); per partition again, the commits queued for the acker but not
	// yet acked; and the executions paused dataflows hold.
	IndexBytes
	ColdReadBytes
	RowsExamined
	RowsReturned
	AckBacklog
	DeferredExecutions
	// Elastic repartitioning: completed Rebalance calls, slots whose owner
	// moved, and the row images carried.
	Rebalances
	SlotsMigrated
	SlotRowsMoved
	// Replication: records a follower replayed, (a gauge) the records it
	// trails the shipping horizon by, its snapshot reads, and promotions.
	ReplRecordsApplied
	ReplLag
	FollowerReads
	Promotions
	LatencyCount
	LatencyP50
	LatencyP99
	LatencyP9999
	// A commit's latency in stages (DESIGN.md, "Metrics and stats"): the
	// wait in the partition's queue, the execution to its in-memory commit,
	// and the wait from there to the ack, for its record to be durable.
	QueueWaitP50
	QueueWaitP99
	ExecuteP50
	ExecuteP99
	DurableWaitP50
	DurableWaitP99
	// A coordinated write's latency, observed by its coordinator from entry
	// to ack, and its four stages, which sum to it: the wait for slots
	// (admission and slot-order reruns), the handler to the slots' release,
	// the wait for every vote to be durable, then for the markers.
	MPLatencyP50
	MPLatencyP99
	MPSlotWaitP50
	MPSlotWaitP99
	MPExecuteP50
	MPExecuteP99
	MPVoteWaitP50
	MPVoteWaitP99
	MPMarkerWaitP50
	MPMarkerWaitP99
	CutoverPauseCount
	CutoverPauseP50
	CutoverPauseP99
	// The Go runtime's, read from runtime/metrics only when the rows are
	// rendered (ReadRuntime): the process's completed GC cycles and the
	// bytes it has allocated on the heap, both since it started. Per
	// operation, they are what a path's garbage costs.
	GoGCCycles
	GoAllocBytes
	numMetrics
)

// Kind is how a metric's value behaves under Delta and how it is rendered.
type Kind uint8

const (
	// Counter only grows; Delta subtracts it. Rendered in base 10.
	Counter Kind = iota
	// Gauge is a level; Delta keeps the newer value. Rendered in base 10.
	Gauge
	// Mean is a histogram's running mean; Delta keeps the newer value.
	// Rendered as %.2f.
	Mean
	// Quantile is a duration histogram's quantile; Delta keeps the newer
	// value. Rendered by time.Duration.String.
	Quantile
)

// Hist names one histogram. A histogram is the source of the metrics that
// name it in defs: its count (a Counter), its mean or its quantiles.
type Hist uint8

const (
	noHist       Hist = iota
	Latency           // committed transactions' latency, ns
	QueueWait         // a request's wait from admission to execution, ns
	Execute           // execution start to in-memory commit, ns
	DurableWait       // in-memory commit to ack, ns
	MPLatency         // a coordinated write's entry to ack, ns
	MPSlotWait        // its entry to the committing attempt's handler, ns
	MPExecute         // its handler to the slots' release, ns
	MPVoteWait        // its slots' release to every vote durable, ns
	MPMarkerWait      // its votes durable to ack, ns
	CutoverPause      // a slot migration's worker pause, ns
	FsyncTime         // one commit-daemon fsync, ns
	PrepareBatch      // PREPARE forces per partition-log fsync
	numHists
)

type def struct {
	name string // the stats row
	kind Kind
	// perPartition: the store reads the value from each partition; the
	// rows are the sum, then name.p<i> per partition.
	perPartition bool
	hist         Hist    // noHist: the metric's own atomic
	q            float64 // Quantile: which one
}

var defs = [numMetrics]def{
	TxnCommitted:        {name: "txn_committed"},
	TxnAborted:          {name: "txn_aborted"},
	ClientToPE:          {name: "client_to_pe"},
	PEToEE:              {name: "pe_to_ee"},
	EEInternal:          {name: "ee_internal"},
	TuplesIngested:      {name: "tuples_ingested"},
	BatchesBorder:       {name: "batches_border"},
	TriggeredTxns:       {name: "triggered_txns"},
	WindowSlides:        {name: "window_slides"},
	StreamGCTuples:      {name: "stream_gc_tuples"},
	LogRecords:          {name: "log_records"},
	LogBytes:            {name: "log_bytes"},
	WalFsyncs:           {name: "wal_fsyncs"},
	WalFsyncRecords:     {name: "wal_fsync_records"},
	WalUnwaitedRecords:  {name: "wal_unwaited_records"},
	WalPeriodWaits:      {name: "wal_period_waits", perPartition: true},
	WalFsyncP50:         {name: "wal_fsync_p50", kind: Quantile, hist: FsyncTime, q: 0.50},
	WalFsyncP99:         {name: "wal_fsync_p99", kind: Quantile, hist: FsyncTime, q: 0.99},
	MPTxns:              {name: "mp_txns"},
	MPAborts:            {name: "mp_aborts"},
	MPLegsCommitted:     {name: "mp_legs_committed"},
	MPConcurrent:        {name: "mp_concurrent", kind: Gauge},
	MPReadOnlyLegs:      {name: "mp_read_only_legs"},
	MPOnePhase:          {name: "mp_one_phase"},
	MPLegWaits:          {name: "mp_leg_waits"},
	MPPrepareBatches:    {name: "mp_prepare_batches", hist: PrepareBatch},
	MPPrepareBatchMean:  {name: "mp_prepare_batch_mean", kind: Mean, hist: PrepareBatch},
	SnapshotReads:       {name: "snapshot_reads"},
	GCRuns:              {name: "gc_runs"},
	GCVersionsReclaimed: {name: "gc_versions_reclaimed"},
	VersionsRetained:    {name: "versions_retained", kind: Gauge},
	GCWatermarkLag:      {name: "gc_watermark_lag", kind: Gauge, perPartition: true},
	OldestPinAgeMs:      {name: "oldest_pin_age_ms", kind: Gauge},
	ColdEvictions:       {name: "cold_evictions"},
	ColdFaults:          {name: "cold_faults"},
	ColdResidentBytes:   {name: "cold_resident_bytes", kind: Gauge},
	IndexBytes:          {name: "index_bytes", kind: Gauge, perPartition: true},
	ColdReadBytes:       {name: "cold_read_bytes", perPartition: true},
	RowsExamined:        {name: "rows_examined", perPartition: true},
	RowsReturned:        {name: "rows_returned"},
	AckBacklog:          {name: "ack_backlog", kind: Gauge, perPartition: true},
	DeferredExecutions:  {name: "deferred_executions", kind: Gauge, perPartition: true},
	Rebalances:          {name: "rebalances"},
	SlotsMigrated:       {name: "slots_migrated"},
	SlotRowsMoved:       {name: "slot_rows_moved"},
	ReplRecordsApplied:  {name: "repl_records_applied"},
	ReplLag:             {name: "repl_lag", kind: Gauge},
	FollowerReads:       {name: "follower_reads"},
	Promotions:          {name: "promotions"},
	LatencyCount:        {name: "latency_count", hist: Latency},
	LatencyP50:          {name: "latency_p50", kind: Quantile, hist: Latency, q: 0.50},
	LatencyP99:          {name: "latency_p99", kind: Quantile, hist: Latency, q: 0.99},
	LatencyP9999:        {name: "latency_p9999", kind: Quantile, hist: Latency, q: 0.9999},
	QueueWaitP50:        {name: "queue_wait_p50", kind: Quantile, hist: QueueWait, q: 0.50},
	QueueWaitP99:        {name: "queue_wait_p99", kind: Quantile, hist: QueueWait, q: 0.99},
	ExecuteP50:          {name: "execute_p50", kind: Quantile, hist: Execute, q: 0.50},
	ExecuteP99:          {name: "execute_p99", kind: Quantile, hist: Execute, q: 0.99},
	DurableWaitP50:      {name: "durable_wait_p50", kind: Quantile, hist: DurableWait, q: 0.50},
	DurableWaitP99:      {name: "durable_wait_p99", kind: Quantile, hist: DurableWait, q: 0.99},
	MPLatencyP50:        {name: "mp_latency_p50", kind: Quantile, hist: MPLatency, q: 0.50},
	MPLatencyP99:        {name: "mp_latency_p99", kind: Quantile, hist: MPLatency, q: 0.99},
	MPSlotWaitP50:       {name: "mp_slot_wait_p50", kind: Quantile, hist: MPSlotWait, q: 0.50},
	MPSlotWaitP99:       {name: "mp_slot_wait_p99", kind: Quantile, hist: MPSlotWait, q: 0.99},
	MPExecuteP50:        {name: "mp_execute_p50", kind: Quantile, hist: MPExecute, q: 0.50},
	MPExecuteP99:        {name: "mp_execute_p99", kind: Quantile, hist: MPExecute, q: 0.99},
	MPVoteWaitP50:       {name: "mp_vote_wait_p50", kind: Quantile, hist: MPVoteWait, q: 0.50},
	MPVoteWaitP99:       {name: "mp_vote_wait_p99", kind: Quantile, hist: MPVoteWait, q: 0.99},
	MPMarkerWaitP50:     {name: "mp_marker_wait_p50", kind: Quantile, hist: MPMarkerWait, q: 0.50},
	MPMarkerWaitP99:     {name: "mp_marker_wait_p99", kind: Quantile, hist: MPMarkerWait, q: 0.99},
	CutoverPauseCount:   {name: "cutover_pause_count", hist: CutoverPause},
	CutoverPauseP50:     {name: "cutover_pause_p50", kind: Quantile, hist: CutoverPause, q: 0.50},
	CutoverPauseP99:     {name: "cutover_pause_p99", kind: Quantile, hist: CutoverPause, q: 0.99},
	GoGCCycles:          {name: "go_gc_cycles"},
	GoAllocBytes:        {name: "go_alloc_bytes"},
}

// ReadRuntime fills s's Go runtime metrics from runtime/metrics. A
// Snapshot leaves them 0: the store reads them when it renders the rows.
func ReadRuntime(s *Snapshot) {
	samples := [...]rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(samples[:])
	s[GoGCCycles] = int64(samples[0].Value.Uint64())
	s[GoAllocBytes] = int64(samples[1].Value.Uint64())
}

// String is the metric's stats row name.
func (k Metric) String() string { return defs[k].name }

// Metrics is one store's counter set, shared by its partitions.
type Metrics struct {
	v     [numMetrics]atomic.Int64
	hists [numHists]Histogram

	// Per-dataflow counters, keyed by graph name. The set is shared by all
	// partitions of a store, so each graph's counters aggregate across its
	// hash shards.
	graphMu sync.Mutex
	graphs  map[string]*GraphStats
}

// Add adds n to a counter or gauge.
func (m *Metrics) Add(k Metric, n int64) { m.v[k].Add(n) }

// Store sets a counter or gauge.
func (m *Metrics) Store(k Metric, n int64) { m.v[k].Store(n) }

// Load reads a counter or gauge.
func (m *Metrics) Load(k Metric) int64 { return m.v[k].Load() }

// Observe records one sample in a histogram (a duration in ns, or a count).
func (m *Metrics) Observe(h Hist, v int64) { m.hists[h].Observe(v) }

// ObserveLogged counts one appended log record of n payload bytes (plus
// the frame's length and CRC words).
func (m *Metrics) ObserveLogged(n int) {
	m.Add(LogRecords, 1)
	m.Add(LogBytes, int64(n+8))
}

// GraphStats is one dataflow graph's counter set: its border batches, the
// PE-triggered executions they fanned into, and the end-to-end latency
// from border admission to each execution's commit (the last stage of a
// chain gives the full workflow latency).
type GraphStats struct {
	Batches   atomic.Int64 // border (BSP) transaction executions
	Triggered atomic.Int64 // PE-triggered (ISP) transaction executions
	Latency   Histogram    // ns
}

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

// Snapshot is a point-in-time copy of every metric, indexed by Metric. A
// Mean is held as its float64 bits (read it with Mean), a Quantile as
// nanoseconds. A per-partition metric, OldestPinAgeMs and the Go runtime
// metrics read 0 here: the store fills them when it renders the rows.
type Snapshot [numMetrics]int64

// Snapshot captures the current values.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for k, d := range defs {
		h := &m.hists[d.hist]
		switch {
		case d.hist == noHist:
			s[k] = m.v[k].Load()
		case d.kind == Mean:
			s[k] = int64(math.Float64bits(h.Mean()))
		case d.kind == Quantile:
			s[k] = h.Quantile(d.q)
		default:
			s[k] = h.Count()
		}
	}
	return s
}

// Delta returns s - prev for counters; gauges, means and quantiles keep s's
// values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	for k, d := range defs {
		if d.kind == Counter {
			s[k] -= prev[k]
		}
	}
	return s
}

// Mean reads a Mean metric.
func (s *Snapshot) Mean(k Metric) float64 { return math.Float64frombits(uint64(s[k])) }

// Duration reads a Quantile metric.
func (s *Snapshot) Duration(k Metric) time.Duration { return time.Duration(s[k]) }

// Format renders a value as its stats row shows it.
func (s *Snapshot) Format(k Metric) string {
	switch defs[k].kind {
	case Mean:
		return strconv.FormatFloat(s.Mean(k), 'f', 2, 64)
	case Quantile:
		return s.Duration(k).String()
	}
	return strconv.FormatInt(s[k], 10)
}

// Rows emits the stats rows in registry order: one per metric, except
// that a per-partition metric emits the sum over parts (partition i's
// values, which s does not hold) and then name.p<i> for each partition.
func Rows(s Snapshot, parts []Snapshot, emit func(name, value string)) {
	for k, d := range defs {
		if d.perPartition {
			for i := range parts {
				s[k] += parts[i][k]
			}
		}
		emit(d.name, s.Format(Metric(k)))
		if d.perPartition {
			for i := range parts {
				emit(fmt.Sprintf("%s.p%d", d.name, i), parts[i].Format(Metric(k)))
			}
		}
	}
}

// Histogram records int64 samples: durations in nanoseconds, or counts such
// as batch sizes. Count and Mean cover every sample since it was made.
// Quantiles come from a reservoir that holds the first reservoirSize
// samples exactly and, after that, is a ring each new sample overwrites in
// turn, so past 4 096 samples a quantile describes only about the most
// recent 4 096.
type Histogram struct {
	mu         sync.Mutex
	count, sum int64
	samples    []int64
}

const reservoirSize = 4096

// Observe records one sample; a negative one is recorded as 0.
func (h *Histogram) Observe(v int64) {
	v = max(v, 0)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, v)
	} else {
		h.samples[int(h.count)%reservoirSize] = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of every sample (0 with none).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile of the reservoir (0 when empty).
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	s := append([]int64(nil), h.samples...)
	h.mu.Unlock()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(max(int(q*float64(len(s)-1)), 0), len(s)-1)]
}
