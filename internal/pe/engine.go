package pe

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

// LogMode selects what the commit logger records.
type LogMode uint8

const (
	// LogBorderOnly is S-Store's upstream backup: only client inputs
	// (border batches and OLTP calls) are logged; triggered executions are
	// re-derived deterministically during replay.
	LogBorderOnly LogMode = iota
	// LogAllTEs logs every transaction execution, including PE-triggered
	// ones. Replay then suppresses PE triggers and replays each TE from the
	// log. More log volume, less replay computation (the E5 ablation).
	LogAllTEs
)

// RecordKind tags command-log records.
type RecordKind uint8

// Log record kinds.
const (
	RecCall RecordKind = iota + 1
	RecBorder
	RecTriggered
	// RecPrepare is a 2PC participant leg: the re-executable write ops of
	// one partition's share of a multi-partition transaction, forced before
	// the partition votes yes. Recovery applies it only when a decision
	// record says the transaction committed (presumed abort).
	RecPrepare
	// RecDecide is a 2PC decision record: a commit marker the coordinator
	// appends to each writing leg's log once every vote is durable, or the
	// abort recovery (or a promotion) forces into the log of a leg it
	// presumed aborted. Recovery resolves in-doubt legs from the markers of
	// every partition log; it executes nothing at replay.
	RecDecide
	// RecSlotCommit decides one routing slot's migration: forced into the
	// destination's log together with the migration's RecPrepare leg, whose
	// decision it doubles as, and appended unforced to the source's log,
	// where a follower evicts the source's copy on it. Recovery takes slot
	// ownership from it. It executes nothing at replay. Kinds 6 and 7 are
	// retired; the kinds from here on keep the byte values earlier logs hold.
	RecSlotCommit RecordKind = 8
	// RecPauseGraph / RecResumeGraph make a dataflow's pause state durable
	// (forced into partition 0's log; Proc carries the graph name).
	// Recovery folds them in order: a pause with no later resume restores
	// the pause gate, so a paused graph does not silently resume ingesting
	// after a crash. They execute nothing at replay.
	RecPauseGraph  RecordKind = 9
	RecResumeGraph RecordKind = 10
	// RecAborted records, under LogAllTEs, a triggered execution that
	// aborted live: appended un-waited where it aborted, with the common
	// fields of the RecTriggered record it would have written. Replay drops
	// the held execution it names, so the execution does not run at the end
	// of replay against state later records changed. It executes nothing.
	RecAborted RecordKind = 11
)

// LogRecord is one command-log entry: enough to re-execute the client
// request (or TE, in LogAllTEs mode) deterministically.
type LogRecord struct {
	Kind        RecordKind
	Proc        string
	Params      []types.Value
	Batch       []types.Row
	BatchID     uint64
	InputStream string

	// 2PC fields (RecPrepare / RecDecide only; RecSlotCommit carries the
	// MPTxnID of the migration's prepared leg).
	MPTxnID uint64
	Ops     []LoggedOp // RecPrepare: the leg's writes, in execution order
	Commit  bool       // RecDecide: true = commit

	// Slot-migration fields (RecSlotCommit).
	Slot     int
	FromPart int
	ToPart   int
}

// Logger is the command log the partition engine appends to at commit time,
// before acknowledging the client; core implements it over a wal segment.
// The worker appends and moves on to the next transaction, and the acker
// acknowledges the client once the record's commit future resolves (nil on
// success), preserving the command-log guarantee. When the future resolves
// is the log's sync policy and nothing else: already on return under
// SyncNever and SyncEveryRecord (which fsyncs inside Append), at the fsync
// that covers the record under SyncGroupCommit.
//
// Append with waited false appends a record nobody waits on (a border or
// triggered batch: no client blocks, and upstream backup covers the input
// until it is durable) and returns no future; it starts no fsync on its own
// account and becomes durable with the next fsync any waiter causes, or
// within the log's staleness bound. A later future resolving proves it
// durable. SyncCommits resolves every outstanding future before returning —
// the barrier's drain; under SyncGroupCommit it does so by forcing
// everything appended so far durable. LogFailed is told when a future
// resolves with an error: the commit's effects are visible, its record may
// not be durable, and the logger's owner must stop serving (fail-stop).
type Logger interface {
	Append(rec *LogRecord, waited bool) (<-chan error, error)
	SyncCommits() error
	LogFailed(err error)
}

// pendingAck is one commit awaiting its fsync: the transaction has executed
// and its record is appended, but the client is not acknowledged until the
// commit future resolves.
type pendingAck struct {
	r   *txnRequest
	out *Result // the worker's copy: later TEs reuse what it was copied from
	ack <-chan error
}

// ackQueueDepth bounds the in-flight commit pipeline; a full queue applies
// backpressure to the partition worker.
const ackQueueDepth = 4096

// Config controls a partition engine instance.
type Config struct {
	// HStoreMode disables the streaming machinery inside transactions (EE
	// triggers and native window maintenance) and ignores stream bindings —
	// the naïve baseline of §3.1. Clients must drive workflows themselves.
	HStoreMode bool
	// MemoryBudget bounds the heap bytes of resident row versions across
	// this partition's evictable tables (0 = unlimited). When exceeded,
	// the evictor — running at the GC rhythm — moves cold committed
	// versions into the catalog's attached cold store until back under.
	MemoryBudget int64
}

// binding wires a stream to the downstream procedure its tuples feed, as
// one edge of a dataflow graph.
type binding struct {
	stream    string
	proc      *Procedure
	batchSize int
	graph     string
	stats     *metrics.GraphStats
}

// Engine is one partition's engine. All transaction executions run serially
// on the partition goroutine; clients interact through Call / Ingest /
// Query from any goroutine.
type Engine struct {
	ee    *ee.Engine
	met   *metrics.Metrics
	cfg   Config
	sched *scheduler

	// clock is the partition's commit clock (shared with every table via
	// the catalog). The worker stamps writes with the pending sequence and
	// publishes at each commit point; snapshot reads pin a published
	// sequence and run on the caller's goroutine.
	clock *storage.PartitionClock
	// commitsSinceGC / lastRetained pace the worker's periodic version
	// sweeps (worker goroutine only). lastColdEvict / lastColdFault turn
	// the tables' cumulative anti-caching counters into metric deltas.
	commitsSinceGC int
	lastRetained   int
	lastColdEvict  uint64
	lastColdFault  uint64
	lastResident   int64

	procs map[string]*Procedure
	// bindings maps lowercased stream name -> consumer. Guarded by
	// ingestMu: dataflow deployment may add edges at runtime (under an
	// all-partition barrier) while clients are inside Ingest.
	bindings map[string]*binding
	// pausedGraphs is the pause gate, per dataflow: while a graph is
	// paused, ingest into its streams queues tuples in partial (bounded by
	// MaxPausedBacklog) without cutting batches, and the worker defers
	// every execution the graph owns into deferred (see gate). nPaused
	// mirrors len(pausedGraphs), so the worker reads one atomic while no
	// graph is paused. Guarded by ingestMu.
	pausedGraphs map[string]bool
	nPaused      atomic.Int32
	// deferred holds each paused graph's executions in the order the
	// worker reached them; ResumeGraph re-admits them in that order, ahead
	// of the graph's queued border batches. Guarded by ingestMu.
	deferred map[string][]*txnRequest

	// graphInflight counts each graph's admitted executions that have
	// neither finished nor been deferred; PauseDataflow's drain waits per
	// graph on it instead of quiescing the whole partition (other graphs
	// keep running).
	flightMu      sync.Mutex
	flightCond    *sync.Cond
	graphInflight map[string]int

	logger  Logger
	logMode LogMode

	// Ack pipeline (running whenever a logger is installed): the worker
	// queues committed-but-not-yet-durable requests here and the acker
	// goroutine acknowledges each once its commit future resolves.
	// ackPending counts queued-but-unacked commits; the checkpoint barrier
	// waits for it to reach zero.
	ackQ       chan pendingAck
	ackWG      sync.WaitGroup
	ackMu      sync.Mutex
	ackCond    *sync.Cond
	ackPending int

	ingestMu    sync.Mutex
	partial     map[string][]types.Row // border stream -> partial batch
	nextBatchID uint64

	nextTxnID uint64 // touched only by the partition goroutine / replay

	started atomic.Bool
	wg      sync.WaitGroup

	// chain is the worker's private FIFO of PE-triggered executions:
	// dispatchEmits appends, runChain drains it before the next request
	// (produced and consumed in the worker's place, so no locking).
	chain []*txnRequest
	// held is replay's list, under LogAllTEs, of re-derived or restored
	// executions waiting for their own RecTriggered or RecAborted records
	// (trigger): a RecTriggered record runs its execution with the
	// exact stream tuples the parent's replay inserted, a RecAborted record
	// drops it. FinishReplay runs what is left.
	held []*txnRequest

	// The worker's transaction-execution state (DESIGN.md §1.6.3). The
	// worker is one goroutine and nothing below outlives the TE that filled
	// it, so there is one of each and beginTE resets it: the EE context with
	// its scratch, the procedure context handed to the handler, the undo
	// log, the transient-relation map, the stream emissions awaiting
	// dispatch, the border batch's own tuple ids, and the two stream-insert
	// hooks (bound once, in New). Replay and the MP barrier run on the same
	// state: they execute in the worker's place, never beside it.
	ectx         ee.ExecCtx
	pctx         ProcCtx
	undo         *storage.UndoLog
	newRows      map[string][]types.Row
	emits        []emission
	borderStream string
	borderIDs    []storage.RowID
	onEmit       func(stream string, ids []storage.RowID, rows []types.Row)
	onBorderEmit func(stream string, ids []storage.RowID, rows []types.Row)
	// freeReqs holds executed triggered requests for dispatchEmits to fill
	// again, batch and id buffers included. Worker-only: it makes the
	// requests and, whatever queue they crossed, executes them.
	freeReqs []*txnRequest
}

// teRetain bounds what the worker's reused buffers (emissions, recycled
// requests, border ids) keep allocated from one TE to the next, in
// elements; freeReqsMax bounds the recycled requests themselves.
const (
	teRetain    = 2048
	freeReqsMax = 64
)

// New creates a partition engine over an execution engine.
func New(exec *ee.Engine, cfg Config) *Engine {
	e := &Engine{
		ee:            exec,
		met:           exec.Metrics(),
		clock:         exec.Catalog().Clock(),
		cfg:           cfg,
		sched:         newScheduler(),
		procs:         make(map[string]*Procedure),
		bindings:      make(map[string]*binding),
		pausedGraphs:  make(map[string]bool),
		deferred:      make(map[string][]*txnRequest),
		graphInflight: make(map[string]int),
		partial:       make(map[string][]types.Row),
		undo:          storage.NewUndoLog(),
		newRows:       make(map[string][]types.Row, 1),
	}
	e.onEmit, e.onBorderEmit = e.collectEmission, e.collectBorderEmission
	e.ackCond = sync.NewCond(&e.ackMu)
	e.flightCond = sync.NewCond(&e.flightMu)
	return e
}

// graphTakeoff records one admitted execution for a graph's in-flight
// count; graphDone retires it when it executes or the pause gate defers it.
// WaitGraphIdle blocks until the graph has no admitted execution left that
// is neither finished nor deferred — the graph-scoped drain pause uses.
func (e *Engine) graphTakeoff(name string) {
	e.flightMu.Lock()
	e.graphInflight[name]++
	e.flightMu.Unlock()
}

func (e *Engine) graphDone(name string) {
	e.flightMu.Lock()
	e.graphInflight[name]--
	if e.graphInflight[name] <= 0 {
		delete(e.graphInflight, name)
		e.flightCond.Broadcast()
	}
	e.flightMu.Unlock()
}

// WaitGraphIdle blocks until every admitted execution of the named graph
// has finished or been deferred. Descendants are counted before their
// parent retires, so a chain keeps the count positive until its last stage
// commits or waits behind the gate.
func (e *Engine) WaitGraphIdle(name string) {
	e.flightMu.Lock()
	for e.graphInflight[name] > 0 {
		e.flightCond.Wait()
	}
	e.flightMu.Unlock()
}

// EE exposes the execution engine (used by assembly and tests).
func (e *Engine) EE() *ee.Engine { return e.ee }

// Metrics returns the shared counter set.
func (e *Engine) Metrics() *metrics.Metrics { return e.met }

// SetLogger installs the commit logger, nil for none (must be called before
// Start). With a logger, commits pipeline: the worker appends and moves on,
// and the acker goroutine delivers acknowledgements as futures resolve.
func (e *Engine) SetLogger(l Logger, mode LogMode) {
	e.logger = l
	e.logMode = mode
}

// RegisterProcedure adds a stored procedure. Procedures must be registered
// before Start and before any binding that references them.
func (e *Engine) RegisterProcedure(p *Procedure) error {
	if p.Name == "" || p.Handler == nil {
		return fmt.Errorf("pe: procedure needs a name and a handler")
	}
	key := strings.ToLower(p.Name)
	if key == strings.ToLower(AdHocProc) {
		return fmt.Errorf("pe: procedure name %q is reserved for ad-hoc writes", p.Name)
	}
	if _, dup := e.procs[key]; dup {
		return fmt.Errorf("pe: procedure %q already registered", p.Name)
	}
	e.procs[key] = p
	return nil
}

// Procedure looks up a registered procedure by name.
func (e *Engine) Procedure(name string) *Procedure { return e.procs[strings.ToLower(name)] }

// BindStream wires stream -> proc as one edge of the named dataflow graph:
// tuples arriving on stream become input batches of size batchSize for
// proc, the PE trigger wiring of a workflow edge. Client-fed streams make
// proc a border procedure (BSP); procedure-fed streams make it interior
// (ISP). The edge feeds its graph's counters and honors its pause/resume
// lifecycle. In HStoreMode bindings are rejected: the baseline has no PE
// triggers.
func (e *Engine) BindStream(graph, stream, procName string, batchSize int) error {
	if e.cfg.HStoreMode {
		return fmt.Errorf("pe: stream bindings are an S-Store feature; engine is in H-Store mode")
	}
	if graph == "" {
		return fmt.Errorf("pe: the edge %s -> %s needs a dataflow graph", stream, procName)
	}
	if batchSize < 1 {
		return fmt.Errorf("pe: batch size %d for stream %q is invalid (must be >= 1)", batchSize, stream)
	}
	p := e.Procedure(procName)
	if p == nil {
		return fmt.Errorf("pe: unknown procedure %q", procName)
	}
	rel := e.ee.Catalog().Relation(stream)
	if rel == nil {
		return fmt.Errorf("pe: unknown stream %q", stream)
	}
	key := strings.ToLower(stream)
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if _, dup := e.bindings[key]; dup {
		return fmt.Errorf("pe: stream %q already has a consumer", stream)
	}
	e.bindings[key] = &binding{stream: rel.Name, proc: p, batchSize: batchSize, graph: graph, stats: e.met.Graph(graph)}
	e.ee.MarkStreamPersistent(stream)
	return nil
}

// UnbindStream removes a stream's consumer edge and drops its partial
// border batch (dataflow deploy rollback).
func (e *Engine) UnbindStream(stream string) {
	key := strings.ToLower(stream)
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if b := e.bindings[key]; b != nil {
		delete(e.partial, b.stream)
	}
	delete(e.bindings, key)
}

// BoundGraph reports the dataflow owning a stream's consumer edge and
// whether the stream is bound at all.
func (e *Engine) BoundGraph(stream string) (string, bool) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	b := e.bindings[strings.ToLower(stream)]
	if b == nil {
		return "", false
	}
	return b.graph, true
}

// Started reports whether the partition worker is running.
func (e *Engine) Started() bool { return e.started.Load() }

// PauseGraph closes the named dataflow's pause gate: subsequent ingest
// into its streams queues tuples (bounded) instead of cutting batches, and
// the worker defers every execution the graph owns — border batches
// already queued and triggered stages alike — instead of running it (see
// gate). An execution already past the gate finishes; the store-level
// pause waits for those with WaitGraphIdle after closing the gate.
func (e *Engine) PauseGraph(name string) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.pausedGraphs[name] = true
	e.nPaused.Store(int32(len(e.pausedGraphs)))
}

// ResumeGraph opens a dataflow's pause gate and re-admits everything that
// waited behind it: first the deferred executions, in the order the worker
// deferred them (a chain caught mid-flight resumes at the stage it stopped
// at, before the batches that queued behind it), then every full border
// batch that queued at ingest.
func (e *Engine) ResumeGraph(name string) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	delete(e.pausedGraphs, name)
	e.nPaused.Store(int32(len(e.pausedGraphs)))
	deferred := e.deferred[name]
	delete(e.deferred, name)
	for i, r := range deferred {
		if !e.pushTracked(r) {
			e.deferred[name] = deferred[i:]
			return fmt.Errorf("pe: engine stopped")
		}
	}
	for _, b := range e.bindings {
		if b.graph != name {
			continue
		}
		if err := e.cutBatchesLocked(b); err != nil {
			return err
		}
	}
	return nil
}

// DropGraph discards a dataflow's pause gate and any work that deferred
// behind it (undeploy: the graph is going away, so its queued batches and
// deferred executions go with it).
func (e *Engine) DropGraph(name string) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	delete(e.pausedGraphs, name)
	e.nPaused.Store(int32(len(e.pausedGraphs)))
	delete(e.deferred, name)
}

// Held reports what a graph's pause gate holds on this partition: the
// tuples queued at ingest on its border streams and the executions the
// worker deferred.
func (e *Engine) Held(graph string) (tuples, deferred int) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	for _, b := range e.bindings {
		if b.graph == graph {
			tuples += len(e.partial[b.stream])
		}
	}
	return tuples, len(e.deferred[graph])
}

// DeferredExecutions counts the executions paused graphs hold on this
// partition, over every graph.
func (e *Engine) DeferredExecutions() (n int) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	for _, d := range e.deferred {
		n += len(d)
	}
	return n
}

// AckBacklog counts the commits queued for the acker but not yet acked.
func (e *Engine) AckBacklog() int {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	return e.ackPending
}

// PartialLen reports the tuples buffered (partial batch + paused backlog)
// for a stream — the router's store-wide paused-backlog accounting.
func (e *Engine) PartialLen(stream string) int {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if b := e.bindings[strings.ToLower(stream)]; b != nil {
		return len(e.partial[b.stream])
	}
	return 0
}

// ExtractPartial removes and returns, in arrival order, the buffered
// border tuples of stream selected by match. Slot migration uses it to
// re-home a half-full batch's tuples along with their keys — left behind,
// they would execute on the old owner at the next cut or flush and rebuild
// migrated rows there. Paused dataflows keep their backlog and their
// deferred executions (documented: resume before rebalancing), and unbound
// streams buffer nothing.
func (e *Engine) ExtractPartial(stream string, match func(types.Row) bool) []types.Row {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	b := e.bindings[strings.ToLower(stream)]
	if b == nil || e.pausedGraphs[b.graph] {
		return nil
	}
	pend := e.partial[b.stream]
	var taken []types.Row
	kept := pend[:0]
	for _, r := range pend {
		if match(r) {
			taken = append(taken, r)
		} else {
			kept = append(kept, r)
		}
	}
	if len(taken) == 0 {
		return nil
	}
	e.partial[b.stream] = kept
	return taken
}

// Start launches the partition worker.
func (e *Engine) Start() error {
	if e.started.Load() {
		return fmt.Errorf("pe: already started")
	}
	// Publish once so data seeded before Start (DDL-time inserts, snapshot
	// restore, direct EE writes) is visible to snapshot readers; those
	// writes were stamped with the pending sequence and never committed
	// through the worker.
	e.clock.Publish()
	e.started.Store(true)
	if e.logger != nil {
		e.ackQ = make(chan pendingAck, ackQueueDepth)
		e.ackWG.Add(1)
		go e.acker()
	}
	e.wg.Add(1)
	go e.worker()
	return nil
}

// Stop drains nothing: it closes the queue and waits for the worker, then
// forces outstanding commits durable and waits for their acks.
func (e *Engine) Stop() {
	if !e.started.Load() {
		return
	}
	e.sched.close()
	e.wg.Wait()
	// Queued-but-never-executed requests were discarded with the
	// scheduler; release any graph-idle waiters parked on their counts.
	e.flightMu.Lock()
	e.graphInflight = make(map[string]int)
	e.flightCond.Broadcast()
	e.flightMu.Unlock()
	if e.ackQ != nil {
		// The worker has exited, so no new acks can be queued; resolving
		// every future lets the acker drain and terminate.
		_ = e.logger.SyncCommits()
		close(e.ackQ)
		e.ackWG.Wait()
		e.ackQ = nil
	}
	e.started.Store(false)
}

// errNotStarted guards the synchronous client entry points: waiting on the
// worker before Start would deadlock the caller.
func (e *Engine) errNotStarted() error {
	if !e.started.Load() {
		return fmt.Errorf("pe: engine not started (call Start before issuing requests)")
	}
	return nil
}

// worker is the partition goroutine: it executes every transaction
// serially. Client submissions are fetched in batches, so the shared lock
// is touched once per burst rather than once per transaction, and each
// request runs with the chain it starts (runChain).
func (e *Engine) worker() {
	defer e.wg.Done()
	var pending []*txnRequest
	for {
		var ok bool
		if pending, ok = e.sched.popAll(pending[:0]); !ok {
			return
		}
		for i, r := range pending {
			pending[i] = nil
			e.runChain(r)
		}
	}
}

// runChain executes r, then every PE-triggered execution its commit
// started, and what those start in turn, in dispatch order, before
// returning: the chain of batch b ends before the next request (batch b+1)
// begins — the paper's workflow order. It is the one way work executes:
// the worker runs every request through it, and so does Replay, so a
// replayed record re-derives its chain exactly as it ran live. A triggered
// execution that aborts is that execution's abort, here as live.
func (e *Engine) runChain(r *txnRequest) {
	e.runGated(r)
	e.drainChain()
}

// drainChain runs the worker's chain to its end, what each execution
// appends included.
func (e *Engine) drainChain() {
	for i := 0; i < len(e.chain); i++ {
		next := e.chain[i]
		e.chain[i] = nil
		e.runGated(next)
	}
	e.chain = retained(e.chain)
}

// runGated executes r unless the pause gate defers it.
func (e *Engine) runGated(r *txnRequest) {
	if e.gate(r) {
		return
	}
	e.executeRequest(r)
	e.recycle(r)
}

// gate is the pause gate, checked where work executes: an execution owned
// by a paused graph joins the graph's deferred list, in the order the
// worker reaches it, and leaves the graph's in-flight count, so the pause's
// drain does not wait for it; ResumeGraph re-admits the list. With no graph
// paused it costs one atomic load. Replayed executions never wait: the
// log already fixed their order.
func (e *Engine) gate(r *txnRequest) bool {
	if e.nPaused.Load() == 0 || r.graph == "" || r.replay {
		return false
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if !e.pausedGraphs[r.graph] {
		return false
	}
	e.deferred[r.graph] = append(e.deferred[r.graph], r)
	e.graphDone(r.graph)
	return true
}

// acker delivers commit acknowledgements in LSN order: it waits on each
// queued commit's future and responds to the client once the record is
// durable. Queue order is append order, and one fsync covers a contiguous
// batch, so waiting on futures FIFO never blocks behind an unresolved
// later one.
func (e *Engine) acker() {
	defer e.ackWG.Done()
	for pa := range e.ackQ {
		err := <-pa.ack
		if err != nil {
			// Executed but maybe not durable, with later transactions on
			// top: never ack it, and stop the store before the client hears.
			e.logger.LogFailed(err)
			pa.r.respond(nil, fmt.Errorf("pe: group commit: %w", err))
		} else {
			acked := Now()
			pa.r.respond(pa.out, nil)
			e.observe(pa.r, acked)
		}
		e.ackMu.Lock()
		e.ackPending--
		if e.ackPending == 0 {
			e.ackCond.Broadcast()
		}
		e.ackMu.Unlock()
	}
}

// queueAck hands a committed request to the acker. Called only by the
// partition worker.
func (e *Engine) queueAck(r *txnRequest, out *Result, ack <-chan error) {
	e.ackMu.Lock()
	e.ackPending++
	e.ackMu.Unlock()
	e.ackQ <- pendingAck{r: r, out: out, ack: ack}
}

// observe records one commit's stages from the stamps its request carries,
// acked being when its client was (or, with nobody waiting, could have
// been) acknowledged: the queue wait for a request that crossed the
// scheduler, the execution, the durable wait and their sum, latency. The
// acker calls it for a commit that took a future, the worker for every
// other; a replayed record observes nothing, and a 2PC leg only its queue
// wait and execution, its worker's hold: the coordinator acks the write,
// so it observes it (core.MPTxn.observe).
func (e *Engine) observe(r *txnRequest, acked Stamp) {
	if r.replay {
		return
	}
	if r.kind != reqTriggered && r.origin != 0 {
		e.met.Observe(metrics.QueueWait, int64(r.started-r.origin))
	}
	e.met.Observe(metrics.Execute, int64(r.committed-r.started))
	if r.kind == reqMP {
		return // a leg acks nobody: its coordinator observes the write
	}
	e.met.Observe(metrics.DurableWait, int64(acked-r.committed))
	e.met.Observe(metrics.Latency, int64(acked-r.started))
}

// drainAcks forces every outstanding commit durable and waits for its
// acknowledgement to be delivered. Runs on the partition worker at barrier
// points (a checkpoint's cut), so no commit the cut holds is waiting on a
// future.
func (e *Engine) drainAcks() {
	if e.ackQ == nil {
		return
	}
	_ = e.logger.SyncCommits() // resolves every future; errors reach clients via the acker
	e.ackMu.Lock()
	for e.ackPending > 0 {
		e.ackCond.Wait()
	}
	e.ackMu.Unlock()
}

// ---------- client API ----------

// Call invokes a stored procedure as one OLTP transaction and waits for the
// result. One client→PE round trip.
func (e *Engine) Call(proc string, params ...types.Value) (*Result, error) {
	cr := <-e.CallAsync(proc, params...)
	return cr.Result, cr.Err
}

// CallAsync submits an invocation and returns a channel that yields the
// result; it lets clients pipeline requests (the H-Store baseline driver
// depends on this to model asynchronous submission).
func (e *Engine) CallAsync(proc string, params ...types.Value) <-chan CallResult {
	return e.invoke(e.Procedure(proc), proc, params)
}

// invoke submits one invocation of p, which is nil when no procedure is
// registered under name.
func (e *Engine) invoke(p *Procedure, name string, params []types.Value) <-chan CallResult {
	e.met.Add(metrics.ClientToPE, 1)
	done := make(chan CallResult, 1)
	if err := e.errNotStarted(); err != nil {
		done <- CallResult{Err: err}
		return done
	}
	if p == nil {
		done <- CallResult{Err: fmt.Errorf("pe: unknown procedure %q", name)}
		return done
	}
	r := &txnRequest{kind: reqInvoke, proc: p, params: params, done: done, origin: Now()}
	if !e.sched.push(r) {
		done <- CallResult{Err: fmt.Errorf("pe: engine stopped")}
	}
	return done
}

// MaxPausedBacklog bounds the tuples a paused dataflow may queue per
// stream; beyond it ingest rejects instead of growing without bound. The
// router applies the same bound store-wide before splitting a spanning
// batch, so a multi-partition ingest queues or rejects as a unit.
const MaxPausedBacklog = 1 << 16

// Ingest pushes tuples onto a border stream. Tuples accumulate into batches
// of the bound size; each full batch becomes one border transaction
// execution, processed in arrival order. One client→PE round trip per call
// regardless of tuple count — the push-based model's economy. While the
// stream's dataflow is paused, tuples queue (up to MaxPausedBacklog) and
// are dispatched by ResumeGraph.
func (e *Engine) Ingest(stream string, rows ...types.Row) error {
	e.met.Add(metrics.ClientToPE, 1)
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	b := e.bindings[strings.ToLower(stream)]
	if b == nil {
		return fmt.Errorf("pe: stream %q has no bound procedure; nothing would consume the tuples", stream)
	}
	if e.pausedGraphs[b.graph] {
		if len(e.partial[b.stream])+len(rows) > MaxPausedBacklog {
			return fmt.Errorf("pe: dataflow %q is paused and stream %q has a full backlog (%d tuples); resume the dataflow or retry later",
				b.graph, b.stream, len(e.partial[b.stream]))
		}
		e.partial[b.stream] = append(e.partial[b.stream], types.CloneRows(rows)...)
		return nil
	}
	e.partial[b.stream] = append(e.partial[b.stream], types.CloneRows(rows)...)
	return e.cutBatchesLocked(b)
}

// cutBatchesLocked dispatches every full batch buffered for b's stream.
// The caller holds ingestMu.
func (e *Engine) cutBatchesLocked(b *binding) error {
	pend := e.partial[b.stream]
	for len(pend) >= b.batchSize {
		batch := pend[:b.batchSize:b.batchSize]
		pend = pend[b.batchSize:]
		e.nextBatchID++
		r := &txnRequest{
			kind:        reqBorder,
			proc:        b.proc,
			batch:       batch,
			batchID:     e.nextBatchID,
			inputStream: b.stream,
			origin:      Now(),
			stats:       b.stats,
			graph:       b.graph,
		}
		if !e.pushTracked(r) {
			e.partial[b.stream] = pend
			return fmt.Errorf("pe: engine stopped")
		}
	}
	e.partial[b.stream] = pend
	return nil
}

// pushTracked submits a graph-owned request, keeping its graph's
// in-flight count consistent with the scheduler's acceptance.
func (e *Engine) pushTracked(r *txnRequest) bool {
	e.graphTakeoff(r.graph)
	if e.sched.push(r) {
		return true
	}
	e.graphDone(r.graph)
	return false
}

// FlushBatches dispatches any partial border batches (end of input).
// Streams of paused dataflows keep their queue.
func (e *Engine) FlushBatches() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	for stream, pend := range e.partial {
		if len(pend) == 0 {
			continue
		}
		b := e.bindings[strings.ToLower(stream)]
		if b == nil || e.pausedGraphs[b.graph] {
			continue
		}
		e.nextBatchID++
		e.pushTracked(&txnRequest{
			kind: reqBorder, proc: b.proc, batch: pend, batchID: e.nextBatchID,
			inputStream: b.stream, origin: Now(), stats: b.stats,
			graph: b.graph,
		})
		e.partial[stream] = nil
	}
}

// Query runs an ad-hoc read-only SQL statement on the caller's goroutine
// against an MVCC snapshot pinned at the latest committed sequence: it never
// enters the partition's serial queue, so reads scale with client cores, see
// only committed state, and are not delayed by running transactions (or a
// parked 2PC leg). A statement that is not a SELECT fails in the execution
// engine's read-only context and changes nothing.
func (e *Engine) Query(sqlText string, params ...types.Value) (*Result, error) {
	if err := e.errNotStarted(); err != nil {
		return nil, err
	}
	pin := e.AcquireSnapshot()
	defer e.ReleaseSnapshot(pin)
	return e.QueryAtSeq(pin.Seq(), sqlText, params...)
}

// AcquireSnapshot pins the latest committed sequence for snapshot reads;
// the pin holds the GC watermark until ReleaseSnapshot. The router uses
// the pair to assemble a consistent cross-partition snapshot vector.
func (e *Engine) AcquireSnapshot() storage.SnapPin { return e.clock.AcquireSnapshot() }

// ReleaseSnapshot drops a pin taken by AcquireSnapshot.
func (e *Engine) ReleaseSnapshot(pin storage.SnapPin) { e.clock.ReleaseSnapshot(pin) }

// QueryAtSeq runs a read-only statement on the caller's goroutine at a
// pinned sequence of this partition. The caller must hold a pin on seq
// (AcquireSnapshot) for the duration. It touches only immutable plans and
// versioned storage, never the partition worker, so it is also safe on an
// engine that was never started: a follower replica, whose records arrive
// via Replay.
func (e *Engine) QueryAtSeq(seq storage.Seq, sqlText string, params ...types.Value) (*Result, error) {
	p, err := e.ee.PrepareCached(sqlText)
	if err != nil {
		return nil, err
	}
	return e.query(nil, seq, p, params)
}

// QueryCut is QueryAtSeq of a plan from this partition's execution engine
// over a cut of the whole store (ee.Cut): the router's one snapshot read.
// The caller holds the cut's pins for the duration.
func (e *Engine) QueryCut(cut *ee.Cut, p *ee.Prepared, params ...types.Value) (*Result, error) {
	return e.query(cut, 0, p, params)
}

// query runs a snapshot read in a context taken from snapCtxs and reset
// before it goes back, so its rows are copied out first, in one block: the
// Result is the caller's.
func (e *Engine) query(cut *ee.Cut, seq storage.Seq, p *ee.Prepared, params []types.Value) (*Result, error) {
	e.met.Add(metrics.ClientToPE, 1)
	ectx := snapCtxs.Get().(*ee.ExecCtx)
	ectx.ReadOnly, ectx.Snapshot, ectx.SnapshotSeq, ectx.Cut = true, true, seq, cut
	var out *Result
	res, err := e.ee.Execute(ectx, p, params...)
	if err == nil {
		e.met.Add(metrics.SnapshotReads, 1)
		out = &Result{Columns: res.Columns, Rows: types.CloneRows(res.Rows), RowsAffected: res.RowsAffected}
	}
	ectx.Reset()
	snapCtxs.Put(ectx)
	return out, err
}

// snapCtxs holds reset execution contexts for snapshot reads: a read reuses
// the frames, scratch and result header an earlier one grew, on any
// partition, instead of allocating them again.
var snapCtxs = sync.Pool{New: func() any { return new(ee.ExecCtx) }}

// Exec runs an ad-hoc write statement as a one-statement transaction: a
// call of the built-in AdHocProc with the text and parameters as its
// arguments, committed, logged and acknowledged like any Call.
func (e *Engine) Exec(sqlText string, params ...types.Value) (*Result, error) {
	cr := <-e.invoke(adHoc, AdHocProc, append([]types.Value{types.NewString(sqlText)}, params...))
	return cr.Result, cr.Err
}

// RunExclusive executes fn on the partition goroutine with no transaction
// running — the quiescent point a checkpoint's cut is taken at.
func (e *Engine) RunExclusive(fn func() error) error {
	if err := e.errNotStarted(); err != nil {
		return err
	}
	done := make(chan CallResult, 1)
	r := &txnRequest{kind: reqBarrier, fn: fn, done: done}
	if !e.sched.push(r) {
		return fmt.Errorf("pe: engine stopped")
	}
	cr := <-done
	return cr.Err
}

// Drain blocks until every queued request (including transitively triggered
// ones) has executed, or waits behind a paused graph's gate. Partial ingest
// batches are not flushed; call FlushBatches first if the input is complete.
func (e *Engine) Drain() { e.sched.drain() }

// ---------- transaction execution ----------

// emission is what one TE appended to one stream: the stored rows and
// their ids, in buffers the engine owns and fills again next TE.
type emission struct {
	stream string
	ids    []storage.RowID
	rows   []types.Row
}

// collectEmission is the TE's OnStreamInsert hook: it merges the TE's
// stream appends per stream for dispatchEmits. ids and rows belong to the
// EE context and are copied.
func (e *Engine) collectEmission(stream string, ids []storage.RowID, rows []types.Row) {
	for i := range e.emits {
		if em := &e.emits[i]; em.stream == stream {
			em.ids = append(em.ids, ids...)
			em.rows = append(em.rows, rows...)
			return
		}
	}
	if len(e.emits) < cap(e.emits) {
		e.emits = e.emits[:len(e.emits)+1] // a slot of an earlier TE, buffers and all
	} else {
		e.emits = append(e.emits, emission{})
	}
	em := &e.emits[len(e.emits)-1]
	em.stream = stream
	em.ids = append(em.ids[:0], ids...)
	em.rows = append(em.rows[:0], rows...)
}

// collectBorderEmission is the hook while a border batch passes through its
// own input stream: those tuples are this TE's to garbage-collect at commit
// and must not re-fire the stream's PE trigger; anything else a trigger
// appends on the way is an emission like any other.
func (e *Engine) collectBorderEmission(stream string, ids []storage.RowID, rows []types.Row) {
	if stream == e.borderStream {
		e.borderIDs = append(e.borderIDs, ids...)
		return
	}
	e.collectEmission(stream, ids, rows)
}

// retained returns buf emptied for reuse, its elements cleared so none
// stays referenced, or nil when it grew past teRetain.
func retained[T any](buf []T) []T {
	if cap(buf) > teRetain {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// beginTE readies the worker's TE state for the next execution and returns
// its EE context. What the previous TE left in it is gone after this: its
// results, rows and lists were either consumed or copied out at one of the
// doors (ownResult for a response, runFragment for a 2PC leg's answer,
// dispatchEmits for a downstream batch and its ids).
func (e *Engine) beginTE() *ee.ExecCtx {
	e.undo.Release()
	for i := range e.emits {
		em := &e.emits[i]
		em.ids, em.rows = retained(em.ids), retained(em.rows)
	}
	e.emits = e.emits[:0]
	e.borderIDs = retained(e.borderIDs)
	e.ectx.Reset()
	e.ectx.Undo = e.undo
	e.ectx.DisableEETriggers = e.cfg.HStoreMode
	return &e.ectx
}

// ownResult copies a statement result out of the TE's memory into one the
// receiver owns: the door for a Call's SetResult (an ad-hoc Exec's among
// them), whose readers are other goroutines running after later TEs.
func ownResult(res *ee.Result) *Result {
	if res == nil {
		return &Result{}
	}
	return &Result{Columns: res.Columns, Rows: types.CloneRows(res.Rows), RowsAffected: res.RowsAffected}
}

func (e *Engine) executeRequest(r *txnRequest) {
	r.started = Now()
	if r.graph != "" {
		// Retire the graph's in-flight count whatever path this execution
		// takes (commit, abort, panic recovery). Descendants are counted
		// inside dispatchEmits, before this defer runs, so a chain never
		// reads as idle mid-flight.
		defer e.graphDone(r.graph)
	}
	if r.kind == reqBarrier {
		e.drainAcks()
		// The checkpoint barrier drives a version sweep: the store is
		// quiescent here, so everything the watermark allows is reclaimed
		// before the snapshot is cut.
		e.runGC()
		r.respond(nil, r.fn())
		return
	}
	switch r.kind {
	case reqMP:
		if e.executeMP(r) {
			e.observe(r, r.committed)
		}
		return
	case reqLeg:
		e.replayPreparedLeg(r)
		return
	}
	ectx := e.beginTE()
	e.nextTxnID++
	ectx.ProcName = r.proc.Name
	ectx.OnStreamInsert = e.onEmit
	if r.batch != nil {
		e.newRows["batch"] = r.batch
		ectx.NewRows = e.newRows
	}
	pctx := &e.pctx
	*pctx = ProcCtx{
		pe:      e,
		ectx:    ectx,
		Proc:    r.proc,
		Batch:   r.batch,
		BatchID: r.batchID,
		Params:  r.params,
		TxnID:   e.nextTxnID,
	}

	// Border batches pass through their stream relation inside the TE:
	// this is what drives windows over border streams and EE triggers on
	// them (uniform state management, §2). The inserted rows are
	// garbage-collected at commit below — this TE is their consumer — and
	// the insert must not re-fire this stream's own PE trigger.
	gcIDs := r.gcIDs
	if r.kind == reqBorder && r.inputStream != "" {
		e.borderStream = r.inputStream
		ectx.OnStreamInsert = e.onBorderEmit
		_, err := e.ee.InsertRows(ectx, r.inputStream, r.batch)
		ectx.OnStreamInsert = e.onEmit
		if err != nil {
			e.abort(r, fmt.Errorf("pe: border ingest into %s: %w", r.inputStream, err))
			return
		}
		gcIDs = e.borderIDs
	}

	if err := e.runHandler(r.proc, pctx); err != nil {
		e.abort(r, err)
		return
	}
	// Garbage-collect the consumed upstream batch atomically with commit.
	if len(gcIDs) > 0 && r.inputStream != "" {
		if err := e.ee.GCStreamRows(ectx, r.inputStream, gcIDs); err != nil {
			e.abort(r, fmt.Errorf("pe: gc of %s: %w", r.inputStream, err))
			return
		}
	}
	// Durability: the command-log record must be written before the commit
	// is acknowledged. The append happens here (so the log keeps
	// transaction order) but the acknowledgement waits for the future,
	// delivered by the acker once it resolves; the worker itself moves
	// straight on to the next transaction. A request with no responder
	// takes no future at all.
	ack, lerr := e.logCommit(r)
	if lerr != nil {
		e.abort(r, fmt.Errorf("pe: command log: %w", lerr))
		return
	}
	e.commitPublish()
	r.committed = Now()
	e.met.Add(metrics.TxnCommitted, 1)
	switch r.kind {
	case reqBorder:
		e.met.Add(metrics.BatchesBorder, 1)
	case reqTriggered:
		e.met.Add(metrics.TriggeredTxns, 1)
	}

	// PE triggers: emitted batches become downstream transaction
	// executions, run by runChain before the next request, so the workflow
	// chain for batch b completes before batch b+1 starts.
	continued := e.dispatchEmits(r.batchID, r.origin, r.replay)

	// Per-dataflow accounting. Latency is observed only where the chain
	// ends (no dispatched descendants), so the graph's histogram holds
	// end-to-end workflow latencies rather than every stage's partial time.
	if r.stats != nil && !r.replay {
		switch r.kind {
		case reqBorder:
			r.stats.Batches.Add(1)
		case reqTriggered:
			r.stats.Triggered.Add(1)
		}
		if continued == 0 && r.origin != 0 {
			r.stats.Latency.Observe(int64(r.committed - r.origin))
		}
	}
	// The response leaves the worker here, and with it the TE: the acker
	// delivers after later TEs have run, and observes the commit once it
	// is durable. A commit nothing waits on (no log, or a responder-less
	// border or triggered batch) is acknowledged, and observed, here.
	if ack != nil {
		e.queueAck(r, ownResult(pctx.out), ack)
		return
	}
	if r.done != nil {
		r.respond(ownResult(pctx.out), nil)
	}
	e.observe(r, r.committed)
}

// abort rolls back r's execution and reports err to whoever waits. Under
// LogAllTEs a live triggered execution's abort is logged (RecAborted,
// un-waited, like the RecTriggered its commit would have appended), so
// replay drops the execution it re-derives instead of running it after
// every later record.
func (e *Engine) abort(r *txnRequest, err error) {
	e.undo.Rollback()
	e.met.Add(metrics.TxnAborted, 1)
	if r.kind == reqTriggered && e.logMode == LogAllTEs && e.logger != nil && !r.replay {
		// A failed append has stopped the store (Logger.Append's owner).
		_, _ = e.logger.Append(&LogRecord{Kind: RecAborted, Proc: r.proc.Name, Batch: r.batch,
			BatchID: r.batchID, InputStream: r.inputStream}, false)
	}
	r.respond(nil, err)
}

// commitPublish is the in-memory commit point: it publishes the pending
// sequence, making the transaction's writes visible to snapshot readers
// atomically across every table it touched, and paces the periodic
// version sweep. Partition worker only.
func (e *Engine) commitPublish() {
	e.clock.Publish()
	e.commitsSinceGC++
	if e.commitsSinceGC >= gcEveryCommits {
		e.runGC()
		return
	}
	// With a memory budget, probe the resident ledger between full sweeps
	// (cheap: one RLock per evictable table) so a burst of large inserts
	// cannot run the heap far past budget before the next 1024-commit GC.
	if e.cfg.MemoryBudget > 0 && e.commitsSinceGC%evictProbeCommits == 0 {
		var resident int64
		for _, t := range e.ee.Catalog().EvictableTables() {
			resident += t.ResidentBytes()
		}
		if resident > e.cfg.MemoryBudget+e.cfg.MemoryBudget/8 {
			e.runGC()
		}
	}
}

// evictProbeCommits paces the between-sweep budget probe.
const evictProbeCommits = 64

// gcEveryCommits bounds how many commits may pass between version sweeps,
// so chains stay short even on stores that never checkpoint. Inline
// per-table sweeps (storage.Table's tombstone-dominance trigger) handle
// hot tables between these.
const gcEveryCommits = 1024

// runGC sweeps every relation's version chains and index entries up to
// the snapshot watermark. Partition worker (or quiescent barrier) only.
func (e *Engine) runGC() {
	e.commitsSinceGC = 0
	wm := e.clock.Watermark()
	cat := e.ee.Catalog()
	reclaimed, retained := 0, 0
	for _, name := range cat.Names() {
		rc, rt := cat.Relation(name).Table.GC(wm)
		reclaimed += rc
		retained += rt
	}
	e.met.Add(metrics.GCRuns, 1)
	e.met.Add(metrics.GCVersionsReclaimed, int64(reclaimed))
	e.met.Add(metrics.VersionsRetained, int64(retained-e.lastRetained))
	e.lastRetained = retained
	// Advance the reclamation epoch at the same rhythm: nodes the sweeps
	// above unlinked re-enter the allocation pools two advances later, once
	// every reader that could still hold them has left its epoch. A false
	// return (a straggling reader two epochs back) just means the next
	// sweep retries.
	e.clock.Epochs().Advance()
	e.runEvict(wm)
}

// runEvict is the anti-caching pass, riding the GC rhythm on the worker
// (DESIGN.md §7): release cold slots the watermark has unpinned, then —
// when the partition's evictable tables exceed the memory budget — move
// cold committed versions (clock second-chance over untouched tuples)
// into the cold store until resident bytes are back at budget.
func (e *Engine) runEvict(wm storage.Seq) {
	cat := e.ee.Catalog()
	tables := cat.EvictableTables()
	if len(tables) == 0 {
		return
	}
	var resident int64
	var evictTot, faultTot uint64
	for _, t := range tables {
		t.ReleaseColdFrees(wm)
		resident += t.ResidentBytes()
		_, ev, fa := t.ColdStats()
		evictTot += ev
		faultTot += fa
	}
	if need := resident - e.cfg.MemoryBudget; need > 0 && e.cfg.MemoryBudget > 0 {
		// Round-robin the overage across tables; a table with nothing
		// evictable (all pinned, touched, or oversized) just yields its
		// share to the next pass.
		for _, t := range tables {
			if need <= 0 {
				break
			}
			n, freed := t.Evict(wm, need)
			need -= freed
			resident -= freed
			evictTot += uint64(n)
		}
	}
	e.met.Add(metrics.ColdEvictions, int64(evictTot-e.lastColdEvict))
	e.met.Add(metrics.ColdFaults, int64(faultTot-e.lastColdFault))
	e.met.Add(metrics.ColdResidentBytes, resident-e.lastResident)
	e.lastColdEvict = evictTot
	e.lastColdFault = faultTot
	e.lastResident = resident
}

// runHandler executes the procedure body, converting panics into aborts so
// a buggy procedure cannot take down the partition.
func (e *Engine) runHandler(p *Procedure, pctx *ProcCtx) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("pe: procedure %s panicked: %v", p.Name, rec)
		}
	}()
	return p.Handler(pctx)
}

// logCommit appends the request's command-log record and returns the commit
// future the acknowledgement must wait for — or none when the request has
// no responder (border and triggered batches): nobody would read the
// future, so the record is appended un-waited and neither starts an fsync
// nor crosses the acker.
func (e *Engine) logCommit(r *txnRequest) (<-chan error, error) {
	if e.logger == nil || r.replay {
		return nil, nil
	}
	var rec *LogRecord
	switch r.kind {
	case reqInvoke:
		rec = &LogRecord{Kind: RecCall, Proc: r.proc.Name, Params: r.params}
	case reqBorder:
		rec = &LogRecord{Kind: RecBorder, Proc: r.proc.Name, Batch: r.batch,
			BatchID: r.batchID, InputStream: r.inputStream}
	case reqTriggered:
		if e.logMode != LogAllTEs {
			return nil, nil // upstream backup: derived work is not logged
		}
		rec = &LogRecord{Kind: RecTriggered, Proc: r.proc.Name, Batch: r.batch,
			BatchID: r.batchID, InputStream: r.inputStream}
	default:
		return nil, nil
	}
	return e.logger.Append(rec, r.done != nil)
}

// respond delivers the request's outcome to whoever waits for it. res is
// the receiver's from here on (ownResult); nil stands for an empty result.
func (r *txnRequest) respond(res *Result, err error) {
	if r.done == nil {
		return
	}
	if err == nil && res == nil {
		res = &Result{}
	}
	r.done <- CallResult{Result: res, Err: err}
}

// procPlan returns the plan of a statement in the procedure's scope, where
// the transient relation "batch" has the schema of the procedure's bound
// input stream (when one exists). The binding is looked up on a miss only.
func (e *Engine) procPlan(p *Procedure, sqlText string) (*ee.Prepared, error) {
	return e.ee.Plan(ee.PlanKey{Proc: p.Name, Text: sqlText}, func() (*ee.Prepared, error) {
		transient := map[string]*types.Schema{}
		e.ingestMu.Lock()
		for _, b := range e.bindings {
			if b.proc == p {
				if rel := e.ee.Catalog().Relation(b.stream); rel != nil {
					transient["batch"] = rel.Schema
				}
				break
			}
		}
		e.ingestMu.Unlock()
		return e.ee.Prepare(sqlText, transient)
	})
}

// ---------- recovery replay ----------

// Replay re-executes one logged record during recovery. The engine must
// not be started. The record runs through runChain, as it ran live, and
// re-derives its triggered descendants in both modes: in LogBorderOnly
// mode they run in its chain, and one that aborts aborts as it did live; in
// LogAllTEs mode each is held until its own RecTriggered record runs it or
// its RecAborted record drops it (FinishReplay runs the rest). The replayed
// record itself must commit. A RecPrepare leg is applied as given: whether
// its transaction committed is the caller's knowledge (core's log applier
// owns the decision table).
func (e *Engine) Replay(rec *LogRecord) error {
	if e.started.Load() {
		return fmt.Errorf("pe: replay requires a stopped engine")
	}
	r := &txnRequest{params: rec.Params, batch: rec.Batch, batchID: rec.BatchID,
		inputStream: rec.InputStream, replay: true, done: make(chan CallResult, 1)}
	what := rec.Proc
	switch rec.Kind {
	case RecDecide:
		return nil // participant marker: nothing to execute
	case RecAborted:
		// It aborted live: it does not run, and leaves its graph's count.
		if h := e.takeHeld(rec); h != nil {
			e.graphDone(h.graph)
		}
		return nil
	case RecPrepare:
		r.kind, r.ops = reqLeg, rec.Ops
		what = fmt.Sprintf("prepared mp leg %d", rec.MPTxnID)
	case RecCall:
		r.kind = reqInvoke
	case RecBorder:
		r.kind = reqBorder
		if rec.BatchID > e.nextBatchID {
			e.nextBatchID = rec.BatchID
		}
	case RecTriggered:
		if h := e.takeHeld(rec); h != nil {
			h.done = r.done
			r = h
			break
		}
		// No held execution: a checkpoint dropped the parent's record, and
		// the snapshot holds the tuples it left in the input stream but not
		// the execution. A snapshot now carries its deferred executions
		// (Restore holds them), but one an earlier version wrote does not,
		// so this stays. This TE must GC the tuples, as the original did.
		// Age alone does not name them: an interior TE that aborted live
		// left its batch in the stream ahead of this one.
		r.kind = reqTriggered
		if rec.InputStream != "" {
			if rel := e.ee.Catalog().Relation(rec.InputStream); rel != nil {
				r.gcIDs = consumedTuples(rel.Table, rec.Batch, map[storage.RowID]bool{})
			}
		}
	default:
		return fmt.Errorf("pe: unknown log record kind %d", rec.Kind)
	}
	r.proc = e.Procedure(rec.Proc) // none for an application's prepared leg
	if rec.Proc == AdHocProc {
		r.proc = adHoc
	}
	if r.proc == nil && r.kind != reqLeg {
		return fmt.Errorf("pe: replay references unknown procedure %q", rec.Proc)
	}
	done := r.done // a held execution is recycled once it has run
	e.runChain(r)
	if cr := <-done; cr.Err != nil {
		return fmt.Errorf("pe: replay of %s: %w", what, cr.Err)
	}
	return nil
}

// takeHeld removes and returns the held execution rec records: the first
// with its procedure, input stream, batch id and rows.
func (e *Engine) takeHeld(rec *LogRecord) *txnRequest {
	for i, h := range e.held {
		if h.proc.Name == rec.Proc && h.inputStream == rec.InputStream && h.batchID == rec.BatchID &&
			slices.EqualFunc(h.batch, rec.Batch, types.Row.Equal) {
			e.held = slices.Delete(e.held, i, i+1)
			return h
		}
	}
	return nil
}

// FinishReplay ends replay: it runs, in order and each with its chain, the
// executions still held for a RecTriggered or RecAborted record that never
// came — a log tail lost in a crash, which lost every record after theirs
// too, so they run at their live position. They run as live work, logged
// like it, so a later recovery meets their records where this one ran
// them. Call it once every record has been replayed, before Start.
func (e *Engine) FinishReplay() {
	held := e.held
	e.held = nil
	for _, r := range held {
		r.replay = false
		e.runChain(r)
	}
}

// consumedTuples names the stream tuples a replayed or restored triggered
// batch consumed: for each row of batch, the oldest tuple of the stream
// equal to it, none taken twice and none that named holds; it adds the
// ones it names to named. Equal rows are interchangeable, so the choice is
// deterministic.
func consumedTuples(stream *storage.Table, batch []types.Row, named map[storage.RowID]bool) []storage.RowID {
	ids := make([]storage.RowID, 0, len(batch))
	taken := make([]bool, len(batch))
	stream.Scan(func(id storage.RowID, row types.Row) bool {
		if named[id] {
			return true
		}
		for i, b := range batch {
			if !taken[i] && b.Equal(row) {
				taken[i] = true
				ids = append(ids, id)
				named[id] = true
				break
			}
		}
		return len(ids) < len(batch)
	})
	return ids
}

// Deferred returns, for a checkpoint's cut, the triggered executions the
// paused graphs hold, as the RecTriggered records their commits would
// append, each graph's in the order the worker deferred them. A deferred
// border batch is left out: nothing logged it yet, so, like the tuples
// queued at ingest, it is upstream backup's until it runs. The caller holds
// the worker.
func (e *Engine) Deferred() []*LogRecord {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	var recs []*LogRecord
	for _, deferred := range e.deferred {
		for _, r := range deferred {
			if r.kind == reqTriggered {
				recs = append(recs, &LogRecord{Kind: RecTriggered, Proc: r.proc.Name,
					Batch: slices.Clone(r.batch), BatchID: r.batchID, InputStream: r.inputStream})
			}
		}
	}
	return recs
}

// Restore re-creates, before the first replayed record, the deferred
// executions a snapshot holds (Deferred's records; recs' other kinds are
// not executions), each over the oldest tuples of its input stream equal to
// its batch (consumedTuples). Each is placed where replay places one it
// re-derives (trigger): under LogBorderOnly it runs now, in the chain, as
// its parent's replay would have run it; under LogAllTEs it is held for its
// own RecTriggered or RecAborted record, and FinishReplay runs the rest.
// An execution whose stream no graph consumes any more is dropped, as its
// parent's replay would drop it.
func (e *Engine) Restore(recs []*LogRecord) {
	named := map[storage.RowID]bool{}
	for _, rec := range recs {
		e.ingestMu.Lock()
		b := e.bindings[strings.ToLower(rec.InputStream)]
		e.ingestMu.Unlock()
		if rec.Kind != RecTriggered || b == nil {
			continue
		}
		ids := consumedTuples(e.ee.Catalog().Relation(rec.InputStream).Table, rec.Batch, named)
		e.trigger(b, rec.InputStream, rec.Batch, ids, rec.BatchID, 0, true)
	}
	e.drainChain()
}

// NextBatchID exposes the border batch counter for a checkpoint's cut. It
// takes ingestMu: the cut holds the worker, but client goroutines may still
// be buffering partial batches (and cutting full ones) under that lock; a
// batch cut after this read executes after the cut, so its record stays in
// the log and replay re-derives any higher ID.
func (e *Engine) NextBatchID() uint64 {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.nextBatchID
}

// SetNextBatchID restores the border batch counter from a snapshot.
func (e *Engine) SetNextBatchID(v uint64) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.nextBatchID = v
}
