// Package core assembles the S-Store engine: catalog + execution engine +
// partition engine + durability, behind one Store type. This is the
// paper's primary contribution packaged as a library — a main-memory OLTP
// engine (H-Store) extended with streams, windows, EE/PE triggers,
// workflows, the stream-oriented transaction model, and upstream-backup
// fault tolerance.
//
// A Store owns one Schema (catalog.Schema: relations, indexes, windows,
// dataflows) over Config.Partitions partitions, each the H-Store unit of
// serial execution with its own storage for that Schema, execution engine,
// partition-engine goroutine, and WAL segment. A thin router (router.go)
// dispatches client requests to the owning partition by hashing the
// relation's PARTITION BY column (or a procedure's partitioning parameter),
// fans ad-hoc queries out across partitions and merges the results, and
// runs store-wide operations (checkpoint, explain) under an all-partition
// barrier. With the default of one partition the Store behaves exactly as
// the historical single-partition engine. The root package sstore
// re-exports this API.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/storage/coldstore"
	"repro/internal/types"
	"repro/internal/wal"
)

// Config configures a Store.
type Config struct {
	// Dir enables durability when non-empty: a command log and snapshots
	// are kept there (one segment pair per partition), and Recover()
	// restores state from them.
	Dir string
	// Sync selects the log fsync policy: SyncNever (default; benchmarks on
	// tmpfs-like media), SyncEveryRecord (one fsync on every commit's
	// critical path), or SyncGroupCommit (the production choice: commits
	// append and execution continues, a per-partition daemon starts an
	// fsync as soon as a client is waiting and the disk is free, at most
	// once per 500 µs on a busy log, covering everything appended meanwhile,
	// and clients are acknowledged when their commit future resolves — no
	// knob; see DESIGN.md §1.4 and E7 in EXPERIMENTS.md for the throughput
	// gap).
	Sync wal.SyncPolicy
	// LogMode selects upstream backup (border-only, default) or full
	// per-TE logging.
	LogMode pe.LogMode
	// HStoreMode disables all streaming features — the §3.1 baseline.
	HStoreMode bool
	// Partitions is the number of independent serial-execution partitions
	// (the H-Store scale-out unit). 0 or 1 yields the classic
	// single-partition engine; N > 1 hash-partitions PARTITION BY relations
	// across N partitions.
	Partitions int
	// MemoryBudget > 0 activates anti-caching: it bounds the approximate
	// heap bytes of resident row versions across all base tables (streams
	// and windows always stay hot). Each partition gets an equal share and
	// a cold-tuple page store — a file under Dir, or a temp file when the
	// store is non-durable — and the partition worker moves cold committed
	// versions past the snapshot watermark to cold pages at GC rhythm,
	// faulting one back on access by reading its bytes alone from the page
	// file (there is no buffer pool). The cold store is volatile by design:
	// recovery re-derives evicted data from the checkpoint + log replay, so
	// cold pages are never fsynced.
	// 0 disables anti-caching (every table fully memory-resident).
	MemoryBudget int64
}

// partition is one serial-execution unit: storage for the store's Schema +
// EE + PE + WAL segment. Triggers, procedures, and bindings are wired on
// every partition; data is split by the router.
type partition struct {
	idx int
	cat *catalog.Catalog
	ee  *ee.Engine
	pe  *pe.Engine
	met *metrics.Metrics // shared across partitions
	log *wal.Log
	// mpSlot is this partition's 2PC enlistment slot: a coordinator holds
	// it from the partition's enlistment until the decision is delivered,
	// and all-partition barriers (checkpoint, rebalance cutover) hold every
	// slot. Coordinators acquire slots in ascending partition order (see
	// txncoord.go for the ordering proof), so transactions over disjoint
	// partition sets run concurrently where the old global mpMu serialized
	// them store-wide.
	mpSlot sync.Mutex
	// pendPrep counts PREPARE forces appended to this partition's log since
	// the commit daemon's last fsync; the daemon's OnSyncBatch callback
	// drains it into the PrepareBatch histogram.
	pendPrep atomic.Int64
	// periodWaits counts the commit daemon's fsyncs that began under the
	// sync period (wal_period_waits.p<i>).
	periodWaits atomic.Int64
	// specTail is the most recent coordinated transaction that published
	// its writes on this partition while its durability was still settling
	// (pipelined 2PC — see mpOutcome in txncoord.go). Commits that follow
	// it on this partition chain their client acks on it; nil once the
	// outcome resolved.
	specTail atomic.Pointer[mpOutcome]
	fail     func(error) // the store's fail-stop (Store.fail)
}

// Append implements pe.Logger: serialize the record and append it to this
// partition's log segment. A waited record returns the commit future the
// client is acknowledged on. A record nobody waits on (a border or
// triggered batch) is buffered, counted and returns no future, so there is
// nothing to chain on specTail either: no client ack to hold back.
//
// When a pipelined coordinated transaction has published on this partition
// but is not yet durable (specTail), an ordinary commit's future is chained
// on that outcome too: this commit may have read the predecessor's state,
// so its client must not be acknowledged before the predecessor is safe.
// The 2PC protocol's own records (PREPARE votes, DECIDE markers) are exempt
// — their ordering is the coordinator's business, and chaining a
// transaction's marker on its own outcome would deadlock.
func (p *partition) Append(rec *pe.LogRecord, waited bool) (<-chan error, error) {
	if rec.Kind == pe.RecPrepare && p.log.GroupCommit() {
		p.pendPrep.Add(1)
	}
	payload := wal.EncodeRecord(rec)
	if !waited {
		if _, err := p.log.AppendUnwaited(payload); err != nil {
			p.fail(err)
			return nil, err
		}
		p.met.ObserveLogged(len(payload))
		p.met.Add(metrics.WalUnwaitedRecords, 1)
		return nil, nil
	}
	_, ack, err := p.log.AppendAsync(payload)
	if err != nil {
		p.fail(err)
		return nil, err
	}
	p.met.ObserveLogged(len(payload))
	if rec.Kind != pe.RecPrepare && rec.Kind != pe.RecDecide {
		if tail := p.specTail.Load(); tail != nil {
			select {
			case <-tail.done:
				if tail.err == nil {
					return ack, nil // already settled cleanly: no chaining needed
				}
			default:
			}
			chained := make(chan error, 1)
			go func() {
				<-tail.done
				err := <-ack
				if tail.err != nil && err == nil {
					err = fmt.Errorf("core: commit read state of an mp txn whose durability failed: %w", tail.err)
				}
				chained <- err
			}()
			return chained, nil
		}
	}
	return ack, nil
}

// SyncCommits implements pe.Logger: resolve every outstanding commit future
// (the barrier's drain). Only a group-commit log has futures waiting on an
// fsync, and it forces its pending batch — records nobody waited on included
// — durable to resolve them; under the other policies every future resolved
// at its append, so there is nothing to wait for.
func (p *partition) SyncCommits() error {
	if !p.log.GroupCommit() {
		return nil
	}
	return p.log.SyncNow()
}

// LogFailed implements pe.Logger: a commit future failed, so the store stops.
func (p *partition) LogFailed(err error) { p.fail(err) }

// force appends recs and returns once they are on stable storage, under
// every sync policy: a write-ahead force, not a commit ack. The records are
// appended un-waited and one SyncNow covers them all (SyncEveryRecord also
// syncs each append). A seed's or slot migration's prepared leg and the
// record that decides it go through here together, so the decision is
// durable only with its leg, and so do pause and resume records. None of
// them acknowledges a client, so none is chained on specTail. A no-op on a
// partition without a log (a volatile store).
func (p *partition) force(recs ...*pe.LogRecord) error {
	if p.log == nil {
		return nil
	}
	for _, rec := range recs {
		if _, err := p.Append(rec, false); err != nil {
			return err
		}
	}
	if err := p.log.SyncNow(); err != nil {
		p.fail(err)
		return err
	}
	return nil
}

// openLog opens this partition's WAL segment in d for appending after
// lastLSN, under the store's sync policy. Every group-commit fsync feeds
// the fsync counters (the records it made durable, its duration and
// whether it waited out the sync period) and the PREPARE batch-size
// histogram. The caller makes the partition its engine's commit logger (a
// follower's partition logs shipped frames instead, until Promote).
func (p *partition) openLog(d *wal.Dir, cfg *Config, path string, lastLSN uint64) (err error) {
	p.log, err = d.OpenLog(path, lastLSN, wal.Options{
		Policy: cfg.Sync,
		OnSyncBatch: func(n int, took time.Duration, waited bool) {
			p.met.Add(metrics.WalFsyncs, 1)
			if waited {
				p.periodWaits.Add(1)
			}
			p.met.Add(metrics.WalFsyncRecords, int64(n))
			p.met.Observe(metrics.FsyncTime, int64(took))
			if n := p.pendPrep.Swap(0); n > 0 {
				p.met.Observe(metrics.PrepareBatch, n)
			}
		},
	})
	return err
}

// Store is one S-Store instance: a router over Config.Partitions
// serial-execution partitions (one by default).
type Store struct {
	cfg Config
	met *metrics.Metrics
	// partsPtr is the published partition list. It is immutable once
	// stored: Rebalance builds an extended copy and swaps the pointer at an
	// all-partition barrier (under seqMu's write side), so lock-free readers
	// always see a complete list. Read through partList().
	partsPtr atomic.Pointer[[]*partition]
	// slots is the published routing slot table (see catalog.SlotTable):
	// the single source of routing truth for ingest, keyed procedure calls,
	// DML routing, and keyed reads. Like partsPtr it is swapped
	// atomically — one slot's ownership changes per migration cutover.
	slots atomic.Pointer[catalog.SlotTable]
	// routingMu fences route-and-enqueue sequences against slot-migration
	// cutovers: routing fast paths resolve their target partition and
	// enqueue under the read side, and a cutover takes the write side
	// before its barrier, so no request routed by the old table can still
	// be in flight toward a partition that just lost the slot. Ordered
	// before exclMu; never acquired inside a partition worker.
	routingMu sync.RWMutex
	// rebalanceMu serializes Rebalance calls end to end, and Checkpoint
	// calls against them.
	rebalanceMu sync.Mutex
	// exclMu serializes all-partition barriers against each other: two
	// interleaved barrier acquisitions over the same partition set would
	// deadlock each other. A barrier then acquires every partition's
	// mpSlot (ascending) before parking the workers, so it also excludes
	// the 2PC coordinators — which no longer take exclMu themselves: a
	// coordinator holds only the slots of the partitions its legs touch.
	// Lock order store-wide: rebalanceMu < deployMu and routingMu (never
	// both) < exclMu < mpSlots (ascending) < worker barriers < seqMu.
	exclMu sync.Mutex
	// seqMu makes the cross-partition snapshot cut atomic against 2PC
	// commit publication: acquireCut pins one committed sequence per
	// partition under the read side, and the coordinator publishes a
	// decided transaction's legs under the write side, so a distributed
	// read sees a coordinated write on every partition or on none. Held
	// only for the acquisition / in-memory publication window — snapshot
	// reads run concurrently with the rest of the 2PC protocol (fragments,
	// prepare votes, even the decided legs' durability fsyncs, which
	// resolve after the lock is released).
	seqMu sync.RWMutex
	// nextMPTxnID numbers coordinated transactions; recovery restarts it
	// above every id seen in any log segment. Atomic: concurrent
	// coordinators allocate ids lock-free.
	nextMPTxnID atomic.Uint64
	// mpAdmit bounds how many coordinators are in the slot-holding phase
	// (enlist + fragments + deliver) at once. Without it a large client
	// pipeline queues deeply on the enlistment slots, and because a
	// coordinator blocks on its next slot while holding lower ones, queue
	// depth feeds hold time and hold time feeds queue depth — a metastable
	// convoy that collapses throughput. The token is released when the
	// slots release, before the durability waits, so the bound never
	// limits the pipelined commit tail. Lazily sized off the partition
	// count at first use.
	mpAdmit     chan struct{}
	mpAdmitOnce sync.Once
	// dir is the durability directory every durable file is written
	// through (nil without Config.Dir). Tests swap in a recording file
	// system between Open and Start.
	dir *wal.Dir
	// schema is the published Schema: what the router plans against and
	// what every partition's storage is synced to (publish).
	schema atomic.Pointer[catalog.Schema]
	// deployMu serializes Schema publications (each derives its Schema from
	// the current one) with each other, with Start, with changes to the
	// procedures and the partition set, and with Checkpoint: a pause or
	// resume holds it from its record to its publication.
	deployMu sync.Mutex
	// pauseGateMu serializes spanning ingest into paused dataflows: the
	// router checks the store-wide backlog bound and forwards the hash
	// shares under it, so a batch queues or rejects as a unit instead of
	// some partitions accepting their share before another rejects.
	pauseGateMu sync.Mutex
	// procs lists every registered procedure (under deployMu), so Rebalance
	// can register them on a newly added partition.
	procs []*pe.Procedure
	// recovered is set once Recover completed for every partition;
	// recoverErr poisons the store after a partial recovery, which cannot
	// be retried (replayed partitions would replay twice).
	recovered  bool
	recoverErr error
	// failure is the sticky durability error (see Err), set once by fail;
	// failed is closed when it is.
	failure atomic.Pointer[error]
	failed  chan struct{}
	// pins holds the live session pins (PinSnapshot to Release), so stats
	// can show the oldest one's age; a per-statement read's cut is not in
	// it.
	pinMu sync.Mutex
	pins  map[*SnapshotPin]struct{}
}

// Open creates a Store. Durability files are opened lazily by Recover /
// Start; Open itself touches no disk.
func Open(cfg Config) *Store {
	n := cfg.Partitions
	if n < 1 {
		n = 1
	}
	cfg.Partitions = n
	s := &Store{cfg: cfg, met: &metrics.Metrics{}, failed: make(chan struct{}), pins: map[*SnapshotPin]struct{}{}}
	if cfg.Dir != "" {
		s.dir = wal.NewDir(cfg.Dir, wal.OS)
	}
	parts := make([]*partition, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, s.newPartition(i))
	}
	s.partsPtr.Store(&parts)
	s.slots.Store(catalog.NewSlotTable(n))
	s.schema.Store(parts[0].cat.Schema())
	return s
}

// newPartition builds one empty serial-execution partition (no relations,
// no log).
func (s *Store) newPartition(idx int) *partition {
	cat := catalog.New()
	exec := ee.New(cat, s.met)
	part := pe.New(exec, pe.Config{
		HStoreMode:   s.cfg.HStoreMode,
		MemoryBudget: s.partitionBudget(),
	})
	return &partition{idx: idx, cat: cat, ee: exec, pe: part, met: s.met, fail: s.fail}
}

// Err is nil while the store serves, else the first durability failure (a
// log write, commit future, vote, decision or pause record not made
// durable; on a follower, its divergence). The memory may then hold what
// the logs do not, so every read and write is refused with it until a
// restart recovers from the logs (fail-stop; DESIGN.md §1.4).
func (s *Store) Err() error {
	if p := s.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Failed is closed once Err is set.
func (s *Store) Failed() <-chan struct{} { return s.failed }

// fail stops the store with err unless it has already stopped.
func (s *Store) fail(err error) {
	err = fmt.Errorf("core: store stopped, restart it to recover: %w", err)
	if s.failure.CompareAndSwap(nil, &err) {
		close(s.failed)
	}
}

// partitionBudget is each partition's share of the store-wide memory
// budget (resident rows split roughly evenly under hash partitioning).
func (s *Store) partitionBudget() int64 {
	if s.cfg.MemoryBudget <= 0 {
		return 0
	}
	n := int64(s.cfg.Partitions)
	if n < 1 {
		n = 1
	}
	return s.cfg.MemoryBudget / n
}

// attachColdStore opens the partition's cold-tuple page store and wires
// it into the catalog (idempotent). Durable stores keep the file beside
// the WAL segments; non-durable stores use a temp file. Either way the
// store is volatile — Open truncates, Close removes.
func (s *Store) attachColdStore(p *partition) error {
	if s.cfg.MemoryBudget <= 0 || p.cat.ColdStore() != nil {
		return nil
	}
	var path string
	if s.cfg.Dir != "" {
		if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("core: cold store dir: %w", err)
		}
		path = filepath.Join(s.cfg.Dir, fmt.Sprintf("cold-%d.pages", p.idx))
	} else {
		f, err := os.CreateTemp("", fmt.Sprintf("sstore-cold-%d-*.pages", p.idx))
		if err != nil {
			return fmt.Errorf("core: cold store temp file: %w", err)
		}
		path = f.Name()
		f.Close()
	}
	cs, err := coldstore.Open(path, coldstore.Options{})
	if err != nil {
		return fmt.Errorf("core: cold store (partition %d): %w", p.idx, err)
	}
	p.cat.AttachColdStore(cs)
	return nil
}

// partList returns the published partition list. The slice is immutable;
// Rebalance swaps the pointer to an extended copy at a barrier, so callers
// may iterate without holding any lock (a list captured just before a
// rebalance simply misses the partitions added after it, which own no slots
// a pre-rebalance routing decision could pick).
func (s *Store) partList() []*partition { return *s.partsPtr.Load() }

// NumPartitions returns the partition count the store was opened with.
func (s *Store) NumPartitions() int { return len(s.partList()) }

// Catalog exposes partition 0's storage (read-only use expected; every
// partition holds storage for the same Schema).
func (s *Store) Catalog() *catalog.Catalog { return s.partList()[0].cat }

// EE exposes partition 0's execution engine (tests, tools).
func (s *Store) EE() *ee.Engine { return s.partList()[0].ee }

// EEAt exposes partition i's execution engine (tests, tools, and seeding
// replicated reference data before Start).
func (s *Store) EEAt(i int) *ee.Engine { return s.partList()[i].ee }

// PE exposes partition 0's partition engine (tests, tools).
func (s *Store) PE() *pe.Engine { return s.partList()[0].pe }

// PEAt exposes partition i's partition engine (tests, tools).
func (s *Store) PEAt(i int) *pe.Engine { return s.partList()[i].pe }

// Metrics returns the engine's counter set (shared by all partitions).
func (s *Store) Metrics() *metrics.Metrics { return s.met }

// readPerPartition fills v's per-partition metrics from the partition:
// its log's fsyncs that waited out the sync period, the index heap outside
// the resident-row ledger (DESIGN.md §7), the bytes its cold file served
// to faults, the rows its access paths examined, its acker backlog, the
// executions its pause gates hold and how far its GC watermark trails its
// clock. It reads atomics and takes short locks only, so any goroutine may
// call it.
func (p *partition) readPerPartition(v *metrics.Snapshot) {
	v[metrics.WalPeriodWaits] = p.periodWaits.Load()
	for _, name := range p.cat.Names() {
		v[metrics.IndexBytes] += p.cat.Relation(name).Table.IndexBytes()
	}
	if cs := p.cat.ColdStore(); cs != nil {
		v[metrics.ColdReadBytes] = int64(cs.Stats().ReadBytes)
	}
	v[metrics.RowsExamined] = p.ee.RowsExamined()
	v[metrics.AckBacklog] = int64(p.pe.AckBacklog())
	v[metrics.DeferredExecutions] = int64(p.pe.DeferredExecutions())
	clock := p.cat.Clock()
	wm := clock.Watermark() // before Current, which can only have grown since
	v[metrics.GCWatermarkLag] = int64(clock.Current() - wm)
}

// StatsResult renders a metrics snapshot as metric/value rows — the body of
// the wire protocol's MsgStats and sstorecli's `stats` verb. Values are
// strings so counters, gauges, batch means, and latency quantiles share one
// column.
func (s *Store) StatsResult() *pe.Result {
	parts := s.partList()
	per := make([]metrics.Snapshot, len(parts))
	for i, p := range parts {
		p.readPerPartition(&per[i])
	}
	snap := s.met.Snapshot()
	snap[metrics.OldestPinAgeMs] = s.oldestPinAge().Milliseconds()
	metrics.ReadRuntime(&snap)
	res := &pe.Result{Columns: []string{"metric", "value"}}
	metrics.Rows(snap, per, func(name, val string) {
		res.Rows = append(res.Rows, types.Row{types.NewString(name), types.NewString(val)})
	})
	res.RowsAffected = len(res.Rows)
	return res
}

// ExecScript applies a DDL script (CREATE TABLE / STREAM / WINDOW / INDEX,
// DROP) to the store's Schema as a whole: every statement takes effect or
// none does. DDL is set-up: a started store refuses it.
func (s *Store) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	if s.partList()[0].pe.Started() {
		return fmt.Errorf("core: DDL is refused on a started store; run the script before Start")
	}
	next, err := ee.ExecDDL(s.schema.Load(), stmts)
	if err != nil {
		return err
	}
	return s.publish(next)
}

// publish syncs every partition to next, then publishes it. A partition
// whose Sync fails is left as it was and those before it sync back to the
// current Schema, so a failure changes nothing. The caller holds deployMu.
func (s *Store) publish(next *catalog.Schema) error {
	parts := s.partList()
	for i, p := range parts {
		if err := p.ee.Sync(next); err != nil {
			for _, q := range parts[:i] {
				// q held the current Schema a moment ago, so it can hold it
				// again: an index it rebuilds held its rows then.
				err = errors.Join(err, q.ee.Sync(s.schema.Load()))
			}
			return fmt.Errorf("core: partition %d: %w", p.idx, err)
		}
	}
	s.schema.Store(next)
	return nil
}

// RegisterProcedure adds a stored procedure to every partition.
func (s *Store) RegisterProcedure(proc *pe.Procedure) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	for _, p := range s.partList() {
		if err := p.pe.RegisterProcedure(proc); err != nil {
			return err
		}
	}
	s.procs = append(s.procs, proc)
	return nil
}

// partitionsFileName records the partition count a durability directory
// was written with. Hash ownership depends on N, so reopening with a
// different count would silently orphan WAL segments (N shrank) or strand
// rows on partitions that no longer own their key (N grew).
const partitionsFileName = "PARTITIONS"

// legacyCoordLog is the store-wide log earlier versions kept beside the
// partition logs for slot migrations and dataflow pauses. Its records are
// in no partition log, so Recover refuses a directory whose copy holds any.
const legacyCoordLog = "coord.log"

// Recover restores state from the durability directory: load each
// partition's latest snapshot (if any), feed the log applier (applier.go)
// the intact records of the directory's files, and finish as a promoted
// follower would. Must run after DDL + procedure registration and before
// Start.
func (s *Store) Recover() error {
	if s.cfg.Dir == "" || s.recovered {
		return nil
	}
	if s.recoverErr != nil {
		return fmt.Errorf("core: an earlier recovery failed partway (%w); open a fresh Store", s.recoverErr)
	}
	ap, snaps, err := s.loadDir()
	if err != nil {
		return err // nothing replayed: retryable
	}
	// From here on some partitions have replayed: a retry would double-apply.
	if err := s.recoverFrom(ap, snaps); err != nil {
		s.recoverErr = err
		return err
	}
	s.recovered = true
	return nil
}

// replayDir replays each partition's log past its snapshot through ap on
// its stream in strms, final or not, and opens the log after the stream's
// last LSN; it does not make the partition its engine's logger.
func (s *Store) replayDir(ap *applier, snaps []wal.Snapshot, strms []*replStream, final bool) error {
	for i, p := range s.partList() {
		logPath, _ := wal.PartitionPaths(s.cfg.Dir, p.idx)
		if err := ap.replay(logPath, snaps[i], strms[i], final); err != nil {
			return err
		}
		if err := p.openLog(s.dir, &s.cfg, logPath, strms[i].fetched); err != nil {
			return err
		}
	}
	return nil
}

// newStreams returns one fresh stream cursor per partition.
func (s *Store) newStreams() []*replStream {
	strms := make([]*replStream, len(s.partList()))
	for i := range strms {
		strms[i] = &replStream{part: i}
	}
	return strms
}

// loadDir is recovery's first pass, which replays nothing: check the
// directory's partition-count stamp, load every snapshot and fold every
// partition log before any partition replays, so the decision table is
// complete (a transaction's commit record is a marker in some leg's own
// segment, possibly after records of its successors) and a final replay
// can treat an undecided PREPARE as aborted for good. A snapshot's pause
// records are the state its log's dropped prefix ended in, so they fold
// before the log. A retry loads the snapshots again.
func (s *Store) loadDir() (*applier, []wal.Snapshot, error) {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("core: durability dir: %w", err)
	}
	legacy := filepath.Join(s.cfg.Dir, legacyCoordLog)
	last, err := wal.ScanLog(legacy, func(uint64, []byte) error { return nil })
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("core: %w", err)
	case last > 0:
		return nil, nil, fmt.Errorf("core: %s holds slot-migration or pause records an earlier version wrote, "+
			"which this version would lose: open the directory with that version, resume every dataflow, "+
			"checkpoint and remove the file", legacy)
	}
	if err := s.checkPartitionCount(); err != nil {
		return nil, nil, err
	}
	ap := newApplier(s)
	snaps := make([]wal.Snapshot, len(s.partList()))
	for i, p := range s.partList() {
		logPath, snapPath := wal.PartitionPaths(s.cfg.Dir, p.idx)
		snap, err := wal.LoadSnapshot(snapPath, p.cat)
		if err != nil && err != wal.ErrNoSnapshot {
			return nil, nil, err
		}
		for _, rec := range snap.Records {
			if err := ap.fold(rec); err != nil {
				return nil, nil, err
			}
		}
		if _, err := ap.foldFile(logPath); err != nil {
			return nil, nil, fmt.Errorf("core: log pre-scan (partition %d): %w", p.idx, err)
		}
		snaps[i] = snap
	}
	return ap, snaps, nil
}

// recoverFrom is Recover past the point of no retry: replay every partition
// through the folded applier as a final stream, open the logs, finish,
// then the two passes only recovery needs because only it can meet
// partitions the log never wrote to.
func (s *Store) recoverFrom(ap *applier, snaps []wal.Snapshot) error {
	if err := s.replayDir(ap, snaps, s.newStreams(), true); err != nil {
		return err
	}
	for _, p := range s.partList() {
		p.pe.SetLogger(p, s.cfg.LogMode)
	}
	if err := ap.finish(); err != nil {
		return err
	}
	// A partition added by reopening with a larger Partitions count (or by
	// an interrupted live rebalance) replayed an empty log: seed its
	// replicated tables from partition 0 before any rows are rehomed onto it.
	for _, p := range s.partList()[1:] {
		if err := s.seedReplicated(p); err != nil {
			return err
		}
	}
	// Canonical pass: rehome any row whose canonical owner under the opened
	// partition count lives elsewhere. This is what turns reopening with a
	// larger Partitions into a recovery-time rebalance: rows sit wherever the
	// old count (or an interrupted migration) left them, and every move is
	// made durable through the same prepared-leg + slot-commit records a live
	// migration writes before the source copies are dropped from memory.
	if err := s.rehomeMisplacedRows(); err != nil {
		return err
	}
	s.slots.Store(catalog.NewSlotTable(len(s.partList())))
	return nil
}

// checkPartitionCount compares the directory's partition-count stamp with
// this store's count, stamping it on first use. Opening with more partitions
// than the stamp is the recovery-time rebalance entry point (the canonical
// pass redistributes the rows); only shrinking is refused.
func (s *Store) checkPartitionCount() error {
	path := filepath.Join(s.cfg.Dir, partitionsFileName)
	n := len(s.partList())
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		disk, convErr := strconv.Atoi(strings.TrimSpace(string(data)))
		if convErr != nil {
			return fmt.Errorf("core: corrupt %s file in %s: %q", partitionsFileName, s.cfg.Dir, data)
		}
		if disk > n {
			return fmt.Errorf("core: durability dir %s was written with %d partitions, store opened with %d; "+
				"shrinking the partition count is not supported — reopen with Partitions: %d or more", s.cfg.Dir, disk, n, disk)
		}
		if disk < n {
			// Growth: stamp the new count; Recover's canonical pass
			// redistributes the rows exactly as a live Rebalance would.
			return s.stampPartitions(n)
		}
		return nil
	case os.IsNotExist(err):
		// No stamp: either a fresh directory or one written by a pre-stamp
		// (single-partition) version. Both are safe to stamp with the opened
		// count — legacy single-partition rows are redistributed by the
		// canonical pass like any other growth.
		return s.stampPartitions(n)
	default:
		return fmt.Errorf("core: %s file: %w", partitionsFileName, err)
	}
}

// stampPartitions durably replaces the directory's partition-count stamp
// with n, so a crash leaves the old count or the new one, never neither.
func (s *Store) stampPartitions(n int) error {
	return s.dir.Replace(filepath.Join(s.cfg.Dir, partitionsFileName), func(w io.Writer) error {
		_, err := io.WriteString(w, strconv.Itoa(n)+"\n")
		return err
	})
}

// migratedRels lists the relations whose rows move with their slot:
// hash-partitioned tables and streams. Partitioned windows are not
// migrated — their contents are rebuilt by the stream flowing anew — and
// neither are PARTIAL relations, whose rows are partition-local partial
// state (every partition may hold a row for any key, so rehoming them by
// partition key would collide unique indexes and double-count aggregates).
func migratedRels(cat *catalog.Catalog) []*catalog.Relation {
	var rels []*catalog.Relation
	for _, name := range cat.Names() {
		if rel := cat.Relation(name); rel.Partitioned() && rel.Kind != catalog.KindWindow && !rel.Partial {
			rels = append(rels, rel)
		}
	}
	return rels
}

// replicatedTables lists the tables every partition holds in full.
func replicatedTables(cat *catalog.Catalog) []*catalog.Relation {
	var rels []*catalog.Relation
	for _, name := range cat.Names() {
		if rel := cat.Relation(name); rel.Kind == catalog.KindTable && !rel.Partitioned() {
			rels = append(rels, rel)
		}
	}
	return rels
}

// rehomeMisplacedRows moves every partitioned row to its canonical owner
// under the current partition count, one durable migration per slot. The
// per-row check (rather than a per-slot one) also repairs directories
// written by the pre-slot-table router when the old partition count did not
// divide the slot count, where mod-N placement and slot placement disagree
// within a single slot.
func (s *Store) rehomeMisplacedRows() error {
	parts := s.partList()
	n := len(parts)
	type slotMove struct {
		from int                    // lowest source partition (recorded in the WAL)
		rows map[string][]types.Row // table → row images bound for the new owner
	}
	moves := make(map[int]*slotMove)
	type deletion struct {
		rel *catalog.Relation
		id  storage.RowID
	}
	var dels []deletion
	for _, p := range parts {
		for _, rel := range migratedRels(p.cat) {
			col := rel.PartCol
			rel.Table.Scan(func(id storage.RowID, row types.Row) bool {
				slot := catalog.SlotOf(row[col])
				if slot%n == p.idx {
					return true
				}
				mv := moves[slot]
				if mv == nil {
					mv = &slotMove{from: p.idx, rows: make(map[string][]types.Row)}
					moves[slot] = mv
				} else if p.idx < mv.from {
					mv.from = p.idx
				}
				mv.rows[rel.Name] = append(mv.rows[rel.Name], row)
				dels = append(dels, deletion{rel, id})
				return true
			})
		}
	}
	if len(moves) == 0 {
		return nil
	}
	slots := make([]int, 0, len(moves))
	for slot := range moves {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		mv := moves[slot]
		dst := parts[slot%n]
		names := make([]string, 0, len(mv.rows))
		for name := range mv.rows {
			names = append(names, name)
		}
		sort.Strings(names)
		var ops []pe.LoggedOp
		for _, name := range names {
			ops = append(ops, pe.LoggedOp{Table: name, Rows: mv.rows[name]})
		}
		// Durability order matches a live migration: the destination's
		// prepared leg first, then the slot-commit record that decides it.
		if err := s.installLeg(dst, ops, &pe.LogRecord{
			Kind: pe.RecSlotCommit, Slot: slot, FromPart: mv.from, ToPart: dst.idx,
		}); err != nil {
			return err
		}
		s.met.Add(metrics.SlotsMigrated, 1)
	}
	for _, d := range dels {
		if err := d.rel.Table.Delete(d.id, nil); err != nil {
			return err
		}
	}
	for _, p := range parts {
		p.cat.Clock().Publish() // the source deletions above
	}
	s.met.Add(metrics.SlotRowsMoved, int64(len(dels)))
	return nil
}

// Start launches the partition workers. When durability is configured but
// Recover was not called, Start calls it.
func (s *Store) Start() error {
	if s.cfg.Dir != "" && s.recovered && s.partList()[0].log == nil {
		// Stop closed the logs; restarting this Store would silently run
		// with no command log (acked commits lost on crash), and
		// re-running Recover would replay the log on top of live state.
		return fmt.Errorf("core: durable store was stopped; open a fresh Store to restart")
	}
	if s.cfg.Dir != "" && !s.recovered {
		if err := s.Recover(); err != nil {
			return err
		}
	}
	// Anti-caching attaches after recovery: replay rebuilds every table
	// fully resident, and the evictor trims to budget once workers run.
	for _, p := range s.partList() {
		if err := s.attachColdStore(p); err != nil {
			return err
		}
	}
	// Under deployMu: ExecScript sees the store started or not at all.
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	for i, p := range s.partList() {
		if err := p.pe.Start(); err != nil {
			for _, q := range s.partList()[:i] {
				q.pe.Stop()
			}
			return err
		}
	}
	return nil
}

// Stop stops every partition worker and closes the log segments, reporting
// any sync/close failure (a dropped fsync at shutdown is data loss under
// SyncNever, so callers should check).
func (s *Store) Stop() error {
	for _, p := range s.partList() {
		p.pe.Stop()
	}
	var errs []error
	for _, p := range s.partList() {
		if p.log == nil {
			continue
		}
		if err := p.log.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("core: log sync (partition %d): %w", p.idx, err))
		}
		if err := p.log.Close(); err != nil {
			errs = append(errs, fmt.Errorf("core: log close (partition %d): %w", p.idx, err))
		}
		p.log = nil
	}
	// Cold stores are volatile: Close removes the page file. Evicted
	// stubs become unreadable past this point, like the closed logs.
	for _, p := range s.partList() {
		if cs := p.cat.DetachColdStore(); cs != nil {
			if err := cs.Close(); err != nil {
				errs = append(errs, fmt.Errorf("core: cold store close (partition %d): %w", p.idx, err))
			}
		}
	}
	return errors.Join(errs...)
}

// testHookAfterCut, when set, runs in Checkpoint once the cut is taken and
// the workers run again, before any snapshot is written.
var testHookAfterCut func()

// Checkpoint writes a snapshot of every partition at one store-wide cut and
// drops from each log the records the snapshot covers (H-Store's periodic
// snapshotting). The workers are held only to take the cut (DESIGN.md
// §1.4): each partition's pin, log LSN, border batch counter, window slide
// state and deferred executions, and partition 0's paused graphs. The
// snapshots are encoded from the pins after the workers run again, every
// snapshot is written before any log drops its prefix, and each log keeps
// its cut's last record, which a restarted follower checks, and those after.
func (s *Store) Checkpoint() error {
	if s.cfg.Dir == "" {
		return fmt.Errorf("core: no durability directory configured")
	}
	// Rebalance's order. Neither a slot move nor a pause or resume lands
	// between the cut and the prefix drop, and a pause or resume holds
	// deployMu from its record to its publication, so the paused graphs
	// the cut holds are the logged ones.
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	var parts []*partition
	var cuts []*wal.Cut
	var ends []wal.Pos // each log's end at the cut
	err := s.runExclusiveAll(func() error {
		parts = s.partList()
		if err := decidePublished(parts); err != nil {
			return err
		}
		// Every log is durable at the cut. A slot move's commit record is
		// forced in its destination's log; the source's own copy is only
		// appended, and recovery folds it from whichever logs a crash left
		// whole: a slot moved there and back has only that copy to say
		// where it went last.
		for _, p := range parts {
			if p.log == nil {
				continue
			}
			if err := p.log.SyncNow(); err != nil {
				p.fail(err)
				return err
			}
		}
		// The barrier holds every partition's enlistment slot, and a
		// coordinator releases its slots only after delivery, so each
		// delivered transaction is decided by decidePublished above and
		// anything still mid-protocol has not applied. A coordinator's own
		// markers may land on either side of the cut; after it they are
		// dead weight.
		for _, p := range parts {
			meta := wal.Snapshot{NextBatchID: p.pe.NextBatchID()}
			var end wal.Pos
			if p.log != nil {
				end = p.log.End()
			}
			meta.LastLSN = end.LSN
			if p.idx == 0 {
				for _, df := range s.schema.Load().Dataflows() {
					if df.Paused {
						meta.Records = append(meta.Records, &pe.LogRecord{Kind: pe.RecPauseGraph, Proc: df.Name})
					}
				}
			}
			meta.Records = append(meta.Records, p.pe.Deferred()...)
			cuts = append(cuts, wal.TakeCut(p.cat, p.pe.AcquireSnapshot(), meta))
			ends = append(ends, end)
		}
		return nil
	})
	for i, c := range cuts {
		defer parts[i].pe.ReleaseSnapshot(c.Pin)
	}
	if err != nil {
		return err
	}
	if hook := testHookAfterCut; hook != nil {
		hook()
	}
	for i, p := range parts {
		_, snapPath := wal.PartitionPaths(s.cfg.Dir, p.idx)
		if err := wal.WriteSnapshot(s.dir, snapPath, cuts[i]); err != nil {
			return err
		}
	}
	for i, p := range parts {
		if p.log == nil {
			continue
		}
		if err := p.log.Truncate(ends[i].Back()); err != nil {
			return err
		}
	}
	return nil
}

// Call invokes a stored procedure (one OLTP transaction) on its owning
// partition — selected via the slot table by the procedure's
// PartitionParam, partition 0 when unpartitioned. The invocation is routed
// and enqueued under the routing fence (so a slot-migration cutover cannot
// slip between the two), then awaited outside it.
func (s *Store) Call(proc string, params ...types.Value) (*pe.Result, error) {
	cr := <-s.CallAsync(proc, params...)
	return cr.Result, cr.Err
}

// CallAsync submits an invocation to the owning partition without waiting.
func (s *Store) CallAsync(proc string, params ...types.Value) <-chan pe.CallResult {
	s.routingMu.RLock()
	defer s.routingMu.RUnlock()
	eng, err := s.callTarget(proc, params)
	if err != nil {
		done := make(chan pe.CallResult, 1)
		done <- pe.CallResult{Err: err}
		return done
	}
	return eng.CallAsync(proc, params...)
}

// FlushBatches dispatches partial border batches on every partition.
func (s *Store) FlushBatches() {
	for _, p := range s.partList() {
		p.pe.FlushBatches()
	}
}

// Explain returns the physical plan the engine would execute for a SQL
// statement (access paths, join order, grouping). Planning runs on
// partition 0's goroutine and never races with execution; a read is one
// plan over every partition (readCut), so on a store of several each
// access also names the partitions it reads. The body of a deployed EE
// trigger explains as compiled for that trigger.
func (s *Store) Explain(sqlText string) (string, error) {
	parts := s.partList()
	p0 := parts[0]
	if !p0.pe.Started() {
		// Set-up is single-threaded (Deploy wires triggers the same way).
		return p0.ee.ExplainSQL(sqlText, len(parts))
	}
	var out string
	err := p0.pe.RunExclusive(func() error {
		var err error
		out, err = p0.ee.ExplainSQL(sqlText, len(parts))
		return err
	})
	return out, err
}

// Drain waits for all queued work on every partition to finish.
func (s *Store) Drain() {
	for _, p := range s.partList() {
		p.pe.Drain()
	}
}
