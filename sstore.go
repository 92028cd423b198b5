// Package sstore is a single-node reproduction of S-Store, the streaming
// NewSQL system of Cetintemel et al. (PVLDB 7(13), 2014): a main-memory
// OLTP engine in the H-Store mold — serial per-partition execution,
// stored procedures, command logging + snapshots — extended with native
// stream processing:
//
//   - Streams: append-only relations with hidden, garbage-collected state.
//   - Windows: engine-maintained tuple (ROWS n SLIDE s) and time
//     (RANGE d SLIDE s) windows over streams.
//   - EE triggers: SQL chained inside the running transaction when tuples
//     arrive on a stream or a window slides.
//   - PE triggers / workflows: committed stream output becomes the input
//     batch of the downstream stored procedure, with the paper's ordering
//     guarantees (natural order, workflow order, serial execution over
//     shared writable tables, window scoping).
//
// # Quick start
//
// A workflow is declared as one named Dataflow — procedure nodes, stream
// edges with batch sizes, and EE triggers together — and deployed
// atomically: Deploy validates the whole graph (unknown streams or
// procedures, duplicate consumers, cycles, invalid batch sizes) before
// touching any partition.
//
//	st := sstore.Open(sstore.Config{})
//	st.ExecScript(`
//	    CREATE STREAM readings (sensor INT, v FLOAT);
//	    CREATE TABLE alarms (sensor INT, v FLOAT);
//	`)
//	st.RegisterProcedure(&sstore.Procedure{
//	    Name: "detect",
//	    Handler: func(ctx *sstore.ProcCtx) error {
//	        _, err := ctx.Exec("INSERT INTO alarms SELECT sensor, v FROM batch WHERE v > 100.0")
//	        return err
//	    },
//	})
//	st.Deploy(&sstore.Dataflow{
//	    Name:  "alarming",
//	    Nodes: []sstore.DataflowNode{{Proc: "detect", Input: "readings", Batch: 8}},
//	})
//	st.Start()
//	st.Ingest("readings", sstore.Row{sstore.Int(1), sstore.Float(250)})
//
// Deployed graphs are catalog objects: list them with the SHOW DATAFLOWS
// statement, render one with EXPLAIN DATAFLOW <name>, and pause/resume one
// by name with Store.PauseDataflow / Store.ResumeDataflow (the statement
// ALTER DATAFLOW <name> PAUSE|RESUME from a wire client) — while paused, border
// ingest for the graph's streams queues, the graph's admitted executions
// wait behind the pause gate (EXPLAIN DATAFLOW shows what it holds on each
// partition), and resume runs them in the order they were held, so nothing
// is lost across the pause and a workflow chain resumes where it stopped,
// ahead of the batches behind it. Store.UndeployDataflow removes a graph live: admitted work
// drains behind the pause gate, then the wiring and catalog entries
// unwind on every partition (refused while another graph consumes one of
// its streams — undeploy the consumer first). Multi-stage graphs add Emits
// declarations so the deploy validator sees the edges; see
// examples/bikealert. Deploy is the only way to wire a stream edge or an EE
// trigger: every edge and trigger belongs to a named graph.
//
// # Scale-out
//
// Config.Partitions > 1 runs N independent serial-execution partitions in
// the H-Store mold, each with its own catalog replica, engine goroutine,
// and WAL segment. Declare a hash key with PARTITION BY on tables and
// streams; Ingest and keyed Calls (Procedure.PartitionParam) route to the
// owning partition. An ad-hoc query is one plan over every partition: it
// reads a partitioned relation on each (or on the key's owner, when the
// query binds a table's key by equality) and answers what one partition
// would:
//
//	st := sstore.Open(sstore.Config{Partitions: 4})
//	st.ExecScript(`CREATE STREAM readings (sensor INT, v FLOAT) PARTITION BY sensor;`)
//
// Routing goes through a 256-entry slot table (hash -> slot -> partition)
// rather than hash%N arithmetic, which makes the partition count elastic:
// Store.Rebalance(n) — also reachable as the ALTER SYSTEM PARTITIONS n
// statement, from sstorecli too — grows a running store,
// adding partition workers and migrating slots one at a time under live
// load (MVCC snapshot copy, catch-up replay, a sub-millisecond cutover
// barrier per slot). The migration is WAL-logged and crash-safe, and
// reopening a durable store with a larger Partitions count redistributes
// at recovery. Shrinking is not supported. Tables declared PARTITION BY
// col PARTIAL hold deliberate partition-local partial state (for example
// per-partition counts summed at query time); they are exempt from
// migration, and procedures maintaining them should upsert so partials
// self-initialize on partitions added later. See DESIGN.md §4.5 and the
// E10 experiment.
//
// # Snapshot reads
//
// Storage is multi-versioned: ad-hoc read-only queries (Store.Query)
// execute on the calling goroutine against an MVCC snapshot pinned at the
// latest committed sequence instead of queueing on the serial partition
// worker, so reads scale with client cores, never block behind writes or
// an in-flight cross-partition transaction, and always see a consistent
// committed state (per partition, and as a consistent cut across
// partitions). Writes, stored procedures, and the
// dataflow hot path keep H-Store's serial execution untouched; old row
// versions are reclaimed by a watermark GC once no reader can see them.
// See DESIGN.md §1.6.
//
// # Anti-caching (larger-than-memory tables)
//
// Config.MemoryBudget > 0 bounds the heap bytes of resident row versions:
// each partition gets an equal share plus a cold-tuple page store on disk
// (under Config.Dir, or a temp file when volatile), and the partition
// worker evicts cold committed versions — least recently touched first,
// via a per-tuple clock bit — into 32 KiB slotted pages at GC rhythm,
// leaving in-memory stubs that keep their MVCC visibility stamps. Reads
// that hit a stub read just the tuple's bytes back, outside the cold
// store's lock: the serial worker rehydrates it into the version chain,
// while snapshot readers decode read-through without stalling the worker.
// The cold store is deliberately volatile (never fsynced); recovery
// re-derives evicted data from the checkpoint + command-log replay, so
// durability guarantees are unchanged. Watch the cold_evictions /
// cold_faults / cold_resident_bytes rows of Store.StatsResult — with
// cold_read_bytes, the bytes those faults read, and index_bytes, the
// memory the budget does not govern — and see DESIGN.md §7.
//
// Work that genuinely spans partitions runs through the two-phase-commit
// coordinator: ad-hoc multi-row INSERTs spanning shards, INSERT ... SELECT,
// and broadcast UPDATE / DELETE commit atomically across partitions, and
// Store.MultiPartitionTxn runs an application handler as one atomic,
// durable cross-partition transaction:
//
//	st.MultiPartitionTxn(func(tx *sstore.MPTxn) error {
//	    from := tx.PartitionFor(sstore.Int(a))
//	    to := tx.PartitionFor(sstore.Int(b))
//	    if _, err := tx.Exec(from, "UPDATE acct SET bal = bal - 10 WHERE id = ?", sstore.Int(a)); err != nil {
//	        return err
//	    }
//	    _, err := tx.Exec(to, "UPDATE acct SET bal = bal + 10 WHERE id = ?", sstore.Int(b))
//	    return err
//	})
//
// The package is a thin façade over internal/core; see DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-reproduction results.
package sstore

import (
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// Store is one S-Store instance: a router over Config.Partitions
// serial-execution partitions (one by default).
type Store = core.Store

// Config configures a Store; the zero value is a volatile, fully
// stream-enabled single-partition engine. Set Partitions > 1 for hash-
// partitioned scale-out.
type Config = core.Config

// Procedure is a stored procedure definition.
type Procedure = pe.Procedure

// ProcCtx is the execution context handed to procedure handlers.
type ProcCtx = pe.ProcCtx

// Result is a statement or procedure result.
type Result = pe.Result

// MPTxn is the handle of a coordinated cross-partition transaction (see
// Store.MultiPartitionTxn).
type MPTxn = core.MPTxn

// Dataflow is a named workflow graph — procedure nodes, stream edges, EE
// triggers — deployed atomically as one unit with Store.Deploy.
type Dataflow = core.Dataflow

// DataflowNode is one procedure node of a Dataflow: a consumed Input
// stream with its Batch size (empty Input for OLTP entry nodes) and the
// streams the node Emits to.
type DataflowNode = core.DataflowNode

// DataflowTrigger is one EE trigger deployed with a Dataflow.
type DataflowTrigger = core.DataflowTrigger

// Value is one SQL scalar value.
type Value = types.Value

// Row is one tuple.
type Row = types.Row

// Log modes (Config.LogMode).
const (
	// LogBorderOnly is upstream backup: log only client inputs.
	LogBorderOnly = pe.LogBorderOnly
	// LogAllTEs logs every transaction execution.
	LogAllTEs = pe.LogAllTEs
)

// Sync policies (Config.Sync).
const (
	// SyncNever leaves flushing to the OS (fastest, weakest).
	SyncNever = wal.SyncNever
	// SyncEveryRecord fsyncs on every commit's critical path.
	SyncEveryRecord = wal.SyncEveryRecord
	// SyncGroupCommit batches the store log's fsyncs: execution keeps going
	// while a commit daemon hardens batches, and clients are acknowledged
	// when their commit future resolves. Nothing to tune: an fsync starts
	// as soon as a client is waiting and the previous one returned (at most
	// once per 500 µs on a busy log), and covers whatever was committed
	// since the previous one began.
	SyncGroupCommit = wal.SyncGroupCommit
)

// Open creates a Store from the configuration. Call ExecScript /
// RegisterProcedure / Deploy, then Start.
func Open(cfg Config) *Store { return core.Open(cfg) }

// Null is the SQL NULL value.
var Null = types.Null

// Int builds a BIGINT value.
func Int(v int64) Value { return types.NewInt(v) }

// Float builds a FLOAT value.
func Float(v float64) Value { return types.NewFloat(v) }

// Str builds a VARCHAR value.
func Str(v string) Value { return types.NewString(v) }

// Bool builds a BOOLEAN value.
func Bool(v bool) Value { return types.NewBool(v) }

// TS builds a TIMESTAMP value from microseconds since the epoch.
func TS(usec int64) Value { return types.NewTimestamp(usec) }
