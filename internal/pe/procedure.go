// Package pe implements the partition engine: the upper layer of the
// two-layer architecture (Fig. 1). It receives client requests (stored
// procedure invocations and stream ingests), schedules transaction
// executions serially on a single partition goroutine, fires PE triggers at
// commit to drive workflow stages without client round trips, and enforces
// the paper's stream-oriented ordering guarantees (natural order, workflow
// order, serial execution over shared writable tables).
package pe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ee"
	"repro/internal/types"
)

// Procedure is a stored procedure: parameterized control code wrapping
// pre-plannable SQL, exactly like H-Store's Java procedures but in Go.
type Procedure struct {
	// Name identifies the procedure in calls, triggers, and the log.
	Name string
	// Handler is the control code. It runs inside a transaction execution:
	// all SQL it issues through ProcCtx is atomic, and its stream emissions
	// become downstream batches only if it commits.
	Handler func(ctx *ProcCtx) error
	// ReadSet / WriteSet declare the tables the procedure touches. The
	// engine uses the declarations to detect shared writable tables along a
	// workflow, which the paper says forces serial execution of the
	// involved procedures.
	ReadSet  []string
	WriteSet []string
	// PartitionParam is the 1-based index of the invocation parameter whose
	// hash selects the owning partition in a multi-partition store (the
	// H-Store "partitioning parameter"). 0 means the procedure is
	// unpartitioned: direct calls run on partition 0 only — such procedures
	// must not write tables the deployment treats as replicated reference
	// data, or partition 0's replica silently diverges (seed replicated
	// data before Start, or broadcast through ad-hoc Exec).
	PartitionParam int
}

// AdHocProc names the built-in procedure an ad-hoc write runs as
// (Engine.Exec; params: the statement text, then its own parameters) in a
// RecCall, and a coordinated ad-hoc write in its RecCoordCommit.
// It cannot be registered or called: that would skip the router's checks.
const AdHocProc = "@AdHoc"

// adHoc runs its statement in the ad-hoc plan scope, outside any window's
// procedure scope, and fires no PE trigger, live or at replay.
var adHoc = &Procedure{Name: AdHocProc, Handler: func(ctx *ProcCtx) error {
	ctx.ectx.ProcName, ctx.ectx.OnStreamInsert = "", nil
	res, err := ctx.pe.ee.ExecSQL(ctx.ectx, ctx.Params[0].Str(), ctx.Params[1:]...)
	ctx.SetResult(res)
	return err
}}

// SharedWritableTables reports the tables written by one of procs and
// read or written by another — the paper's forced-serial constraint over
// a workflow's procedures. Lowercased and sorted for deterministic
// reports. Deploy records it on the graph (Dataflow.SerialTables).
func SharedWritableTables(procs []*Procedure) []string {
	writes := map[string]string{} // table key -> writer proc
	for _, p := range procs {
		for _, t := range p.WriteSet {
			writes[strings.ToLower(t)] = p.Name
		}
	}
	shared := map[string]bool{}
	for _, p := range procs {
		for _, t := range append(append([]string{}, p.ReadSet...), p.WriteSet...) {
			if w, ok := writes[strings.ToLower(t)]; ok && w != p.Name {
				shared[strings.ToLower(t)] = true
			}
		}
	}
	out := make([]string, 0, len(shared))
	for t := range shared {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ProcCtx is the interface the control code sees: its input (batch or
// parameters), and SQL/stream access routed through the execution engine
// under the transaction's undo log. The context itself, like everything
// obtained through it, belongs to the execution: a handler must not keep
// it, or use it from another goroutine, once it has returned.
type ProcCtx struct {
	pe   *Engine
	ectx *ee.ExecCtx

	// Proc is the procedure being executed.
	Proc *Procedure
	// Batch is the input batch for workflow-triggered executions (border
	// procedures receive client tuples, interior ones the upstream output).
	// Nil for direct OLTP calls.
	Batch []types.Row
	// BatchID identifies the border batch this execution belongs to. It is
	// assigned at ingest and flows unchanged through the workflow.
	BatchID uint64
	// Params are the arguments of a direct OLTP invocation.
	Params []types.Value
	// TxnID is the transaction execution's unique id (assignment order =
	// admission order).
	TxnID uint64

	// out is the result returned to a Call client (see SetResult).
	out *ee.Result
}

// SetResult sets the rows returned to the client of a direct Call. The
// last SetResult before the handler returns wins. It may be given a result
// of the handler's own Exec / Query: the engine copies what it was given
// when the handler has returned, before the execution's memory is reused.
func (c *ProcCtx) SetResult(res *ee.Result) { c.out = res }

// Exec runs a SQL statement inside the transaction execution. Statements
// are planned once in the procedure's scope of the partition's plan cache
// (the H-Store model), and planned again after DDL. The pseudo-relation
// "batch" exposes the input batch to SQL.
//
// The result and its rows live in the execution's own memory: they are
// valid until the handler returns and must not be kept past it (copy what
// has to outlive the execution). params is read during the call only.
func (c *ProcCtx) Exec(sqlText string, params ...types.Value) (*ee.Result, error) {
	p, err := c.pe.procPlan(c.Proc, sqlText)
	if err != nil {
		return nil, err
	}
	return c.pe.ee.Execute(c.ectx, p, params...)
}

// Query is Exec for reads; provided for call-site clarity. The result is
// valid until the handler returns, like Exec's.
func (c *ProcCtx) Query(sqlText string, params ...types.Value) (*ee.Result, error) {
	return c.Exec(sqlText, params...)
}

// QueryRow runs a query expected to return at most one row; it returns nil
// when no row matches. The row is valid until the handler returns.
func (c *ProcCtx) QueryRow(sqlText string, params ...types.Value) (types.Row, error) {
	res, err := c.Exec(sqlText, params...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return res.Rows[0], nil
}

// Emit appends rows to a stream. If a downstream procedure is bound to the
// stream, the rows become its input batch when this execution commits
// (PE trigger). Emissions are undone on abort like any other write.
func (c *ProcCtx) Emit(stream string, rows ...types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	_, err := c.pe.ee.InsertRows(c.ectx, stream, rows)
	return err
}

// Abort lets control code abort the transaction execution with a reason;
// returning the error from the handler has the same effect.
func (c *ProcCtx) Abort(reason string) error {
	return fmt.Errorf("pe: aborted by procedure %s: %s", c.Proc.Name, reason)
}
