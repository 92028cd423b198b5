package ee

import (
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// Pseudo-relation names visible inside EE trigger bodies. For stream
// triggers NEW and INSERTED both hold the arriving batch and EXPIRED is
// empty. For window triggers NEW holds the post-change window contents,
// INSERTED the tuples that entered on this change, and EXPIRED the tuples
// that were evicted — the deltas incremental maintenance needs.
const (
	NewRelation      = "new"
	InsertedRelation = "inserted"
	ExpiredRelation  = "expired"
)

// Engine is the execution engine: it owns statement planning, physical
// execution, native window maintenance, and EE (query-level) triggers.
// Mutating methods must be called from the partition engine's single
// execution goroutine (H-Store's serial single-sited execution model); the
// only internal locking is the plan cache's, because read-only snapshot
// executions (ExecCtx.Snapshot) run on client goroutines and plan their
// statements concurrently with the worker. Snapshot executions touch no
// mutable engine state beyond that: they read versioned storage at a
// pinned sequence.
type Engine struct {
	cat *catalog.Catalog
	met *metrics.Metrics

	// triggers maps a relation to its EE triggers in creation order. Keyed
	// by the catalog entry, like persistent: a stream insert asks both per
	// batch and pays no name folding for it.
	triggers map[*catalog.Relation][]*Trigger
	// persistent marks streams whose tuples are retained for a downstream
	// PE-trigger consumer; the partition engine garbage-collects them when
	// the consuming transaction execution commits.
	persistent map[*catalog.Relation]bool

	// plans is the partition's one plan cache, shared by the worker and
	// snapshot readers (caller goroutines); see PlanKey.
	plans sql.Cache[PlanKey, *Prepared]

	// MaxTriggerDepth bounds EE trigger cascades to catch accidental
	// cycles (insert into s from a trigger on s).
	MaxTriggerDepth int

	// rowsExamined counts the rows access paths handed to statements from
	// this engine's tables, and the rows a count access counted there;
	// rowsReturned counts the rows its SELECTs gave back. Each table walk
	// adds its tally once, when it ends: snapshot reads run on client
	// goroutines, and a read over a cut walks other partitions' tables.
	rowsExamined, rowsReturned atomic.Int64
}

// Trigger is an EE trigger: statements executed inside the running
// transaction whenever tuples arrive on a stream (or a window slides).
type Trigger struct {
	Name     string
	Relation string
	Stmts    []*Prepared

	rel     *catalog.Relation
	usesNew bool // some body reads NEW, so a window firing must materialize it
}

// New creates an execution engine over the catalog.
func New(cat *catalog.Catalog, met *metrics.Metrics) *Engine {
	if met == nil {
		met = &metrics.Metrics{}
	}
	return &Engine{
		cat:             cat,
		met:             met,
		triggers:        make(map[*catalog.Relation][]*Trigger),
		persistent:      make(map[*catalog.Relation]bool),
		MaxTriggerDepth: 16,
	}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *metrics.Metrics { return e.met }

// RowCounts reports how many rows statements examined in this engine's
// tables and how many its SELECTs returned. Safe from any goroutine.
func (e *Engine) RowCounts() (examined, returned int64) {
	return e.rowsExamined.Load(), e.rowsReturned.Load()
}

// MarkStreamPersistent tells the EE that a stream's tuples are consumed by
// a downstream PE trigger and must be retained until that consumer's
// transaction execution commits.
func (e *Engine) MarkStreamPersistent(stream string) {
	if rel := e.cat.Relation(stream); rel != nil {
		e.persistent[rel] = true
	}
}

// ExecCtx is the per-transaction-execution context threaded through every
// statement: the undo log that makes the TE atomic, the transient NEW
// batches for trigger bodies, the owning procedure name (for window
// scoping), and the hook the partition engine uses to observe stream
// appends (PE triggers fire from those at commit). It also carries the
// memory the execution's statements build their results in (scratch.go), so
// a context serves one goroutine at a time, and what it hands out is valid
// until its owner calls Reset. The zero value is ready to use.
type ExecCtx struct {
	Undo     *storage.UndoLog
	ProcName string
	ReadOnly bool

	// Snapshot pins every relation read to the versions visible at
	// SnapshotSeq (see storage.PartitionClock). A snapshot context must be
	// read-only; it is safe to execute from any goroutine, concurrently
	// with the partition worker, provided the caller holds a snapshot pin
	// so GC cannot outrun the read.
	Snapshot    bool
	SnapshotSeq storage.Seq
	// Cut, on a snapshot context, replaces SnapshotSeq: the statement reads
	// every partition's relations, each at its own pinned sequence, as one
	// store (see accessRows).
	Cut *Cut

	// NewRows holds the transient relations the caller supplies by name
	// (a procedure's input "batch"). Keys are lowercase: statements bind
	// the canonical name at prepare time and a missing key reads as empty.
	NewRows map[string][]types.Row

	// OnStreamInsert, when non-nil, is called for every batch of rows
	// appended to a stream together with their row ids (for later GC). The
	// two lists are the context's: the hook copies what it keeps. The rows
	// in them are the stream's stored rows, immutable.
	OnStreamInsert func(stream string, ids []storage.RowID, rows []types.Row)

	// DisableEETriggers turns off EE trigger firing and native window
	// maintenance — the configuration used by the naïve H-Store baseline.
	DisableEETriggers bool

	depth int // trigger cascade depth

	// deltas holds the NEW / INSERTED / EXPIRED rows of the trigger firing
	// in progress, by the slot trigger bodies bound at prepare time.
	deltas [numDeltas][]types.Row

	// mem is the context's TE-scoped memory (scratch.go): what statements
	// build and hand back lives there until Reset.
	mem scratch
}

// Result is the outcome of one statement. It and its rows belong to the
// context that executed the statement and are valid until that context's
// next Reset (types.CloneRows copies them out).
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int
}

// Cut is what a snapshot read spanning partitions sees: each partition's
// engine and the sequence pinned on it, in partition order, and the slot
// table that placed the rows at those sequences (nil on a follower, whose
// cut fixes none, so no keyed access narrows).
type Cut struct {
	Parts []CutPart
	Slots *catalog.SlotTable
}

// CutPart is one partition of a Cut: its engine, whose catalog holds its
// relations and whose rows_examined its walks are charged to, and its pin.
type CutPart struct {
	Eng *Engine
	Seq storage.Seq
}

// PlanKey names one statement tree in the plan cache: the scope it is
// planned in and the text it came from, whose parse the tree is. The
// scopes are ad-hoc (the zero Proc) and a procedure's (Proc: planned with
// the procedure's transient relations).
type PlanKey struct {
	Proc string
	Text string
}

// Plan returns the plan cached under key, calling plan to make it on a
// miss (statements are planned once and run many times, H-Store style).
// Safe from any goroutine; two concurrent first plans of one key both run
// and one result wins.
func (e *Engine) Plan(key PlanKey, plan func() (*Prepared, error)) (*Prepared, error) {
	if p, ok := e.plans.Get(key); ok {
		return p, nil
	}
	p, err := plan()
	if err != nil {
		return nil, err
	}
	e.plans.Put(key, p)
	return p, nil
}

// PrepareCached returns the ad-hoc plan of a statement text.
func (e *Engine) PrepareCached(text string) (*Prepared, error) {
	return e.Plan(PlanKey{Text: text}, func() (*Prepared, error) { return e.Prepare(text, nil) })
}

// PlanCacheSize reports how many plans the cache holds and the most it
// ever holds.
func (e *Engine) PlanCacheSize() (n, limit int) { return e.plans.Len(), e.plans.Cap() }

// Execute runs a prepared statement. Top-level calls (depth 0) count as a
// PE→EE crossing; trigger-chained calls count as EE-internal work. The
// parameters are copied into the context before anything keeps them, so a
// caller's variadic slice need not outlive the call.
func (e *Engine) Execute(ctx *ExecCtx, p *Prepared, args ...types.Value) (*Result, error) {
	if ctx.depth == 0 {
		e.met.Add(metrics.PEToEE, 1)
	} else {
		e.met.Add(metrics.EEInternal, 1)
	}
	params := ctx.mem.vals.copyOf(args)
	switch {
	case p.sel != nil:
		return e.execSelect(ctx, p, params)
	case p.ins != nil:
		if ctx.ReadOnly {
			return nil, fmt.Errorf("ee: INSERT in read-only context")
		}
		return atomically(ctx, func() (*Result, error) { return e.execInsert(ctx, p.ins, params) })
	case p.upd != nil:
		if ctx.ReadOnly {
			return nil, fmt.Errorf("ee: UPDATE in read-only context")
		}
		return atomically(ctx, func() (*Result, error) { return e.execUpdate(ctx, p.upd, params) })
	case p.del != nil:
		if ctx.ReadOnly {
			return nil, fmt.Errorf("ee: DELETE in read-only context")
		}
		return atomically(ctx, func() (*Result, error) { return e.execDelete(ctx, p.del, params) })
	}
	return nil, fmt.Errorf("ee: empty prepared statement %q", p.Text)
}

// ExecSQL is the text door: the text's cached ad-hoc plan, executed.
func (e *Engine) ExecSQL(ctx *ExecCtx, text string, params ...types.Value) (*Result, error) {
	p, err := e.PrepareCached(text)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, p, params...)
}

// ---------- DDL ----------

// ExecDDL applies a script's DDL statements to a copy of s and returns the
// copy; it touches nothing else, so a failing script leaves no trace. The
// caller installs the result (Sync).
func ExecDDL(s *catalog.Schema, stmts []sql.Statement) (*catalog.Schema, error) {
	next := s.Clone()
	for _, stmt := range stmts {
		if err := applyDDL(next, stmt); err != nil {
			return nil, err
		}
	}
	return next, nil
}

func applyDDL(s *catalog.Schema, stmt sql.Statement) error {
	switch st := stmt.(type) {
	case *sql.CreateTable:
		return createRelation(s, catalog.KindTable, st)
	case *sql.CreateStream:
		return createRelation(s, catalog.KindStream, &sql.CreateTable{Name: st.Name, Columns: st.Columns,
			PartitionBy: st.PartitionBy, Partial: st.Partial, IfNotExists: st.IfNotExists})
	case *sql.CreateWindow:
		spec := catalog.WindowSpec{Rows: st.Spec.Rows, Size: st.Spec.Size, Slide: st.Spec.Slide, Source: st.Stream}
		if src := s.Relation(st.Stream); src != nil && !spec.Rows {
			if spec.TimeCol = src.Schema.ColumnIndex(st.Spec.TimeCol); spec.TimeCol < 0 {
				return fmt.Errorf("ee: window %q: unknown time column %q", st.Name, st.Spec.TimeCol)
			}
		}
		_, err := s.CreateWindow(st.Name, spec)
		return err
	case *sql.CreateIndex:
		return s.CreateIndex(st.Name, st.Table, st.Columns, st.Unique)
	case *sql.DeployDataflow:
		return fmt.Errorf("ee: DEPLOY DATAFLOW needs the store's graph wiring; run it through the store's Query/Exec, not a DDL script")
	case *sql.Drop:
		switch st.Kind {
		case "TRIGGER":
			// A trigger belongs to the dataflow that deployed it: dropped
			// here, the graph would still list it and a partition added later
			// would carry it again.
			return fmt.Errorf("ee: DROP TRIGGER %s: a trigger belongs to its dataflow; remove it with UndeployDataflow", st.Name)
		case "INDEX":
			return s.DropIndex(st.Name, st.IfExists)
		case "STREAM":
			return s.Drop(st.Name, catalog.KindStream, st.IfExists)
		case "WINDOW":
			return s.Drop(st.Name, catalog.KindWindow, st.IfExists)
		default:
			return s.Drop(st.Name, catalog.KindTable, st.IfExists)
		}
	default:
		return fmt.Errorf("ee: %T is not a DDL statement", stmt)
	}
}

// createRelation runs CREATE TABLE, or a CREATE STREAM given as a keyless
// table statement.
func createRelation(s *catalog.Schema, kind catalog.RelationKind, st *sql.CreateTable) error {
	schema, err := schemaFromDefs(st.Name, st.Columns, st.PrimaryKey)
	if err != nil {
		return err
	}
	if st.IfNotExists && s.Relation(st.Name) != nil {
		return nil
	}
	rel, err := s.Create(kind, schema)
	if err != nil || st.PartitionBy == "" {
		return err
	}
	return rel.SetPartitionColumn(st.PartitionBy, st.Partial)
}

// Sync installs a Schema on this engine's partition (catalog.Catalog.Sync)
// and, when relations changed, drops every cached plan and the triggers and
// persistence marks of relations that are gone.
func (e *Engine) Sync(next *catalog.Schema) error {
	changed, err := e.cat.Sync(next)
	if err != nil || !changed {
		return err
	}
	e.plans.Clear()
	maps.DeleteFunc(e.triggers, func(rel *catalog.Relation, _ []*Trigger) bool { return e.cat.Relation(rel.Name) != rel })
	maps.DeleteFunc(e.persistent, func(rel *catalog.Relation, _ bool) bool { return e.cat.Relation(rel.Name) != rel })
	return nil
}

// ExecScript applies a semicolon-separated DDL script to this engine's
// partition as a whole: every statement or none.
func (e *Engine) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	next, err := ExecDDL(e.cat.Schema(), stmts)
	if err != nil {
		return err
	}
	return e.Sync(next)
}

func schemaFromDefs(name string, defs []sql.ColumnDef, pk []string) (*types.Schema, error) {
	cols := make([]types.Column, 0, len(defs))
	for _, d := range defs {
		c := types.Column{Name: d.Name, Type: d.Type, NotNull: d.NotNull}
		if d.Default != nil {
			lit, ok := d.Default.(*sql.Literal)
			if !ok {
				return nil, fmt.Errorf("ee: default for %s.%s must be a literal", name, d.Name)
			}
			v, err := types.Coerce(lit.Value, d.Type)
			if err != nil {
				return nil, err
			}
			c.Default = v
			c.HasDeflt = true
		}
		cols = append(cols, c)
	}
	return types.NewSchema(name, cols, pk)
}

// ---------- EE triggers ----------

// CreateTrigger registers an EE trigger: each body statement runs inside
// the inserting transaction whenever tuples arrive on relation (a stream)
// or the relation (a window) slides. Bodies may reference the pseudo-
// relation NEW holding the arriving batch / current window contents.
func (e *Engine) CreateTrigger(name, relation string, bodies ...string) error {
	tr, err := e.compileTrigger(name, relation, bodies)
	if err != nil {
		return err
	}
	e.triggers[tr.rel] = append(e.triggers[tr.rel], tr)
	return nil
}

// CheckTrigger validates a trigger definition — relation kind, duplicate
// name, body compilation — without registering it. Dataflow deployment
// uses it to vet a whole graph before touching any partition.
func (e *Engine) CheckTrigger(name, relation string, bodies ...string) error {
	_, err := e.compileTrigger(name, relation, bodies)
	return err
}

// compileTrigger runs every CreateTrigger validation and prepares the
// bodies, returning the ready-to-register trigger.
func (e *Engine) compileTrigger(name, relation string, bodies []string) (*Trigger, error) {
	rel, err := e.cat.MustRelation(relation)
	if err != nil {
		return nil, err
	}
	if rel.Kind == catalog.KindTable {
		return nil, fmt.Errorf("ee: EE triggers attach to streams or windows, %q is a table", relation)
	}
	for _, ts := range e.triggers[rel] {
		if ts.Name == name {
			return nil, fmt.Errorf("ee: trigger %q already exists", name)
		}
	}
	tr := &Trigger{Name: name, Relation: rel.Name, rel: rel}
	transient := map[string]*types.Schema{
		NewRelation:      rel.Schema,
		InsertedRelation: rel.Schema,
		ExpiredRelation:  rel.Schema,
	}
	for _, b := range bodies {
		p, err := e.Prepare(b, transient)
		if err != nil {
			return nil, fmt.Errorf("ee: trigger %q body: %w", name, err)
		}
		tr.Stmts = append(tr.Stmts, p)
		tr.usesNew = tr.usesNew || p.usesNew
	}
	return tr, nil
}

// DropTrigger removes an EE trigger by name.
func (e *Engine) DropTrigger(name string, ifExists bool) error {
	for rel, list := range e.triggers {
		for i, tr := range list {
			if tr.Name == name {
				e.triggers[rel] = append(list[:i], list[i+1:]...)
				return nil
			}
		}
	}
	if ifExists {
		return nil
	}
	return fmt.Errorf("ee: trigger %q does not exist", name)
}

// fireTriggers runs every trigger on rel with the NEW / INSERTED / EXPIRED
// transients bound. On a stream NEW is the arriving batch, the same rows as
// INSERTED. On a window NEW is the post-slide contents, a copy of the whole
// window, so it is materialized only when some trigger body reads it: a
// body maintained from the deltas costs the delta, not the window.
func (e *Engine) fireTriggers(ctx *ExecCtx, rel *catalog.Relation, inserted, expired []types.Row) error {
	trs := e.triggers[rel]
	if len(trs) == 0 || ctx.DisableEETriggers {
		return nil
	}
	if ctx.depth >= e.MaxTriggerDepth {
		return fmt.Errorf("ee: trigger cascade deeper than %d on %q", e.MaxTriggerDepth, rel.Name)
	}
	newRows := inserted
	if rel.Kind == catalog.KindWindow {
		newRows = nil
		for _, tr := range trs {
			if tr.usesNew {
				newRows = rel.Table.ScanRows()
				break
			}
		}
	}
	savedDeltas, savedDepth := ctx.deltas, ctx.depth
	ctx.deltas = [numDeltas][]types.Row{deltaNew: newRows, deltaInserted: inserted, deltaExpired: expired}
	ctx.depth++
	defer func() {
		ctx.deltas, ctx.depth = savedDeltas, savedDepth
	}()
	for _, tr := range trs {
		for _, p := range tr.Stmts {
			if _, err := e.Execute(ctx, p); err != nil {
				return fmt.Errorf("ee: trigger %q: %w", tr.Name, err)
			}
		}
	}
	return nil
}

// ---------- relation access helpers ----------

// readRows returns a stored access's relation in this engine's catalog,
// enforcing window scope on window reads.
func (e *Engine) readRows(ctx *ExecCtx, access *tableAccess) (*catalog.Relation, error) {
	rel, err := e.cat.MustRelation(access.relName)
	if err != nil {
		return nil, err
	}
	if rel.Kind == catalog.KindWindow {
		if err := e.checkWindowScope(ctx, rel, false); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// checkWindowScope enforces the paper's "scope of a transaction execution":
// window state may only be accessed by (consecutive) TEs of the procedure
// that owns the window. The first procedure to touch a window claims it.
// Ad-hoc contexts (no procedure) may read but never write.
func (e *Engine) checkWindowScope(ctx *ExecCtx, rel *catalog.Relation, write bool) error {
	win := rel.Win
	if ctx.ProcName == "" {
		if write {
			return fmt.Errorf("ee: window %q: writes require the owning procedure (scope violation)", rel.Name)
		}
		return nil // monitoring reads allowed
	}
	if win.OwnerProc == "" {
		owner := ctx.ProcName
		win.OwnerProc = owner
		if ctx.Undo != nil {
			ctx.Undo.PushFunc(func() { win.OwnerProc = "" })
		}
		return nil
	}
	if win.OwnerProc != ctx.ProcName {
		return fmt.Errorf("ee: window %q is scoped to procedure %q; access from %q violates transaction-execution scope",
			rel.Name, win.OwnerProc, ctx.ProcName)
	}
	return nil
}

// InsertRows is the uniform write path: tables store rows directly;
// streams append, drive native windows, fire EE triggers, notify the PE,
// and garbage-collect; windows admit rows through their slide logic.
func (e *Engine) InsertRows(ctx *ExecCtx, relName string, rows []types.Row) (int, error) {
	rel, err := e.cat.MustRelation(relName)
	if err != nil {
		return 0, err
	}
	switch rel.Kind {
	case catalog.KindTable:
		for _, r := range rows {
			if _, err := rel.Table.Insert(r, ctx.Undo); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	case catalog.KindStream:
		return e.insertStream(ctx, rel, rows)
	case catalog.KindWindow:
		if err := e.checkWindowScope(ctx, rel, true); err != nil {
			return 0, err
		}
		// A tuple window keeps staged rows across TEs, and these are the
		// caller's: it gets copies. (A stream hands its windows stored rows.)
		own := ctx.mem.rows.take(len(rows))
		for i, r := range rows {
			own[i] = r.Clone()
		}
		if err := e.admitToWindow(ctx, rel, own); err != nil {
			return 0, err
		}
		return len(rows), nil
	}
	return 0, fmt.Errorf("ee: unknown relation kind for %q", relName)
}

// insertStream appends a batch to a stream and runs the streaming side
// effects in a fixed order: (1) store tuples, (2) update windows over the
// stream, (3) fire EE triggers with NEW = batch, (4) notify the PE layer
// for PE triggers, (5) GC the tuples unless a PE consumer needs them.
func (e *Engine) insertStream(ctx *ExecCtx, rel *catalog.Relation, rows []types.Row) (int, error) {
	// validated holds the rows as stored: immutable, and alive for as long
	// as anything refers to them, whatever happens to the stream.
	validated := ctx.mem.rows.take(len(rows))
	ids := ctx.mem.ids.take(len(rows))
	for i, r := range rows {
		id, err := rel.Table.Insert(r, ctx.Undo)
		if err != nil {
			return 0, err
		}
		validated[i], _ = rel.Table.Get(id)
		ids[i] = id
	}
	e.met.Add(metrics.TuplesIngested, int64(len(rows)))

	if !ctx.DisableEETriggers {
		for _, w := range rel.Windows {
			if err := e.admitToWindow(ctx, w, validated); err != nil {
				return 0, err
			}
		}
	}
	if err := e.fireTriggers(ctx, rel, validated, nil); err != nil {
		return 0, err
	}
	if ctx.OnStreamInsert != nil {
		ctx.OnStreamInsert(rel.Name, ids, validated)
	}
	if !e.persistent[rel] {
		// No PE consumer: the batch only existed to drive windows and EE
		// triggers, so it expires immediately (automatic GC, §2).
		for _, id := range ids {
			if err := rel.Table.Delete(id, ctx.Undo); err != nil {
				return 0, err
			}
		}
		e.met.Add(metrics.StreamGCTuples, int64(len(ids)))
	}
	return len(rows), nil
}

// GCStreamRows removes consumed input tuples from a stream; the partition
// engine calls this inside the consuming TE so consumption and deletion
// commit atomically.
func (e *Engine) GCStreamRows(ctx *ExecCtx, stream string, ids []storage.RowID) error {
	rel, err := e.cat.MustRelation(stream)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := rel.Table.Delete(id, ctx.Undo); err != nil {
			return err
		}
	}
	e.met.Add(metrics.StreamGCTuples, int64(len(ids)))
	return nil
}
