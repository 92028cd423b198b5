package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/ee"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// This file is the router: the thin layer that maps client requests onto
// the store's partitions. Routing rules:
//
//   - Ingest on a PARTITION BY stream splits the tuples by key hash and
//     forwards each share to its owning partition; unpartitioned streams
//     are pinned to partition 0.
//   - Call routes by the procedure's PartitionParam (partition 0 when
//     unpartitioned).
//   - Exec routes single-partition INSERTs by key, broadcasts UPDATE /
//     DELETE on partitioned tables (each partition touches only its local
//     rows), and broadcasts writes to unpartitioned tables, which are
//     treated as replicated reference data.
//   - Query runs one plan over a cut of every partition (readCut): each
//     partitioned relation it reads is walked on every partition, or on the
//     key's owner alone when the access binds the key by equality, and each
//     unpartitioned one on partition 0.
//
// Keys do not map to partitions directly: catalog.PartitionHash (FNV-1a
// over a canonical, cross-process-stable encoding) buckets every key into
// one of catalog.NumSlots slots, and the store's published SlotTable maps
// slots to partitions. Rebalance moves ownership one slot at a time, so a
// routing decision and a cutover synchronize on routingMu: fast paths
// resolve-and-enqueue under the read side, cutovers swap the table under
// the write side.

// partitionHash is the routing hash (see catalog.PartitionHash).
func partitionHash(v types.Value) uint64 { return catalog.PartitionHash(v) }

// partitionFor maps a key value to its owning partition index per the
// published slot table.
func (s *Store) partitionFor(v types.Value) int {
	return s.slots.Load().Partition(v)
}

// callTarget picks the partition engine that owns a procedure invocation.
// A missing partitioning parameter is an error, not a fallback: silently
// running on partition 0 would write keyed rows to a partition that does
// not own them.
func (s *Store) callTarget(proc string, params []types.Value) (*pe.Engine, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	p0 := s.partList()[0]
	if len(s.partList()) == 1 {
		return p0.pe, nil
	}
	pr := p0.pe.Procedure(proc)
	if pr == nil || pr.PartitionParam <= 0 {
		return p0.pe, nil // unknown proc errors in the engine; unpartitioned runs on 0
	}
	if pr.PartitionParam > len(params) {
		return nil, fmt.Errorf("core: procedure %q routes by parameter %d but only %d supplied",
			proc, pr.PartitionParam, len(params))
	}
	return s.partList()[s.partitionFor(params[pr.PartitionParam-1])].pe, nil
}

// Ingest pushes tuples onto a bound border stream, hash-splitting them
// across partitions when the stream declares PARTITION BY. Relative order
// is preserved within each partition (the paper's per-partition natural
// order; there is no cross-partition order, exactly as in H-Store). Every
// row is checked against the stream's schema first, as its insert will
// check it: a row that does not fit fails the call, and nothing of it is
// enqueued.
func (s *Store) Ingest(stream string, rows ...types.Row) error {
	// Route-and-enqueue under the routing fence: a cutover cannot flip a
	// slot's owner between the hash decision below and the owning worker
	// receiving its share.
	s.routingMu.RLock()
	defer s.routingMu.RUnlock()
	if err := s.Err(); err != nil {
		return err
	}
	sch := s.schema.Load()
	rel := sch.Relation(stream)
	if rel != nil {
		for _, r := range rows {
			if err := rel.Schema.CheckRow(r); err != nil {
				return fmt.Errorf("core: ingest into %s: %w", stream, err)
			}
		}
	}
	if len(s.partList()) == 1 || rel == nil || !rel.Partitioned() {
		return s.partList()[0].pe.Ingest(stream, rows...)
	}
	// Router-level pause gate: a spanning batch into a paused dataflow
	// must queue or reject as a unit. The store-wide backlog bound is
	// checked and the shares forwarded under pauseGateMu, so one
	// partition's full backlog can never reject its share after other
	// partitions already queued theirs (a client retry would then
	// duplicate rows). Unpaused ingest takes none of this.
	if g := sch.PausedGraph(stream); g != "" {
		s.pauseGateMu.Lock()
		defer s.pauseGateMu.Unlock()
		if s.schema.Load().PausedGraph(stream) != "" { // still paused under the gate
			backlog := 0
			for _, p := range s.partList() {
				backlog += p.pe.PartialLen(stream)
			}
			if backlog+len(rows) > pe.MaxPausedBacklog {
				return fmt.Errorf("core: dataflow %q is paused and stream %q has a full backlog (%d tuples); resume the dataflow or retry later",
					g, stream, backlog)
			}
		}
	}
	buckets := make([][]types.Row, len(s.partList()))
	for _, r := range rows {
		// Hash the key as the engine will store it (defaults applied,
		// coerced), or the tuple would live on a partition keyed reads and
		// routed INSERTs never consult.
		v, err := insertPartValue(rel, r[rel.PartCol])
		if err != nil {
			return fmt.Errorf("core: ingest into %s: %w", stream, err)
		}
		i := s.partitionFor(v)
		buckets[i] = append(buckets[i], r)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := s.partList()[i].pe.Ingest(stream, b...); err != nil {
			return err
		}
	}
	return nil
}

// Exec runs an ad-hoc DML statement as its own logged transaction, routed
// per the rules at the top of this file. A SELECT takes the snapshot read
// path and logs nothing.
func (s *Store) Exec(sqlText string, params ...types.Value) (*pe.Result, error) {
	// System statements run before the routing fence: DEPLOY takes the
	// all-partition barrier and ALTER SYSTEM PARTITIONS takes routingMu
	// exclusively inside Rebalance, so neither must be entered with the
	// shared side held.
	if res, handled, err := s.systemStatement(sqlText); handled {
		return res, err
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	// The routing fence covers the whole statement: keyed INSERT routing
	// resolves targets and enqueues under it, and the coordinated branches
	// acquire exclMu inside it (routingMu is ordered before exclMu — the
	// same order a cutover uses).
	s.routingMu.RLock()
	defer s.routingMu.RUnlock()
	// ParseCached shares ASTs between calls; the routing below only reads
	// the tree, so sharing is safe.
	stmt, err := sql.ParseCached(sqlText)
	if err != nil {
		return nil, err
	}
	if _, ok := stmt.(*sql.Select); ok {
		return s.readLatest(true, sqlText, params)
	}
	if len(s.partList()) == 1 {
		return s.partList()[0].pe.Exec(sqlText, params...)
	}
	switch st := stmt.(type) {
	case *sql.Insert:
		rel := s.schema.Load().Relation(st.Table)
		if rel == nil {
			return s.partList()[0].pe.Exec(sqlText, params...) // engine produces the error
		}
		if st.Query != nil {
			return s.execInsertSelect(st, rel, sqlText, params)
		}
		if !rel.Partitioned() {
			if rel.Kind == catalog.KindTable {
				// Replicated reference table: every replica applies the same
				// statement, coordinated so a failing leg (say, a duplicate
				// key raced onto one partition) cannot leave the replicas
				// diverged.
				return s.coordExecAll(sqlText, params, false)
			}
			return s.partList()[0].pe.Exec(sqlText, params...)
		}
		colMap, err := insertColMap(st, rel)
		if err != nil {
			return nil, err
		}
		targets, err := s.insertTargets(st, rel, colMap, params)
		if err != nil {
			return nil, err
		}
		if idx, single := singleTarget(targets); single {
			return s.partList()[idx].pe.Exec(sqlText, params...) // today's fast path
		}
		// The tuples span partitions: materialize them and run one
		// coordinated transaction with a row-batch leg per owning partition
		// — all partitions insert or none do.
		rows, err := s.staticInsertRows(st, rel, colMap, params)
		if err != nil {
			return nil, err
		}
		var inline [8][]types.Row // a store of up to 8 partitions buckets on the stack
		buckets := inline[:0]
		if n := len(s.partList()); n <= len(inline) {
			buckets = inline[:n]
		} else {
			buckets = make([][]types.Row, n)
		}
		bucketRows(buckets, rows, targets)
		return s.coordInsertBuckets(rel.Name, buckets)
	case *sql.Update:
		// Re-keying a row would leave it on a partition that no longer owns
		// its hash: keyed routing would miss it and routed INSERTs could
		// duplicate its primary key store-wide.
		if rel := s.schema.Load().Relation(st.Table); rel != nil && rel.Partitioned() {
			partName := rel.Schema.Column(rel.PartCol).Name
			for _, a := range st.Set {
				if strings.EqualFold(a.Column, partName) {
					return nil, fmt.Errorf("core: UPDATE cannot change partition column %q of %q (rows cannot move between partitions)", partName, rel.Name)
				}
			}
		}
		exprs := []sql.Expr{st.Where}
		for _, a := range st.Set {
			exprs = append(exprs, a.Value)
		}
		if err := s.vetWriteExprs(st.Table, exprs...); err != nil {
			return nil, err
		}
		return s.routeWrite(st.Table, sqlText, params)
	case *sql.Delete:
		if err := s.vetWriteExprs(st.Table, st.Where); err != nil {
			return nil, err
		}
		return s.routeWrite(st.Table, sqlText, params)
	default:
		// DDL: the engine's prepared path refuses it, since the Schema
		// changes only through ExecScript, before Start.
		return s.partList()[0].pe.Exec(sqlText, params...)
	}
}

// vetWriteExprs guards UPDATE / DELETE expressions: a broadcast write
// (partitioned or replicated target) evaluates subqueries per leg against
// local data, so subqueries over partitioned or partition-0-pinned
// relations would silently change which rows are touched. Writes pinned to
// partition 0 (unpartitioned stream target) still must not consult
// partitioned relations, whose data partition 0 holds only a shard of.
func (s *Store) vetWriteExprs(table string, exprs ...sql.Expr) error {
	sch := s.schema.Load()
	rel := sch.Relation(table)
	broadcast := rel == nil || rel.Partitioned() || rel.Kind == catalog.KindTable
	return fanoutSubqueryCheck(sch, broadcast, exprs...)
}

// routeWrite routes an UPDATE / DELETE by its target relation. Writes that
// touch every partition (hash-split data, replicated reference tables) run
// as one coordinated transaction: all legs commit or none.
func (s *Store) routeWrite(table, sqlText string, params []types.Value) (*pe.Result, error) {
	rel := s.schema.Load().Relation(table)
	switch {
	case rel == nil:
		return s.partList()[0].pe.Exec(sqlText, params...)
	case rel.Partitioned():
		return s.coordExecAll(sqlText, params, true)
	case rel.Kind == catalog.KindTable:
		return s.coordExecAll(sqlText, params, false)
	default:
		return s.partList()[0].pe.Exec(sqlText, params...)
	}
}

// insertColMap resolves the schema ordinal each supplied value of an
// INSERT feeds (identical to the engine's plan-time mapping, recomputed
// here because routing happens before any partition plans the statement).
func insertColMap(ins *sql.Insert, rel *catalog.RelDef) ([]int, error) {
	if len(ins.Columns) == 0 {
		m := make([]int, rel.Schema.NumColumns())
		for i := range m {
			m[i] = i
		}
		return m, nil
	}
	m := make([]int, 0, len(ins.Columns))
	for _, c := range ins.Columns {
		ord := -1
		for i := 0; i < rel.Schema.NumColumns(); i++ {
			if strings.EqualFold(rel.Schema.Column(i).Name, c) {
				ord = i
				break
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("core: INSERT into %q: unknown column %q", rel.Name, c)
		}
		m = append(m, ord)
	}
	return m, nil
}

// insertPartValue resolves the partition-key value a tuple will be STORED
// with: the column DEFAULT replaces NULL and the value is coerced to the
// declared type, mirroring ValidateRow — routing must hash what the
// engine keeps ('5' and 5 land together; a defaulted key lands on the
// default's owner, not hash(NULL)'s).
func insertPartValue(rel *catalog.RelDef, v types.Value) (types.Value, error) {
	col := rel.Schema.Column(rel.PartCol)
	if v.IsNull() && col.HasDeflt {
		v = col.Default
	}
	if v.IsNull() {
		return v, nil // stored as NULL (or rejected by NOT NULL in the leg)
	}
	cv, err := types.Coerce(v, col.Type)
	if err != nil {
		return types.Null, fmt.Errorf("core: INSERT into %q: partition key: %w", rel.Name, err)
	}
	return cv, nil
}

// insertTargets resolves the owning partition of every value tuple of an
// INSERT ... VALUES into a partitioned relation. Tuples hashing to one
// partition keep the routed fast path; a spanning set becomes a
// coordinated transaction.
func (s *Store) insertTargets(ins *sql.Insert, rel *catalog.RelDef, colMap []int, params []types.Value) ([]int, error) {
	pos := -1
	for i, ord := range colMap {
		if ord == rel.PartCol {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("core: INSERT into partitioned %q must supply partition column %q",
			rel.Name, rel.Schema.Column(rel.PartCol).Name)
	}
	targets := make([]int, 0, len(ins.Rows))
	for _, row := range ins.Rows {
		if pos >= len(row) {
			return nil, fmt.Errorf("core: INSERT into %q: tuple has no value for partition column", rel.Name)
		}
		v, err := sql.StaticValue(row[pos], params)
		if err != nil {
			return nil, fmt.Errorf("core: partition key: %w", err)
		}
		if v, err = insertPartValue(rel, v); err != nil {
			return nil, err
		}
		targets = append(targets, s.partitionFor(v))
	}
	return targets, nil
}

// singleTarget reports whether every tuple routes to one partition.
func singleTarget(targets []int) (int, bool) {
	if len(targets) == 0 {
		return 0, true
	}
	for _, t := range targets[1:] {
		if t != targets[0] {
			return 0, false
		}
	}
	return targets[0], true
}

// staticInsertRows materializes the full-width row images of an
// INSERT ... VALUES so they can be carried to their owning partitions as
// coordinated row-batch legs. Every value must be statically evaluable
// (literal or parameter) — a spanning INSERT with computed expressions has
// no single partition that could evaluate them.
func (s *Store) staticInsertRows(ins *sql.Insert, rel *catalog.RelDef, colMap []int, params []types.Value) ([]types.Row, error) {
	arity := rel.Schema.NumColumns()
	rows := make([]types.Row, 0, len(ins.Rows))
	for _, exprs := range ins.Rows {
		if len(exprs) != len(colMap) {
			return nil, fmt.Errorf("core: INSERT into %q expects %d values, got %d", rel.Name, len(colMap), len(exprs))
		}
		row := make(types.Row, arity)
		for i := range row {
			row[i] = types.Null
		}
		for i, e := range exprs {
			v, err := sql.StaticValue(e, params)
			if err != nil {
				return nil, fmt.Errorf("core: multi-partition INSERT into %q: %w", rel.Name, err)
			}
			row[colMap[i]] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// systemStatement is the front door of Query and Exec: it intercepts the
// statements addressed to the system rather than to its data, ahead of SQL
// parsing and routing, so they work through any wire client (sstorecli can
// declare and deploy a whole graph, or grow the store, without the Go API):
//
//	SHOW DATAFLOWS
//	EXPLAIN DATAFLOW <name>
//	EXPLAIN <statement>
//	DEPLOY DATAFLOW <graph>
//	ALTER DATAFLOW <name> PAUSE|RESUME
//	ALTER SYSTEM PARTITIONS <n>
//	ALTER SYSTEM PROMOTE (on a follower's store, the only one it takes)
//
// Everything else, which is every statement on a hot path, is turned away
// on its first keyword without being split.
func (s *Store) systemStatement(sqlText string) (*pe.Result, bool, error) {
	text := strings.TrimSpace(sqlText)
	word := text
	if i := strings.IndexAny(text, " \t\r\n"); i >= 0 {
		word = text[:i]
	}
	if !strings.EqualFold(word, "SHOW") && !strings.EqualFold(word, "EXPLAIN") &&
		!strings.EqualFold(word, "DEPLOY") && !strings.EqualFold(word, "ALTER") {
		return nil, false, nil
	}
	fields := strings.Fields(strings.TrimSuffix(text, ";"))
	is := func(i int, kw string) bool { return i < len(fields) && strings.EqualFold(fields[i], kw) }
	switch f := s.follower; {
	case len(fields) == 3 && is(0, "ALTER") && is(1, "SYSTEM") && is(2, "PROMOTE"):
		if f == nil {
			return nil, true, errors.New("core: ALTER SYSTEM PROMOTE: this store is a primary")
		}
		if _, err := f.Promote(); err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"promoted_at_lsn"},
			Rows: []types.Row{{types.NewInt(int64(f.Applied()))}}, RowsAffected: 1}, true, nil
	case f != nil && !f.Promoted():
		return nil, true, errReadOnlyReplica
	case len(fields) == 2 && is(0, "SHOW") && is(1, "DATAFLOWS"):
		return s.DataflowsResult(), true, nil
	case len(fields) == 3 && is(0, "EXPLAIN") && is(1, "DATAFLOW"):
		text, err := s.ExplainDataflow(fields[2])
		if err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"dataflow"},
			Rows: []types.Row{{types.NewString(text)}}}, true, nil
	case len(fields) > 1 && is(0, "EXPLAIN"):
		plan, err := s.Explain(strings.TrimSpace(text[len(word):]))
		if err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"plan"},
			Rows: []types.Row{{types.NewString(plan)}}}, true, nil
	case is(0, "DEPLOY") && is(1, "DATAFLOW"):
		stmt, err := sql.Parse(sqlText)
		if err != nil {
			return nil, true, err
		}
		dd, ok := stmt.(*sql.DeployDataflow)
		if !ok {
			return nil, true, fmt.Errorf("core: %T is not DEPLOY DATAFLOW", stmt)
		}
		if err := s.Deploy(dataflowFromAST(dd)); err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"deployed"},
			Rows: []types.Row{{types.NewString(dd.Name)}}, RowsAffected: 1}, true, nil
	case len(fields) == 4 && is(0, "ALTER") && is(1, "DATAFLOW"):
		op, state := s.PauseDataflow, "paused"
		if is(3, "RESUME") {
			op, state = s.ResumeDataflow, "running"
		} else if !is(3, "PAUSE") {
			return nil, true, fmt.Errorf("core: ALTER DATAFLOW: unknown action %q (want PAUSE or RESUME)", fields[3])
		}
		if err := op(fields[2]); err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"dataflow", "state"},
			Rows: []types.Row{{types.NewString(fields[2]), types.NewString(state)}}}, true, nil
	case len(fields) == 4 && is(0, "ALTER") && is(1, "SYSTEM") && is(2, "PARTITIONS"):
		// Rebalance takes routingMu itself.
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, true, fmt.Errorf("core: ALTER SYSTEM PARTITIONS: bad count %q", fields[3])
		}
		if err := s.Rebalance(n); err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"partitions"},
			Rows: []types.Row{{types.NewInt(int64(s.NumPartitions()))}}}, true, nil
	}
	return nil, false, nil
}

// Query runs an ad-hoc read-only query at the latest committed cut, as one
// plan over every partition (readCut): it answers what one partition would.
func (s *Store) Query(sqlText string, params ...types.Value) (*pe.Result, error) {
	if res, handled, err := s.systemStatement(sqlText); handled {
		return res, err
	}
	if err := parseSelect(sqlText, "core: Query is read-only; only SELECT is supported (use Exec for writes)"); err != nil {
		return nil, err
	}
	return s.readLatest(true, sqlText, params)
}

// parseSelect parses sqlText through the shared statement cache and refuses
// anything but a SELECT with the calling door's own message.
func parseSelect(sqlText, refusal string) error {
	stmt, err := sql.ParseCached(sqlText)
	if err != nil {
		return err
	}
	if _, ok := stmt.(*sql.Select); !ok {
		return errors.New(refusal)
	}
	return nil
}

// This is the snapshot read path, the only one: a cut (one pinned committed
// sequence per partition) and readCut, which runs a SELECT against it.
// Three doors lead here. Store.Query (and Exec of a SELECT) and
// Follower.Query acquire a cut, read it, and release it (readLatest);
// QueryPinned borrows the cut its SnapshotPin holds. No partition worker is
// enqueued on any of them, and writers (including an in-flight 2PC
// transaction's fragment phase) proceed concurrently.

// snapCut is the partition list plus one storage.SnapPin per partition,
// and the ee.Cut a read executes over: each partition's engine at its
// pin's sequence, and the slot table the cut's data is placed by (nil on a
// follower's cut). A pooled cut makes a steady read load allocation-free.
type snapCut struct {
	parts []*partition
	pins  []storage.SnapPin
	cut   ee.Cut
}

var cutPool = sync.Pool{New: func() any { return new(snapCut) }}

// acquireCut pins every partition's latest committed sequence into c.
//
// A primary passes fenced: the vector is taken under seqMu, atomically
// against 2PC commit publication, so a coordinated write is visible on every
// partition or on none. The partition list is captured inside the same hold:
// a rebalance publishes an extended list, the new slot table, and the
// migrated partitions' commit sequences in one seqMu write-side window, so
// list and vector always describe the same cut. The slot table is taken in
// the same hold, so a keyed access names the partition that holds its key
// at this cut's sequences, not at the live table's.
//
// A follower does not: its apply goroutine publishes a coordinated
// transaction's legs at independent moments, so its cut is a consistent
// prefix per partition, not an atomic cross-partition one (see replica.go).
// Its slot table changes only when the log ends (applier.finish), not when
// a slot move's records are applied, so its cut records none and every
// access to a partitioned relation reads every partition.
func (s *Store) acquireCut(c *snapCut, fenced bool) {
	if fenced {
		s.seqMu.RLock()
		defer s.seqMu.RUnlock()
		c.cut.Slots = s.slots.Load()
	}
	c.parts = s.partList()
	n := len(c.parts)
	if cap(c.pins) < n {
		c.pins = make([]storage.SnapPin, n)
		c.cut.Parts = make([]ee.CutPart, n)
	}
	c.pins, c.cut.Parts = c.pins[:n], c.cut.Parts[:n]
	for i, p := range c.parts {
		c.pins[i] = p.pe.AcquireSnapshot()
		c.cut.Parts[i] = ee.CutPart{Eng: p.ee, Seq: c.pins[i].Seq()}
	}
}

// release drops the cut's pins and every pointer it holds, so a pooled cut
// keeps no partition alive.
func (c *snapCut) release() {
	for i, p := range c.parts {
		p.pe.ReleaseSnapshot(c.pins[i])
		c.pins[i] = storage.SnapPin{}
		c.cut.Parts[i] = ee.CutPart{}
	}
	c.parts, c.cut.Slots = nil, nil
}

// readLatest is the per-statement door: acquire a pooled cut, read, release.
func (s *Store) readLatest(fenced bool, sqlText string, params []types.Value) (*pe.Result, error) {
	c := cutPool.Get().(*snapCut)
	s.acquireCut(c, fenced)
	res, err := s.readCut(c, sqlText, params)
	c.release()
	cutPool.Put(c)
	return res, err
}

// readCut runs a SELECT against a cut as one plan: planned once, from
// partition 0's plan cache (every partition holds the same schema), and
// executed once, on this goroutine, over every partition's relations at
// the cut's sequences (ee.Cut).
func (s *Store) readCut(c *snapCut, sqlText string, params []types.Value) (*pe.Result, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	p0 := c.parts[0]
	plan, err := p0.ee.PrepareCached(sqlText)
	if err != nil {
		return nil, err
	}
	return p0.pe.QueryCut(&c.cut, plan, params...)
}

// fanoutSubqueryCheck rejects subqueries (recursively — WalkExpr does not
// descend into InSubquery.Query) whose relations a distributed execution
// cannot see in full. Partitioned relations expose only the local shard in
// every leg; with rejectLocal set, partition-0-pinned streams/windows are
// also rejected because legs 1..N-1 see them empty (statements running
// solely on partition 0 may pass rejectLocal=false).
func fanoutSubqueryCheck(sch *catalog.Schema, rejectLocal bool, exprs ...sql.Expr) error {
	var subErr error
	var checkExprs func(exprs ...sql.Expr)
	var checkSubSelect func(q *sql.Select)
	badRel := func(name string) {
		rel := sch.Relation(name)
		if rel == nil {
			return
		}
		switch {
		case rel.Partitioned():
			subErr = fmt.Errorf("core: subquery over partitioned relation %q is not supported across partitions", name)
		case rejectLocal && rel.Kind != catalog.KindTable:
			subErr = fmt.Errorf("core: subquery over unpartitioned stream/window %q is not supported across partitions (its tuples live on partition 0 only)", name)
		}
	}
	checkExprs = func(exprs ...sql.Expr) {
		for _, e := range exprs {
			sql.WalkExpr(e, func(x sql.Expr) {
				if sub, ok := x.(*sql.InSubquery); ok && sub.Query != nil {
					checkSubSelect(sub.Query)
				}
			})
		}
	}
	checkSubSelect = func(q *sql.Select) {
		badRel(q.From.Name)
		for _, j := range q.Joins {
			badRel(j.Table.Name)
		}
		checkExprs(selectExprs(q)...)
	}
	checkExprs(exprs...)
	return subErr
}

// localSource reports whether an INSERT ... SELECT's source runs as
// written where the insert runs: it reads no partitioned relation (a leg
// holds just its shard), and when the insert is broadcast to every replica
// (onlyReplicated), replicated tables only, or the replicas diverge (a
// stream's or window's tuples live on partition 0 only).
func localSource(sch *catalog.Schema, q *sql.Select, onlyReplicated bool) bool {
	local := func(name string) bool {
		rel := sch.Relation(name)
		return rel == nil || !rel.Partitioned() && (!onlyReplicated || rel.Kind == catalog.KindTable)
	}
	if !local(q.From.Name) {
		return false
	}
	for _, j := range q.Joins {
		if !local(j.Table.Name) {
			return false
		}
	}
	return fanoutSubqueryCheck(sch, onlyReplicated, selectExprs(q)...) == nil
}

// selectExprs collects every expression position of a Select (WHERE,
// HAVING, projection items, join ON clauses) — the single traversal the
// cross-partition subquery guards share, so a future clause only needs
// threading in here.
func selectExprs(q *sql.Select) []sql.Expr {
	exprs := make([]sql.Expr, 0, 2+len(q.Items)+len(q.Joins))
	exprs = append(exprs, q.Where, q.Having)
	for _, it := range q.Items {
		exprs = append(exprs, it.Expr)
	}
	for _, j := range q.Joins {
		exprs = append(exprs, j.On)
	}
	return exprs
}

// runExclusiveAll holds every partition at its barrier simultaneously and
// runs fn once while the whole store is quiescent — the all-partition
// generalization of pe.Engine.RunExclusive that Checkpoint builds on.
func (s *Store) runExclusiveAll(fn func() error) error {
	// exclMu is taken even for a single partition: the list is captured
	// under it, so a concurrent rebalance (which grows the list at its own
	// exclusive barrier) cannot leave this barrier holding a stale subset.
	s.exclMu.Lock()
	defer s.exclMu.Unlock()
	parts := s.partList()
	// Every 2PC enlistment slot is acquired (ascending) BEFORE any worker
	// is parked: a coordinator mid-protocol holds slots and needs its
	// enlisted workers to make progress, so parking workers first could
	// deadlock against it. With all slots held, no coordinator is
	// mid-protocol and none can start until the barrier releases.
	// Coordinators never block on a slot below one they hold (txncoord.go),
	// so this ascending sweep cannot deadlock against them either.
	acquireAllSlots(parts)
	defer releaseAllSlots(parts)
	n := len(parts)
	if n == 1 {
		return parts[0].pe.RunExclusive(fn)
	}
	var entered sync.WaitGroup
	entered.Add(n)
	release := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reached := false
			errs[i] = parts[i].pe.RunExclusive(func() error {
				reached = true
				entered.Done()
				<-release
				return nil
			})
			if !reached {
				entered.Done() // engine refused the barrier; unblock fn
			}
		}(i)
	}
	var fnErr error
	reached0 := false
	errs[0] = parts[0].pe.RunExclusive(func() error {
		reached0 = true
		entered.Done()
		entered.Wait() // every partition parked at its barrier
		fnErr = fn()
		return fnErr
	})
	if !reached0 {
		entered.Done()
	}
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fnErr // errs[0] already covers fn's error; this is the nil path
}
