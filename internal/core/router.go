package core

import (
	"errors"
	"fmt"
	"sort"
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
//   - Query reads the key's owner alone when the WHERE binds a partitioned
//     table's key by equality; otherwise it fans out to all partitions when
//     a partitioned relation is referenced and merges the per-partition
//     results (concatenation, re-aggregation of COUNT/SUM/MIN/MAX, global
//     re-sort, LIMIT).
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
// order; there is no cross-partition order, exactly as in H-Store).
func (s *Store) Ingest(stream string, rows ...types.Row) error {
	// Route-and-enqueue under the routing fence: a cutover cannot flip a
	// slot's owner between the hash decision below and the owning worker
	// receiving its share.
	s.routingMu.RLock()
	defer s.routingMu.RUnlock()
	if err := s.Err(); err != nil {
		return err
	}
	if len(s.partList()) == 1 {
		return s.partList()[0].pe.Ingest(stream, rows...)
	}
	sch := s.schema.Load()
	rel := sch.Relation(stream)
	if rel == nil || !rel.Partitioned() {
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
		if rel.PartCol >= len(r) {
			return fmt.Errorf("core: ingest into %s: row has %d columns, partition column is #%d",
				stream, len(r), rel.PartCol+1)
		}
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
	// ParseCached shares ASTs between calls; the fan-out planner below is
	// read-only over the tree (it value-copies the Select before rewriting
	// a leg), so sharing is safe.
	stmt, err := sql.ParseCached(sqlText)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sql.Select); ok {
		return s.readLatest(true, sel, sqlText, params)
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
		buckets := make(map[int][]types.Row)
		for i, row := range rows {
			buckets[targets[i]] = append(buckets[targets[i]], row)
		}
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
//	DEPLOY DATAFLOW <graph>
//	ALTER SYSTEM PARTITIONS <n>
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
	switch {
	case len(fields) == 2 && is(0, "SHOW") && is(1, "DATAFLOWS"):
		return s.DataflowsResult(), true, nil
	case len(fields) == 3 && is(0, "EXPLAIN") && is(1, "DATAFLOW"):
		text, err := s.ExplainDataflow(fields[2])
		if err != nil {
			return nil, true, err
		}
		return &pe.Result{Columns: []string{"dataflow"},
			Rows: []types.Row{{types.NewString(text)}}}, true, nil
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

// Query runs an ad-hoc read-only query at the latest committed cut.
// Queries touching only unpartitioned relations run on partition 0, and a
// query binding a partitioned table's key by equality on the key's owner;
// other queries over partitioned relations fan out to every partition and
// the results are merged (see mergePlan for the supported shapes).
func (s *Store) Query(sqlText string, params ...types.Value) (*pe.Result, error) {
	if res, handled, err := s.systemStatement(sqlText); handled {
		return res, err
	}
	sel, err := parseSelect(sqlText, "core: Query is read-only; only SELECT is supported (use Exec for writes)")
	if err != nil {
		return nil, err
	}
	return s.readLatest(true, sel, sqlText, params)
}

// parseSelect parses sqlText through the shared statement cache (the AST is
// treated read-only) and refuses anything but a SELECT with the calling
// door's own message.
func parseSelect(sqlText, refusal string) (*sql.Select, error) {
	stmt, err := sql.ParseCached(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, errors.New(refusal)
	}
	return sel, nil
}

// This is the snapshot read path, the only one: a cut (one pinned committed
// sequence per partition) and readCut, which runs a parsed SELECT against
// it. Three doors lead here. Store.Query (and Exec of a SELECT) and
// Follower.Query acquire a cut, read it, and release it (readLatest);
// QueryPinned borrows the cut its SnapshotPin holds. No partition worker is
// enqueued on any of them, and writers (including an in-flight 2PC
// transaction's fragment phase) proceed concurrently.

// snapCut is the partition list plus one storage.SnapPin per partition;
// results and errs are the fan-out's leg slots, kept beside the pins so
// that a pooled cut makes a steady read load allocation-free. slots is the
// slot table the cut's data is placed by, nil on a follower's cut.
type snapCut struct {
	parts   []*partition
	pins    []storage.SnapPin
	slots   *catalog.SlotTable
	results []*pe.Result
	errs    []error
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
// the same hold, so a keyed read names the partition that holds its key at
// this cut's sequences, not at the live table's.
//
// A follower does not: its apply goroutine publishes a coordinated
// transaction's legs at independent moments, so its cut is a consistent
// prefix per partition, not an atomic cross-partition one (see replica.go).
// Its slot table changes only when the log ends (applier.finish), not when
// a slot move's records are applied, so its cut records none and every
// read over a partitioned relation fans out.
func (s *Store) acquireCut(c *snapCut, fenced bool) {
	if fenced {
		s.seqMu.RLock()
		defer s.seqMu.RUnlock()
		c.slots = s.slots.Load()
	}
	c.parts = s.partList()
	n := len(c.parts)
	if cap(c.pins) < n {
		c.pins = make([]storage.SnapPin, n)
		c.results = make([]*pe.Result, n)
		c.errs = make([]error, n)
	}
	c.pins, c.results, c.errs = c.pins[:n], c.results[:n], c.errs[:n]
	for i, p := range c.parts {
		c.pins[i] = p.pe.AcquireSnapshot()
	}
}

// release drops the cut's pins and every pointer it holds, so a pooled cut
// never keeps leg results alive.
func (c *snapCut) release() {
	for i, p := range c.parts {
		p.pe.ReleaseSnapshot(c.pins[i])
		c.pins[i] = storage.SnapPin{}
		c.results[i] = nil
		c.errs[i] = nil
	}
	c.parts, c.slots = nil, nil
}

// readLatest is the per-statement door: acquire a pooled cut, read, release.
func (s *Store) readLatest(fenced bool, sel *sql.Select, sqlText string, params []types.Value) (*pe.Result, error) {
	c := cutPool.Get().(*snapCut)
	s.acquireCut(c, fenced)
	res, err := s.readCut(c, sel, sqlText, params)
	c.release()
	cutPool.Put(c)
	return res, err
}

// readCut runs a parsed SELECT against a cut: plan it, then read one
// partition, or one leg per partition plus the merge. A statement whose
// rows all live on one partition (no partitioned relation: partition 0; its
// key bound: the key's owner) runs there as written, on this goroutine; of
// a fan-out's legs, partition 0's runs on this goroutine and each other on
// one of this call's own. Either way at the cut's sequences.
func (s *Store) readCut(c *snapCut, sel *sql.Select, sqlText string, params []types.Value) (*pe.Result, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if len(c.parts) == 1 { // one partition executes every statement whole
		return c.parts[0].pe.QueryAtSeq(c.pins[0].Seq(), sqlText, params...)
	}
	sch := s.schema.Load()
	ref, err := queryScope(sch, sel)
	if err != nil {
		return nil, err
	}
	i, whole := 0, ref == nil
	if !whole && c.slots != nil {
		i, whole = keyedPartition(sch, c.slots, ref, sel.Where, params)
	}
	if whole {
		return c.parts[i].pe.QueryAtSeq(c.pins[i].Seq(), sqlText, params...)
	}
	plan, err := mergeSelect(sel, sqlText, false, params)
	if err != nil {
		return nil, err
	}
	read := func(i int) {
		p := c.parts[i]
		leg, err := plan.legPlan(p.ee)
		if err == nil {
			c.results[i], err = p.pe.QueryPlanAtSeq(c.pins[i].Seq(), leg, plan.params...)
		}
		c.errs[i] = err
	}
	var wg sync.WaitGroup
	for i := 1; i < len(c.parts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			read(i)
		}(i)
	}
	read(0)
	wg.Wait()
	for _, err := range c.errs {
		if err != nil {
			return nil, err
		}
	}
	return plan.merge.merge(sel, c.results, params)
}

// keyedPartition reports the partition of slots that holds every row a
// SELECT can return: one whose WHERE has a top-level conjunct binding ref's
// partition column by equality to a literal or parameter. The column is
// named unqualified or by ref's qualifier (its alias, else its name), which
// is how the engine resolves it; a name the engine finds ambiguous fails
// the same way on one partition as on all. Only a table the rebalance keeps
// placed by its key qualifies: a PARTIAL table holds any key anywhere, and
// a stream or window holds what was emitted or admitted where it ran.
func keyedPartition(sch *catalog.Schema, slots *catalog.SlotTable, ref *sql.TableRef, where sql.Expr, params []types.Value) (int, bool) {
	rel := sch.Relation(ref.Name)
	if rel.Kind != catalog.KindTable || rel.Partial {
		return 0, false
	}
	qual := ref.Alias
	if qual == "" {
		qual = ref.Name
	}
	col := rel.Schema.Column(rel.PartCol)
	k, ok := keyBinding(where, qual, col.Name, col.Type, params)
	if !ok {
		return 0, false
	}
	return slots.Partition(k), true
}

// keyBinding finds a top-level conjunct of e that is col = v or v = col,
// col naming the partition column and v a literal or parameter usable as a
// key, and returns v coerced to the column's type.
func keyBinding(e sql.Expr, qual, col string, typ types.Type, params []types.Value) (types.Value, bool) {
	b, ok := e.(*sql.Binary)
	if !ok {
		return types.Null, false
	}
	switch b.Op {
	case "AND":
		if k, ok := keyBinding(b.L, qual, col, typ, params); ok {
			return k, true
		}
		return keyBinding(b.R, qual, col, typ, params)
	case "=":
		if k, ok := boundKey(b.L, b.R, qual, col, typ, params); ok {
			return k, true
		}
		return boundKey(b.R, b.L, qual, col, typ, params)
	}
	return types.Null, false
}

// boundKey reports the key x binds when c names col. The value must be
// non-NULL and survive coercion to the column's type unchanged (a BIGINT
// key bound to 5.0 qualifies; to 5.5 or '5' it does not), so every row
// equal to it hashes to its slot: catalog.PartitionHash collapses what
// Compare equates.
func boundKey(c, x sql.Expr, qual, col string, typ types.Type, params []types.Value) (types.Value, bool) {
	ref, ok := c.(*sql.ColumnRef)
	if !ok || !strings.EqualFold(ref.Column, col) || (ref.Table != "" && !strings.EqualFold(ref.Table, qual)) {
		return types.Null, false
	}
	v, err := sql.StaticValue(x, params)
	if err != nil || v.IsNull() {
		return types.Null, false
	}
	k, err := types.Coerce(v, typ)
	if err != nil || k.Compare(v) != 0 {
		return types.Null, false
	}
	return k, true
}

// selectPlan is how a SELECT runs across partitions. A nil merge means it
// reads no partitioned relation and runs on partition 0 alone, as written.
// Otherwise every partition runs the leg and merge combines the results.
// The leg is the client's own tree unless the merge rewrites it: AVG pushed
// down (SUM + hidden COUNT per AVG), HAVING lifted above the merge
// (stripped, hidden aggregates appended), or LIMIT under aggregation
// withheld from the legs (buildLeg). Legs and merge alike bind the client's
// parameter slice: a '?' is its index in the client's statement, so a
// rewrite that duplicates, drops or moves one binds the same value.
type selectPlan struct {
	merge *queryMerge
	sel   *sql.Select
	// text is the client's statement: sel's own text, or, for an
	// INSERT ... SELECT source (source set), the INSERT's.
	text   string
	source bool
	params []types.Value // the client's
}

// planSelect plans a SELECT for a store of several partitions: the scope
// check and the merge plan. text is the client's statement, sel's own or
// the INSERT's whose source sel is (source).
func planSelect(sch *catalog.Schema, sel *sql.Select, text string, source bool, params []types.Value) (selectPlan, error) {
	ref, err := queryScope(sch, sel)
	if err != nil || ref == nil {
		return selectPlan{sel: sel, text: text, source: source, params: params}, err
	}
	return mergeSelect(sel, text, source, params)
}

// mergeSelect plans a SELECT over a partitioned relation: legs and merge.
func mergeSelect(sel *sql.Select, text string, source bool, params []types.Value) (selectPlan, error) {
	merge, err := mergePlan(sel, params)
	return selectPlan{merge: merge, sel: sel, text: text, source: source, params: params}, err
}

// legPlan returns a partition's plan of the leg. The client's own SELECT
// is its text's ad-hoc plan; a tree the router builds — a rewritten leg or
// an INSERT ... SELECT's source — is planned in the leg scope under the
// client's text, and built only when that plan is not cached: it depends on
// the statement alone, never on parameter values.
func (sp *selectPlan) legPlan(eng *ee.Engine) (*ee.Prepared, error) {
	rewrite := sp.merge != nil && sp.merge.rewritesLeg()
	if !rewrite && !sp.source {
		return eng.PrepareCached(sp.text)
	}
	return eng.Plan(ee.PlanKey{Leg: true, Text: sp.text}, func() (*ee.Prepared, error) {
		tree := sp.sel
		if rewrite {
			tree = buildLeg(sp.sel, sp.merge)
		}
		return eng.PrepareTree(tree, sp.text, nil)
	})
}

// queryScope returns the select's one partitioned relation (nil when it
// references none), and rejects shapes a fan-out would silently evaluate
// wrong:
//
//   - Subqueries over partitioned relations see only partition-local data
//     inside each leg.
//   - Joins between two partitioned relations (including self-joins) lose
//     every match whose sides live on different partitions; only a single
//     partitioned relation joined against replicated reference tables is
//     co-located everywhere.
//   - Unpartitioned streams/windows exist only on partition 0, so joining
//     them into a fan-out leaves legs 1..N-1 empty.
func queryScope(sch *catalog.Schema, sel *sql.Select) (*sql.TableRef, error) {
	var part *sql.TableRef
	nPart, nLocal := 0, 0 // partitioned refs; partition-0-only refs
	classify := func(ref *sql.TableRef) bool {
		rel := sch.Relation(ref.Name)
		switch {
		case rel == nil:
		case rel.Partitioned():
			part = ref
			nPart++
			return true
		case rel.Kind != catalog.KindTable:
			nLocal++ // unpartitioned stream/window: data on partition 0 only
		}
		return false
	}
	classify(&sel.From)
	for i := range sel.Joins {
		j := &sel.Joins[i]
		// LEFT JOIN onto a partitioned right side NULL-extends the outer
		// row on every leg that does not own the match — the merge would
		// keep both the real match and the spurious NULL row.
		if classify(&j.Table) && j.Left {
			return nil, fmt.Errorf("core: LEFT JOIN onto partitioned relation %q is not supported across partitions (non-owning partitions would emit spurious NULL-extended rows)", j.Table.Name)
		}
	}
	if nPart > 1 {
		return nil, fmt.Errorf("core: joining two partitioned relations is not supported across partitions (cross-partition matches would be lost); join against replicated tables or query per partition")
	}
	if nPart > 0 && nLocal > 0 {
		return nil, fmt.Errorf("core: joining a partitioned relation with an unpartitioned stream or window is not supported across partitions (its tuples live on partition 0 only)")
	}
	// Subqueries anywhere in the statement (WHERE, HAVING, projection, JOIN
	// ON — and nested inside other subqueries) must not touch partitioned or
	// partition-0-pinned relations: each fan-out leg would evaluate them
	// against partition-local data.
	// Pinned streams/windows only break subqueries when the statement fans
	// out; a query running solely on partition 0 sees them in full.
	return part, fanoutSubqueryCheck(sch, part != nil, selectExprs(sel)...)
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

// vetSourceSelect guards INSERT ... SELECT routing: when the insert is
// broadcast to every replica (onlyReplicated), the SELECT must read
// replicated tables exclusively, or the replicas diverge — each would
// insert its own shard's rows. When the insert runs on partition 0 only,
// partitioned sources are still wrong (partition 0 holds just its shard),
// but pinned streams/windows are fine (partition 0 holds them in full).
func vetSourceSelect(sch *catalog.Schema, q *sql.Select, onlyReplicated bool) error {
	check := func(name string) error {
		rel := sch.Relation(name)
		if rel == nil {
			return nil
		}
		if rel.Partitioned() {
			return fmt.Errorf("core: INSERT ... SELECT from partitioned relation %q is not routable; insert per partition", name)
		}
		if onlyReplicated && rel.Kind != catalog.KindTable {
			return fmt.Errorf("core: INSERT ... SELECT from stream/window %q into a replicated table is not routable (its tuples live on partition 0 only)", name)
		}
		return nil
	}
	if err := check(q.From.Name); err != nil {
		return err
	}
	for _, j := range q.Joins {
		if err := check(j.Table.Name); err != nil {
			return err
		}
	}
	return fanoutSubqueryCheck(sch, onlyReplicated, selectExprs(q)...)
}

// ---------- fan-out result merge ----------

// aggKind classifies one output column of a fanned-out query for the merge.
type aggKind uint8

const (
	aggKey   aggKind = iota // grouping / passthrough column
	aggCount                // combine by summing
	aggSum                  // combine by summing
	aggMin                  // combine by minimum
	aggMax                  // combine by maximum
	aggAvg                  // partial SUM in the leg; recombined with a hidden COUNT
)

// queryMerge is the combination plan for per-partition results.
type queryMerge struct {
	cols     []aggKind // nil when the projection is SELECT *
	hasAgg   bool
	distinct bool
	limit    int // -1 = no limit
	// AVG pushdown: partition-local averages cannot be recombined, so the
	// router rewrites each fan-out AVG(x) into SUM(x) at its original
	// position plus a hidden COUNT(x) appended to the projection, and the
	// merge divides. avgHidden maps the AVG item's position to its hidden
	// count column; outWidth is the client-visible projection width the
	// merged rows are trimmed back to.
	avgHidden map[int]int
	outWidth  int
	// HAVING pushup: a HAVING over aggregates filters partial groups if
	// run per leg, so the legs run without it (stripHaving) and having
	// filters the merged rows. Aggregates it references that the
	// projection does not already carry ride as hidden extraItems,
	// trimmed with the AVG counts.
	having      mergedExpr
	stripHaving bool
	extraItems  []sql.SelectItem
	// LIMIT under aggregation truncates partial groups per leg, so the
	// legs run without it (stripLimit) and the merge applies m.limit —
	// which is always re-applied after the merge regardless.
	stripLimit bool
	// Expression-over-aggregate pushdown (SELECT SUM(a)/COUNT(b) ...):
	// partition-local evaluation of such an expression is unmergeable, so
	// the legs project the expression's first aggregate at the item's
	// position (exprLeg) — a genuine partial, combined by its kind in
	// m.cols — any further aggregates it references resolve like HAVING's
	// (reusing a projected column or riding hidden), and exprCols
	// re-evaluates the full expression over each merged row before the
	// hidden columns are trimmed.
	exprCols map[int]mergedExpr
	exprLeg  map[int]sql.Expr
}

// firstAggregate returns the first aggregate call in expr's walk order,
// or nil when it contains none.
func firstAggregate(e sql.Expr) *sql.FuncCall {
	var first *sql.FuncCall
	sql.WalkExpr(e, func(x sql.Expr) {
		if first == nil {
			if fc, ok := x.(*sql.FuncCall); ok && sql.IsAggregate(fc.Name) {
				first = fc
			}
		}
	})
	return first
}

// classifyAggFunc maps a projected (or HAVING-referenced) aggregate call
// to its merge combinator, rejecting forms that cannot be recombined from
// partition-local partials.
func classifyAggFunc(f *sql.FuncCall) (aggKind, error) {
	if f.Distinct {
		return aggKey, fmt.Errorf("core: %s(DISTINCT ...) cannot be merged across partitions", f.Name)
	}
	switch strings.ToUpper(f.Name) {
	case "COUNT":
		return aggCount, nil
	case "SUM":
		return aggSum, nil
	case "MIN":
		return aggMin, nil
	case "MAX":
		return aggMax, nil
	case "AVG":
		if f.Star {
			return aggKey, fmt.Errorf("core: AVG(*) cannot be merged across partitions")
		}
		return aggAvg, nil // decomposed into SUM + hidden COUNT at fan-out
	default:
		return aggKey, fmt.Errorf("core: %s cannot be merged across partitions; compute SUM and COUNT instead", strings.ToUpper(f.Name))
	}
}

// mergePlan classifies the select's projection and clauses, rejecting
// shapes whose per-partition execution cannot be combined correctly.
func mergePlan(sel *sql.Select, params []types.Value) (*queryMerge, error) {
	m := &queryMerge{distinct: sel.Distinct, limit: -1}
	star := false
	type aggExprItem struct {
		pos   int
		expr  sql.Expr
		first *sql.FuncCall
	}
	var exprItems []aggExprItem
	for _, it := range sel.Items {
		if it.Star {
			star = true
			continue
		}
		k := aggKey
		if f, ok := it.Expr.(*sql.FuncCall); ok && sql.IsAggregate(f.Name) {
			var err error
			if k, err = classifyAggFunc(f); err != nil {
				return nil, err
			}
		} else if sql.ContainsAggregate(it.Expr) {
			// Expression over aggregates: classify the position by the
			// expression's first aggregate (what the legs will compute
			// here); compilation waits until the whole projection is
			// classified so hidden columns land after it.
			first := firstAggregate(it.Expr)
			var err error
			if k, err = classifyAggFunc(first); err != nil {
				return nil, err
			}
			exprItems = append(exprItems, aggExprItem{pos: len(m.cols), expr: it.Expr, first: first})
		}
		if k != aggKey {
			m.hasAgg = true
		}
		m.cols = append(m.cols, k)
	}
	if star {
		if m.hasAgg {
			return nil, fmt.Errorf("core: SELECT * mixed with aggregates cannot be merged across partitions")
		}
		if len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("core: SELECT * with GROUP BY cannot be merged across partitions")
		}
		m.cols = nil // unknown width: plain concatenation
	}
	m.outWidth = len(m.cols)
	if len(exprItems) > 0 && !star {
		m.exprCols = make(map[int]mergedExpr, len(exprItems))
		m.exprLeg = make(map[int]sql.Expr, len(exprItems))
		resolver := m.havingResolver(sel)
		for _, xi := range exprItems {
			pos, first := xi.pos, xi.first
			fn, err := compileMergeExpr(xi.expr, func(e sql.Expr) (int, bool, error) {
				if fc, ok := e.(*sql.FuncCall); ok && sql.IsAggregate(fc.Name) && mergeExprEqual(fc, first) {
					return pos, true, nil // the leg's partial at this position
				}
				return resolver(e)
			})
			if err != nil {
				return nil, err
			}
			m.exprCols[pos] = fn
			m.exprLeg[pos] = first
		}
	}
	// HAVING over aggregates filters partial per-partition groups if run in
	// the legs, so it is stripped there and applied to the merged groups
	// instead: each referenced aggregate resolves to a projected column or
	// rides as a hidden one. (Key-only HAVING on a non-aggregate grouped
	// select is leg-identical and stays pushed down.)
	if sel.Having != nil && (m.hasAgg || sql.ContainsAggregate(sel.Having)) {
		if star {
			return nil, fmt.Errorf("core: HAVING with aggregates needs an explicit projection to merge across partitions")
		}
		m.stripHaving = true
		pred, err := compileMergeExpr(sel.Having, m.havingResolver(sel))
		if err != nil {
			return nil, err
		}
		m.having = pred
		if len(m.extraItems) > 0 {
			m.hasAgg = true // hidden aggregates force the re-grouping merge
		}
	}
	for i, k := range m.cols {
		if k != aggAvg {
			continue
		}
		if m.avgHidden == nil {
			m.avgHidden = make(map[int]int)
		}
		m.avgHidden[i] = len(m.cols)
		m.cols = append(m.cols, aggCount)
	}
	if len(sel.GroupBy) > 0 && !star {
		// Every grouping key must be a projected column: the merge re-groups
		// on the output key columns, so a hidden key would collapse distinct
		// groups into one.
		for _, g := range sel.GroupBy {
			cr, ok := g.(*sql.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("core: GROUP BY over an expression cannot be merged across partitions; group by a projected column")
			}
			// Only a bare projection of the same source column counts: the
			// engine binds GROUP BY keys in row scope, so an alias shadowing
			// a different expression (SELECT k % 3 AS k ... GROUP BY k)
			// would make the merge re-group on values the engine never
			// grouped by.
			found := false
			for i, it := range sel.Items {
				if m.cols[i] != aggKey {
					continue
				}
				if pc, ok := it.Expr.(*sql.ColumnRef); ok && strings.EqualFold(pc.Column, cr.Column) {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("core: GROUP BY key %q must be projected as a bare column to merge across partitions", cr.Column)
			}
		}
		// A grouped projection without aggregates is DISTINCT over the keys;
		// re-deduplicate the concatenated per-partition groups.
		if !m.hasAgg {
			m.distinct = true
		}
	}
	if m.hasAgg && sel.Distinct {
		return nil, fmt.Errorf("core: SELECT DISTINCT with aggregates cannot be merged across partitions")
	}
	if sel.Offset != nil {
		return nil, fmt.Errorf("core: OFFSET cannot be applied across partitions")
	}
	if sel.Limit != nil {
		// The limit is always re-applied to the merged result. Pushing it
		// into the legs is only a safe pre-filter for plain row selects
		// (each leg then returns a superset of what the merge keeps); under
		// aggregation a per-leg LIMIT would truncate partial groups, so the
		// legs run without it.
		v, err := sql.StaticValue(sel.Limit, params)
		if err != nil {
			return nil, fmt.Errorf("core: LIMIT across partitions: %w", err)
		}
		iv, err := types.Coerce(v, types.TypeInt)
		if err != nil || iv.IsNull() || iv.Int() < 0 {
			return nil, fmt.Errorf("core: LIMIT must be a non-negative integer, got %s", v)
		}
		m.limit = int(iv.Int())
		if m.hasAgg {
			m.stripLimit = true
		}
	}
	return m, nil
}

// havingResolver maps HAVING leaf expressions to merged-row columns:
// aggregates reuse an equal projected item or ride as hidden extra items;
// bare columns must name a projected group key (by alias or source
// column).
func (m *queryMerge) havingResolver(sel *sql.Select) func(sql.Expr) (int, bool, error) {
	return func(e sql.Expr) (int, bool, error) {
		if fc, ok := e.(*sql.FuncCall); ok && sql.IsAggregate(fc.Name) {
			k, err := classifyAggFunc(fc)
			if err != nil {
				return 0, false, err
			}
			for i, it := range sel.Items {
				if !it.Star && m.cols[i] != aggKey && mergeExprEqual(it.Expr, fc) {
					return i, true, nil
				}
			}
			for j, ex := range m.extraItems {
				if mergeExprEqual(ex.Expr, fc) {
					return m.outWidth + j, true, nil
				}
			}
			pos := len(m.cols)
			m.cols = append(m.cols, k)
			m.extraItems = append(m.extraItems, sql.SelectItem{Expr: fc})
			return pos, true, nil
		}
		if cr, ok := e.(*sql.ColumnRef); ok {
			for i, it := range sel.Items {
				if it.Star || m.cols[i] != aggKey {
					continue
				}
				if cr.Table == "" && it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
					return i, true, nil
				}
				if pc, ok := it.Expr.(*sql.ColumnRef); ok && strings.EqualFold(pc.Column, cr.Column) &&
					(cr.Table == "" || strings.EqualFold(pc.Table, cr.Table)) {
					return i, true, nil
				}
			}
			return 0, false, fmt.Errorf("core: HAVING references %q, which must be projected as a group key to merge across partitions", cr.Column)
		}
		return 0, false, nil
	}
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

// rewritesLeg reports whether the legs run a tree other than the client's.
func (m *queryMerge) rewritesLeg() bool {
	return len(m.avgHidden) > 0 || len(m.extraItems) > 0 || len(m.exprLeg) > 0 || m.stripHaving || m.stripLimit
}

// buildLeg builds the fan-out leg's tree from the client's: hidden HAVING
// aggregates are appended to the projection, each AVG item (projected or
// hidden) becomes SUM at its position plus an appended COUNT — in the order
// mergePlan recorded in avgHidden — and stripped clauses (HAVING, LIMIT
// under aggregation) are dropped. The client's tree is shared and stays
// untouched: the leg is a copy of its Select with new items.
func buildLeg(sel *sql.Select, m *queryMerge) *sql.Select {
	leg := *sel
	items := make([]sql.SelectItem, 0, len(m.cols))
	items = append(items, sel.Items...)
	items = append(items, m.extraItems...)
	// An expression-over-aggregates item runs post-merge; its leg slot
	// carries the expression's first aggregate (an AVG there is decomposed
	// by the loop below like any other).
	for pos, first := range m.exprLeg {
		items[pos] = sql.SelectItem{Expr: first, Alias: items[pos].Alias}
	}
	nBase := len(items)
	for i := 0; i < nBase; i++ {
		if m.cols[i] != aggAvg {
			continue
		}
		// An AVG column is an AVG call: classifyAggFunc assigned it to one.
		f := items[i].Expr.(*sql.FuncCall)
		items[i] = sql.SelectItem{Expr: &sql.FuncCall{Name: "SUM", Args: f.Args}, Alias: items[i].Alias}
		items = append(items, sql.SelectItem{Expr: &sql.FuncCall{Name: "COUNT", Args: f.Args}})
	}
	leg.Items = items
	if m.stripHaving {
		leg.Having = nil
	}
	if m.stripLimit {
		leg.Limit = nil
	}
	return &leg
}

// finalizeAvgValues divides each merged partial SUM by its hidden COUNT
// (NULL over zero rows, matching the engine's AVG) in place. Hidden
// columns stay: the post-merge HAVING filter may still read them; trimHidden
// drops them afterwards.
func (m *queryMerge) finalizeAvgValues(rows []types.Row) {
	for _, row := range rows {
		for pos, hid := range m.avgHidden {
			sum, cnt := row[pos], row[hid]
			if sum.IsNull() || cnt.IsNull() || cnt.Int() == 0 {
				row[pos] = types.Null
				continue
			}
			row[pos] = types.NewFloat(sum.Float() / float64(cnt.Int()))
		}
	}
}

// finalizeExprValues overwrites each expression-over-aggregates position
// with the expression evaluated over the merged row. All of a row's
// expressions read before any write: an expression may reference its own
// position's partial (the leg-projected first aggregate).
func (m *queryMerge) finalizeExprValues(rows []types.Row, params []types.Value) error {
	poss := make([]int, 0, len(m.exprCols))
	for pos := range m.exprCols {
		poss = append(poss, pos)
	}
	sort.Ints(poss)
	vals := make([]types.Value, len(poss))
	for _, row := range rows {
		for j, pos := range poss {
			v, err := m.exprCols[pos](row, params)
			if err != nil {
				return err
			}
			vals[j] = v
		}
		for j, pos := range poss {
			row[pos] = vals[j]
		}
	}
	return nil
}

// trimHidden cuts the merged rows back to the client-visible projection
// width (dropping AVG counts and hidden HAVING aggregates) and restores
// the client-visible column names. The column slice is copied before
// renaming: the leg result's Columns aliases the partition's cached plan,
// which other queries share and must not be mutated.
func (m *queryMerge) trimHidden(sel *sql.Select, out *pe.Result) {
	if len(m.cols) > m.outWidth {
		for i := range out.Rows {
			out.Rows[i] = out.Rows[i][:m.outWidth]
		}
	}
	if len(m.cols) > m.outWidth || len(m.exprCols) > 0 {
		out.Columns = append([]string(nil), out.Columns[:min(len(out.Columns), m.outWidth)]...)
	}
	// An unaliased AVG item was executed as SUM in the legs; rename. An
	// unaliased expression item was executed as its first aggregate;
	// restore the engine's default expression column name.
	for pos := range m.avgHidden {
		if pos < len(sel.Items) && sel.Items[pos].Alias == "" && pos < len(out.Columns) {
			out.Columns[pos] = "avg"
		}
	}
	for pos := range m.exprCols {
		if pos < len(sel.Items) && sel.Items[pos].Alias == "" && pos < len(out.Columns) {
			out.Columns[pos] = "expr"
		}
	}
}

// merge combines the per-partition results according to the plan.
func (m *queryMerge) merge(sel *sql.Select, results []*pe.Result, params []types.Value) (*pe.Result, error) {
	out := &pe.Result{}
	for _, r := range results {
		if r == nil {
			continue
		}
		if out.Columns == nil {
			out.Columns = r.Columns
		}
	}
	if m.hasAgg {
		rows, err := m.mergeGroups(results)
		if err != nil {
			return nil, err
		}
		if len(m.avgHidden) > 0 {
			m.finalizeAvgValues(rows)
		}
		if len(m.exprCols) > 0 {
			if err := m.finalizeExprValues(rows, params); err != nil {
				return nil, err
			}
		}
		if m.having != nil {
			kept := rows[:0]
			for _, row := range rows {
				v, err := m.having(row, params)
				if err != nil {
					return nil, err
				}
				if v.IsTrue() {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		out.Rows = rows
		m.trimHidden(sel, out)
	} else {
		total := 0
		for _, r := range results {
			if r != nil {
				total += len(r.Rows)
			}
		}
		if total > 0 {
			out.Rows = make([]types.Row, 0, total)
		}
		for _, r := range results {
			if r != nil {
				out.Rows = append(out.Rows, r.Rows...)
			}
		}
		if m.distinct {
			out.Rows = dedupeRows(out.Rows)
		}
	}
	if len(sel.OrderBy) > 0 {
		if err := sortRows(sel, out); err != nil {
			return nil, err
		}
	}
	if m.limit >= 0 && len(out.Rows) > m.limit {
		out.Rows = out.Rows[:m.limit]
	}
	return out, nil
}

// mergeGroups re-aggregates grouped results: rows with equal key columns
// combine their aggregate columns (partition-local groups are partial).
// Group output order is first-seen across partitions; an ORDER BY re-sorts.
func (m *queryMerge) mergeGroups(results []*pe.Result) ([]types.Row, error) {
	var order []string
	groups := make(map[string]types.Row)
	var kb []byte // reused across rows; string(kb) map lookups don't allocate
	for _, r := range results {
		if r == nil {
			continue
		}
		for _, row := range r.Rows {
			if len(row) != len(m.cols) {
				return nil, fmt.Errorf("core: merge: result width %d != projection width %d", len(row), len(m.cols))
			}
			kb = kb[:0]
			for i, k := range m.cols {
				if k == aggKey {
					kb = appendKeyValue(kb, row[i])
					kb = append(kb, 0)
				}
			}
			acc, ok := groups[string(kb)]
			if !ok {
				key := string(kb)
				groups[key] = row.Clone()
				order = append(order, key)
				continue
			}
			for i, k := range m.cols {
				acc[i] = combineAgg(k, acc[i], row[i])
			}
		}
	}
	rows := make([]types.Row, 0, len(order))
	for _, key := range order {
		rows = append(rows, groups[key])
	}
	return rows, nil
}

// combineAgg folds one partition-local aggregate value into the
// accumulator. NULL (SUM/MIN/MAX over an empty partition) is the identity.
func combineAgg(k aggKind, acc, v types.Value) types.Value {
	if k == aggKey {
		return acc
	}
	if v.IsNull() {
		return acc
	}
	if acc.IsNull() {
		return v
	}
	switch k {
	case aggCount, aggSum, aggAvg: // aggAvg holds the leg's partial SUM
		if acc.Type() == types.TypeInt && v.Type() == types.TypeInt {
			return types.NewInt(acc.Int() + v.Int())
		}
		return types.NewFloat(acc.Float() + v.Float())
	case aggMin:
		if v.Compare(acc) < 0 {
			return v
		}
	case aggMax:
		if v.Compare(acc) > 0 {
			return v
		}
	}
	return acc
}

// dedupeRows removes duplicate rows (SELECT DISTINCT re-applied globally).
func dedupeRows(rows []types.Row) []types.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, v := range r {
			kb = appendKeyValue(kb, v)
			kb = append(kb, 0)
		}
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		out = append(out, r)
	}
	return out
}

// appendKeyValue appends a type-tagged encoding of v — allocation-free for
// every value type — used as a group/DISTINCT equality key. The tag keeps
// values of different types distinct (SQLLiteral renders INT 1 and DOUBLE
// 1.0 identically), which is safe: legs project a column with one type.
func appendKeyValue(kb []byte, v types.Value) []byte {
	kb = append(kb, byte(v.Type()))
	switch v.Type() {
	case types.TypeNull:
	case types.TypeBool:
		if v.IsTrue() {
			kb = append(kb, 1)
		} else {
			kb = append(kb, 0)
		}
	case types.TypeInt, types.TypeTimestamp:
		kb = strconv.AppendInt(kb, v.Int(), 10)
	case types.TypeFloat:
		kb = strconv.AppendFloat(kb, v.Float(), 'g', -1, 64)
	case types.TypeString:
		kb = append(kb, v.Str()...)
	default:
		kb = append(kb, v.SQLLiteral()...)
	}
	return kb
}

// sortRows re-applies the ORDER BY to the merged rows. Each order key must
// resolve to an output column: by alias, by projected column name, by
// result column name, or by 1-based ordinal literal.
func sortRows(sel *sql.Select, res *pe.Result) error {
	type orderKey struct {
		ord  int
		desc bool
	}
	// With a star in the projection, select-item indexes do not line up
	// with output ordinals (the star expands to an unknown width); resolve
	// order keys against the result's column names only.
	hasStar := false
	for _, it := range sel.Items {
		if it.Star {
			hasStar = true
		}
	}
	keys := make([]orderKey, 0, len(sel.OrderBy))
	for _, oi := range sel.OrderBy {
		ord := -1
		switch x := oi.Expr.(type) {
		case *sql.Literal:
			if x.Value.Type() == types.TypeInt {
				n := int(x.Value.Int())
				if n >= 1 && n <= len(res.Columns) {
					ord = n - 1
				}
			}
		case *sql.ColumnRef:
			if !hasStar {
				for i, it := range sel.Items {
					if it.Alias != "" && strings.EqualFold(it.Alias, x.Column) {
						ord = i
						break
					}
					if cr, ok := it.Expr.(*sql.ColumnRef); ok && strings.EqualFold(cr.Column, x.Column) &&
						(x.Table == "" || strings.EqualFold(cr.Table, x.Table)) {
						ord = i
						break
					}
				}
			}
			if ord < 0 {
				for i, c := range res.Columns {
					if strings.EqualFold(c, x.Column) {
						ord = i
						break
					}
				}
			}
		}
		if ord < 0 || ord >= len(res.Columns) {
			return fmt.Errorf("core: ORDER BY key does not name an output column; qualify it or use its ordinal")
		}
		keys = append(keys, orderKey{ord: ord, desc: oi.Desc})
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		ra, rb := res.Rows[a], res.Rows[b]
		for _, k := range keys {
			c := ra[k.ord].Compare(rb[k.ord])
			if c != 0 {
				if k.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
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
