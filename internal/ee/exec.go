package ee

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// ---------- statement execution ----------
//
// A statement runs as one push pipeline. accessRows, the only producer,
// emits a relation's rows one at a time through whichever access path the
// plan chose. A SELECT passes them through its join steps (nested calls of
// the producer with the outer row bound) and its WHERE into a sink, fold
// for an aggregation and project otherwise, whose output rows land in the
// Result or, for an IN-subquery, in its value set. UPDATE and DELETE
// collect the matching (id, row) pairs from the same producer and mutate
// afterwards. Upstream of a sink nothing holds more than the current row.
// What a statement builds (output rows, lists, the Result) comes from the
// context's scratch (scratch.go) and is valid until the context is reset.

// selectRun is one execution of a selectPlan.
type selectRun struct {
	e    *Engine
	ctx  *ExecCtx
	plan *selectPlan
	ec   evalCtx // params and subs; row is set before each evaluation
	err  error   // first failure inside a callback, which stops the scan

	examined int64     // rows the base relation's producer emitted
	joined   types.Row // the current joined row, one segment per relation

	// fold sink.
	states []aggState // the one group of a plan without GROUP BY keys
	groups map[uint64][]*aggGroup
	order  []*aggGroup // groups in first-seen order
	key    types.Row   // the current row's group key

	// project sink. out and keys are the output row under construction and
	// its ORDER BY keys; whatever keeps one takes it, and the next row gets
	// a fresh one.
	out, keys types.Row
	seen      map[uint64][]types.Row // DISTINCT
	skip      int64                  // OFFSET
	bound     int64                  // OFFSET + LIMIT, the rows that matter; -1 for all
	arrived   int64                  // rows that reached the sink, duplicates aside
	outs      []outRow               // ORDER BY: a heap of the bound best, or every row
	lateErr   error                  // a bad OFFSET or LIMIT, reported if the scan raised nothing
	rows      []types.Row
	set       *subResult // receives the output instead of rows
}

type aggGroup struct {
	key    types.Row
	states []aggState
}

// maxHeapReserve is the largest OFFSET + LIMIT whose heap is reserved whole
// before the first row arrives.
const maxHeapReserve = 64

// outRow is an output row waiting for its place in the ORDER BY.
type outRow struct {
	out, keys types.Row
	seq       int64 // arrival order, which breaks ties
}

func (e *Engine) execSelect(ctx *ExecCtx, p *Prepared, params []types.Value) (*Result, error) {
	rows, err := e.runSelect(ctx, p.sel, params, nil)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = []types.Row{}
	}
	e.rowsReturned.Add(int64(len(rows)))
	return ctx.mem.result(p.Columns, rows, len(rows)), nil
}

// runSelect executes plan and returns its output rows, or adds them to set
// when it is non-nil (the plan then yields one column).
func (e *Engine) runSelect(ctx *ExecCtx, plan *selectPlan, params []types.Value, set *subResult) ([]types.Row, error) {
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	x := ctx.mem.runs.push()
	defer ctx.mem.runs.pop()
	*x = selectRun{e: e, ctx: ctx, plan: plan, ec: evalCtx{params: params, subs: subs}, bound: -1, set: set}
	// A LIMIT bounds what the sink keeps and, without an ORDER BY, where the
	// scan stops. One that does not evaluate bounds nothing: the statement
	// runs in full and fails at the end, behind any failure of its own.
	limit := int64(-1)
	if plan.offset != nil {
		x.skip, x.lateErr = x.nonNegInt(plan.offset, "OFFSET")
	}
	if plan.limit != nil && x.lateErr == nil {
		limit, x.lateErr = x.nonNegInt(plan.limit, "LIMIT")
	}
	if x.lateErr == nil && limit >= 0 && limit <= math.MaxInt64-x.skip {
		x.bound = x.skip + limit
	}
	width := 0
	if len(plan.src.joins) > 0 {
		width = plan.src.scope.width()
	}
	if n := x.bound; len(plan.orderBy) > 0 && n > 0 && n <= maxHeapReserve {
		// The heap never holds more than bound rows and the one arriving:
		// their output rows and keys, and the heap, are reserved as one piece
		// each, which on a fresh context is then all it allocates for them.
		ctx.mem.vals.reserve(width + (int(n)+1)*(len(plan.projs)+len(plan.orderBy)))
		x.outs = ctx.mem.outs.take(int(n))[:0]
	}
	if width > 0 {
		x.joined = ctx.mem.vals.take(width)
	}
	if plan.grouped {
		if len(plan.groupKeys) == 0 {
			x.states = ctx.mem.aggs.take(len(plan.aggs))
		} else {
			x.groups = make(map[uint64][]*aggGroup)
			x.key = make(types.Row, len(plan.groupKeys))
		}
	}
	if plan.count {
		// The one group's every aggregate is COUNT(*): the count of the
		// relation, which storage keeps or tallies without a row.
		n, err := e.countRows(ctx, &plan.src.base, &x.ec)
		if err != nil {
			x.fail(err)
		}
		for i := range x.states {
			x.states[i].count = n
		}
	} else if err := e.accessRows(ctx, &plan.src.base, &x.ec, &x.examined, x.onBase); err != nil {
		x.fail(err)
	}
	if x.err == nil && plan.grouped {
		x.emitGroups()
	}
	if x.err == nil && len(plan.orderBy) > 0 {
		slices.SortFunc(x.outs, func(a, b outRow) int {
			if x.before(&a, &b) {
				return -1
			}
			return 1
		})
		for i := int(min(x.skip, int64(len(x.outs)))); i < len(x.outs); i++ {
			x.deliver(x.outs[i].out)
		}
	}
	if x.err == nil {
		x.err = x.lateErr
	}
	if x.err != nil {
		return nil, x.err
	}
	return x.rows, nil
}

func (x *selectRun) nonNegInt(c compiled, what string) (int64, error) {
	v, err := c.eval(&x.ec)
	if err != nil {
		return 0, err
	}
	iv, err := types.Coerce(v, types.TypeInt)
	if err != nil || iv.IsNull() || iv.Int() < 0 {
		return 0, fmt.Errorf("ee: %s must be a non-negative integer, got %v", what, v)
	}
	return iv.Int(), nil
}

// fail records the statement's first error and stops the scan.
func (x *selectRun) fail(err error) bool {
	if x.err == nil {
		x.err = err
	}
	return false
}

// onBase receives the base relation's rows.
func (x *selectRun) onBase(_ storage.RowID, r types.Row) bool {
	x.examined++
	if x.joined == nil {
		return x.onRow(r)
	}
	return x.join(0, copy(x.joined, r))
}

// join extends the outer row x.joined[:off] by every match of join step i,
// or by NULLs when a left join finds none, and hands each combination to
// the next step. It reports whether the statement wants more rows.
func (x *selectRun) join(i, off int) bool {
	if i == len(x.plan.src.joins) {
		return x.onRow(x.joined[:off])
	}
	js := &x.plan.src.joins[i]
	end := off + js.access.schema.NumColumns()
	matched, more := false, true
	var examined int64
	x.ec.row = x.joined[:off]
	err := x.e.accessRows(x.ctx, &js.access, &x.ec, &examined, func(_ storage.RowID, in types.Row) bool {
		examined++
		copy(x.joined[off:end], in)
		if js.on != nil {
			x.ec.row = x.joined[:end]
			v, err := js.on.eval(&x.ec)
			if err != nil {
				more = x.fail(err)
				return false
			}
			if !v.IsTrue() {
				return true
			}
		}
		matched = true
		more = x.join(i+1, end)
		return more
	})
	if err != nil {
		return x.fail(err)
	}
	if more && !matched && js.left {
		for c := off; c < end; c++ {
			x.joined[c] = types.Null
		}
		more = x.join(i+1, end)
	}
	return more
}

// onRow puts one joined row to the WHERE and, if it passes, into the sink.
func (x *selectRun) onRow(r types.Row) bool {
	x.ec.row = r
	if x.plan.where != nil {
		v, err := x.plan.where.eval(&x.ec)
		if err != nil {
			return x.fail(err)
		}
		if !v.IsTrue() {
			return true
		}
	}
	if x.plan.grouped {
		return x.fold()
	}
	return x.project()
}

// ---------- sinks ----------

// fold updates the aggregate states of the group the row in x.ec belongs
// to. A plan without GROUP BY keys has one group and looks nothing up.
func (x *selectRun) fold() bool {
	plan := x.plan
	states := x.states
	if states == nil {
		for i, gk := range plan.groupKeys {
			v, err := gk.eval(&x.ec)
			if err != nil {
				return x.fail(err)
			}
			x.key[i] = v
		}
		h := x.key.Hash()
		var g *aggGroup
		for _, cand := range x.groups[h] {
			if cand.key.Equal(x.key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &aggGroup{key: x.ctx.mem.vals.copyOf(x.key), states: x.ctx.mem.aggs.take(len(plan.aggs))}
			x.groups[h] = append(x.groups[h], g)
			x.order = append(x.order, g)
		}
		states = g.states
	}
	for i := range plan.aggs {
		spec := &plan.aggs[i]
		var v types.Value
		if spec.arg != nil {
			var err error
			if v, err = spec.arg.eval(&x.ec); err != nil {
				return x.fail(err)
			}
		}
		states[i].update(spec, v)
	}
	return true
}

// emitGroups turns each group into one virtual row [groupKey0..groupKeyK,
// agg0..aggN], puts it to the HAVING and projects it. With no GROUP BY
// keys there is exactly one group, even over empty input (COUNT(*) = 0).
func (x *selectRun) emitGroups() {
	plan := x.plan
	groups := x.order
	if x.states != nil {
		groups = []*aggGroup{{states: x.states}}
	}
	nk := len(plan.groupKeys)
	virt := types.Row(x.ctx.mem.vals.take(nk + len(plan.aggs)))
	for _, g := range groups {
		copy(virt, g.key)
		for i := range plan.aggs {
			virt[nk+i] = g.states[i].finalize(&plan.aggs[i])
		}
		x.ec.row = virt
		if plan.having != nil {
			v, err := plan.having.eval(&x.ec)
			if err != nil {
				x.fail(err)
				return
			}
			if !v.IsTrue() {
				continue
			}
		}
		if !x.project() {
			return
		}
	}
}

// project builds the output row of the input row in x.ec and passes it on:
// straight to the destination when there is no ORDER BY, stopping the scan
// once OFFSET + LIMIT rows have arrived; otherwise into x.outs, which holds
// no more than those OFFSET + LIMIT rows that sort first.
func (x *selectRun) project() bool {
	plan := x.plan
	var err error
	if x.out == nil {
		x.out = x.ctx.mem.vals.take(len(plan.projs))
	}
	out := x.out
	for i, pr := range plan.projs {
		if out[i], err = pr.eval(&x.ec); err != nil {
			return x.fail(err)
		}
	}
	if len(plan.orderBy) > 0 {
		if x.keys == nil {
			x.keys = x.ctx.mem.vals.take(len(plan.orderBy))
		}
		for i, ob := range plan.orderBy {
			if x.keys[i], err = ob.expr.eval(&x.ec); err != nil {
				return x.fail(err)
			}
		}
	}
	if plan.distinct {
		h := out.Hash()
		for _, prev := range x.seen[h] {
			if prev.Equal(out) {
				return true
			}
		}
		if x.seen == nil {
			x.seen = make(map[uint64][]types.Row)
		}
		x.seen[h] = append(x.seen[h], out)
		x.out = nil
	}
	x.arrived++
	if len(plan.orderBy) == 0 {
		if x.arrived > x.skip && (x.bound < 0 || x.arrived <= x.bound) {
			x.deliver(out)
		}
		return x.bound < 0 || x.arrived < x.bound
	}
	o := outRow{out: out, keys: x.keys, seq: x.arrived}
	switch {
	case x.bound < 0 || int64(len(x.outs)) < x.bound:
		x.outs = x.ctx.mem.outs.push(x.outs, o)
		if int64(len(x.outs)) == x.bound {
			for i := len(x.outs)/2 - 1; i >= 0; i-- {
				x.siftDown(i)
			}
		}
	case x.bound > 0 && x.before(&o, &x.outs[0]):
		// The row that falls out hands its out and keys to the next arrival.
		o, x.outs[0] = x.outs[0], o
		x.siftDown(0)
		x.out, x.keys = o.out, o.keys
		return true
	default:
		return true // sorts behind all that will be returned
	}
	x.out, x.keys = nil, nil
	return true
}

// deliver hands one finished output row to the statement's destination.
func (x *selectRun) deliver(out types.Row) {
	if x.set != nil {
		x.set.add(&x.ctx.mem, out[0])
		return
	}
	x.rows = x.ctx.mem.rows.push(x.rows, out)
	x.out = nil
}

// before reports whether a precedes b in the ORDER BY. Rows with equal keys
// keep their arrival order, so the order is total and what a stable sort of
// all rows would give.
func (x *selectRun) before(a, b *outRow) bool {
	for k, ob := range x.plan.orderBy {
		if c := a.keys[k].Compare(b.keys[k]); c != 0 {
			return (c < 0) != ob.desc
		}
	}
	return a.seq < b.seq
}

// siftDown restores the heap below position i. Once x.outs holds bound
// rows it is a binary heap with the row that sorts last at the root: the
// one a better arrival replaces.
func (x *selectRun) siftDown(i int) {
	h := x.outs
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && x.before(&h[c], &h[c+1]) {
			c++
		}
		if !x.before(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// materializeSubs executes each uncorrelated IN-subquery once, its output
// going straight into the value set predicates probe. Like every runSelect
// it is work inside the EE, not a PE→EE crossing.
func (e *Engine) materializeSubs(ctx *ExecCtx, plans []*selectPlan, params []types.Value) ([]subResult, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	out := ctx.mem.subs.take(len(plans))
	for i, sp := range plans {
		if _, err := e.runSelect(ctx, sp, params, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------- the producer ----------

// subProbe resolves the subquery-probe arm for one execution: the index to
// look up and the keys, which are the distinct non-NULL values of the
// materialized set as values of the indexed column's type. ok is false when
// the access has no such arm, or the arm does not apply or pay this time
// and the caller scans instead: the index was dropped since prepare, the
// set is not smaller than the table, or a value has no single key (a number
// of magnitude 2^53 or more compared across BIGINT and FLOAT equals several
// stored values). A value of another comparison class, or a non-integral
// FLOAT against a BIGINT column, equals no stored value and yields no key.
// Every row the keys reach is still put to the full WHERE, so the arm only
// narrows the candidates and cannot change a result.
func subProbe(access *tableAccess, subs []subResult, tb *storage.Table) (ix *storage.Index, keys []types.Value, ok bool) {
	if !access.fromSub || access.subSlot >= len(subs) {
		return nil, nil, false
	}
	if ix = tb.IndexByName(access.index.Name()); ix == nil {
		return nil, nil, false
	}
	set := subs[access.subSlot].list
	if len(set) >= tb.Count() {
		return nil, nil, false
	}
	sameType := true
	for _, v := range set {
		if v.Type() != access.keyType {
			sameType = false
			break
		}
	}
	if sameType {
		return ix, set, true
	}
	numeric := access.keyType == types.TypeInt || access.keyType == types.TypeFloat
	keys = make([]types.Value, 0, len(set))
	for _, v := range set {
		switch {
		case v.Type() == access.keyType:
			keys = append(keys, v)
		case numeric && v.IsNumeric():
			if !(math.Abs(v.Float()) < 1<<53) {
				return nil, nil, false
			}
			if k, err := types.Coerce(v, access.keyType); err == nil {
				keys = append(keys, k)
			}
		}
	}
	return ix, keys, true
}

// lookupEach returns the ids live under any of keys (writer view) in row-id
// order, the order a scan meets them.
func lookupEach(mem *scratch, tb *storage.Table, ix *storage.Index, keys []types.Value) []storage.RowID {
	var ids []storage.RowID
	var key [1]types.Value
	for _, k := range keys {
		key[0] = k
		tb.Lookup(ix, key[:], func(id storage.RowID, _ types.Row) bool {
			ids = mem.ids.push(ids, id)
			return true
		})
	}
	if len(keys) > 1 {
		slices.Sort(ids)
	}
	return ids
}

// accessRows is the executor's one producer: it emits the rows of one
// relation through its chosen access path, in that path's order (insertion
// order for a scan, key order for a range), until emit returns false. ec
// carries the parameters, the statement's materialized subqueries and, for
// a join's inner relation, the outer row its probe keys are computed from.
// The keys are computed before the first emit, so emit may reuse ec. id is
// the RowID UPDATE and DELETE mutate by, a writer-view notion: transients
// and snapshot ranges emit zero.
//
// emit adds one to *examined for every row it is handed (a counter of the
// caller's, so no wrapper sits between producer and sink), and what each
// table's walk added there is charged as examined to the engine whose table
// it walked (see tables).
func (e *Engine) accessRows(ctx *ExecCtx, access *tableAccess, ec *evalCtx, examined *int64, emit func(id storage.RowID, row types.Row) bool) error {
	if access.transient {
		start := *examined
		for _, r := range transientRows(ctx, access) {
			if !emit(0, r) {
				break
			}
		}
		e.rowsExamined.Add(*examined - start)
		return nil
	}
	var buf [4]types.Value
	pr, ok, err := bindProbe(access, ec, buf[:0])
	if !ok {
		return err
	}
	var own [1]CutPart
	for _, part := range e.tables(ctx, access, ec, &own) {
		rel, err := part.Eng.readRows(ctx, access)
		if err != nil {
			return err
		}
		start := *examined
		more := walkTable(ctx, access, &pr, ec.subs, rel.Table, part.Seq, emit)
		part.Eng.rowsExamined.Add(*examined - start)
		if !more {
			break
		}
	}
	return nil
}

// countRows is the count access (selectPlan.count): the number of rows
// accessRows would emit for an access without a probe, taken from storage
// with no row read. The writer view is the table's live count; a snapshot
// tallies the versions visible at its pin (Table.SnapshotCount). The rows
// counted are charged as examined, as a walk charges them.
func (e *Engine) countRows(ctx *ExecCtx, access *tableAccess, ec *evalCtx) (int64, error) {
	if access.transient {
		n := int64(len(transientRows(ctx, access)))
		e.rowsExamined.Add(n)
		return n, nil
	}
	var total int64
	var own [1]CutPart
	for _, part := range e.tables(ctx, access, ec, &own) {
		rel, err := part.Eng.readRows(ctx, access)
		if err != nil {
			return 0, err
		}
		n := int64(rel.Table.Count())
		if ctx.Snapshot {
			n = int64(rel.Table.SnapshotCount(part.Seq))
		}
		part.Eng.rowsExamined.Add(n)
		total += n
	}
	return total, nil
}

// transientRows returns a transient access's rows, bound at prepare time;
// an empty delta (EXPIRED while a window fills) is just empty.
func transientRows(ctx *ExecCtx, access *tableAccess) []types.Row {
	if access.delta >= 0 {
		return ctx.deltas[access.delta]
	}
	return ctx.NewRows[access.relName]
}

// tables returns the partitions whose table of a stored relation an access
// reads, each with the sequence to read it at, in partition order; the
// caller resolves each table in its engine's catalog (readRows) and charges
// what it reads there to that engine.
//
// On a context with a Cut the relation is the store's: a partitioned one is
// every partition's table, each at its own pin; an unpartitioned one is
// partition 0's (a replicated table is the same everywhere, a stream or
// window without a key lives there). An access that binds a placed table's
// partition key by equality reads the key's owner alone (see owner).
// Without a Cut it is this engine's own table, at the context's pin or in
// the writer's view, returned in own.
func (e *Engine) tables(ctx *ExecCtx, access *tableAccess, ec *evalCtx, own *[1]CutPart) []CutPart {
	cut := ctx.Cut
	if cut == nil {
		own[0] = CutPart{Eng: e, Seq: ctx.SnapshotSeq}
		return own[:]
	}
	if !access.spread || len(cut.Parts) < 2 {
		return cut.Parts[:1]
	}
	if i, ok := access.owner(cut.Slots, ec); ok {
		return cut.Parts[i : i+1]
	}
	return cut.Parts
}

// owner reports the partition that holds every row the access can match:
// one whose relation is a table placed by its key and whose probe binds
// the key to a value that survives coercion to the column's type
// unchanged (a BIGINT key bound to 5.0 qualifies; to 5.5, '5' or NULL it
// does not), so every row equal to it hashes to its slot:
// catalog.PartitionHash collapses what Compare equates.
func (a *tableAccess) owner(slots *catalog.SlotTable, ec *evalCtx) (int, bool) {
	if a.partKey == nil || slots == nil {
		return 0, false
	}
	v, err := a.partKey.eval(ec)
	if err != nil || v.IsNull() {
		return 0, false
	}
	k, err := types.Coerce(v, a.partType)
	if err != nil || k.Compare(v) != 0 {
		return 0, false
	}
	return slots.Partition(k), true
}

// probe is one execution's index key or range bounds, computed from the
// access's expressions before any table is walked.
type probe struct {
	key    types.Row // equality probe
	lo, hi types.Row // range bounds; nil is unbounded
}

// bindProbe computes the probe values of access into buf, an empty slice
// with room for a key. ok is false when the access can match nothing (a
// key or bound is NULL) or an expression failed (err).
func bindProbe(access *tableAccess, ec *evalCtx, buf types.Row) (pr probe, ok bool, err error) {
	if access.index == nil || access.fromSub {
		return pr, true, nil
	}
	if access.eqKey != nil {
		for _, kc := range access.eqKey {
			v, err := kc.eval(ec)
			if err != nil || v.IsNull() {
				return pr, false, err // = NULL matches nothing
			}
			buf = append(buf, v)
		}
		pr.key = buf
		return pr, true, nil
	}
	buf = buf[:2]
	if access.lo != nil {
		if buf[0], err = access.lo.eval(ec); err != nil || buf[0].IsNull() {
			return pr, false, err // a comparison with NULL matches nothing
		}
		pr.lo = buf[0:1]
	}
	if access.hi != nil {
		if buf[1], err = access.hi.eval(ec); err != nil || buf[1].IsNull() {
			return pr, false, err
		}
		pr.hi = buf[1:2]
	}
	return pr, true, nil
}

// walkTable emits the rows of one table through the access path, at seq on
// a snapshot context and in the writer's view otherwise, and reports
// whether emit let it finish.
func walkTable(ctx *ExecCtx, access *tableAccess, pr *probe, subs []subResult, tb *storage.Table, seq storage.Seq, emit func(id storage.RowID, row types.Row) bool) bool {
	// Snapshot contexts read the versions visible at the pinned sequence
	// (possibly from a client goroutine, concurrently with the partition
	// worker); everything else reads the writer's current view.
	snap := ctx.Snapshot
	// When the arm is planned but does not apply to this execution, the
	// access has no other index bound and falls to the scan at the bottom.
	if ix, keys, ok := subProbe(access, subs, tb); ok {
		if !snap {
			for _, id := range lookupEach(&ctx.mem, tb, ix, keys) {
				if r, ok := tb.Get(id); ok && !emit(id, r) {
					return false
				}
			}
			return true
		}
		var key [1]types.Value
		for _, k := range keys {
			key[0] = k
			if !tb.SnapshotLookup(ix, key[:], seq, &ctx.mem.hits, emit) {
				return false
			}
		}
		return true
	}
	var ix *storage.Index
	if access.index != nil && !access.fromSub {
		ix = tb.IndexByName(access.index.Name()) // nil: dropped since prepare, so scan
	}
	switch {
	case ix == nil:
	case pr.key != nil:
		if snap {
			return tb.SnapshotLookup(ix, pr.key, seq, &ctx.mem.hits, emit)
		}
		return tb.Lookup(ix, pr.key, emit)
	case pr.lo != nil || pr.hi != nil:
		lo, hi := pr.lo, pr.hi
		// The index walks [lo, hi]; an exclusive bound drops its own key.
		inside := func(key types.Row) bool {
			return !(lo != nil && !access.loInc && key[0].Compare(lo[0]) == 0) &&
				!(hi != nil && !access.hiInc && key[0].Compare(hi[0]) == 0)
		}
		more := true
		if snap {
			tb.SnapshotRange(ix, lo, hi, seq, func(key, r types.Row) bool {
				more = !inside(key) || emit(0, r)
				return more
			})
			return more
		}
		tb.Range(ix, lo, hi, func(key types.Row, id storage.RowID, r types.Row) bool {
			more = !inside(key) || emit(id, r)
			return more
		})
		return more
	}
	if snap {
		return tb.SnapshotScan(seq, emit)
	}
	return tb.Scan(emit)
}

// ---------- aggregation ----------

type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	hasSum bool
	float  bool
	minV   types.Value
	maxV   types.Value
	seen   map[uint64][]types.Value // DISTINCT bookkeeping
}

func (st *aggState) update(spec *aggSpec, v types.Value) {
	if spec.arg == nil { // COUNT(*)
		st.count++
		return
	}
	if v.IsNull() {
		return
	}
	if spec.distinct {
		if st.seen == nil {
			st.seen = make(map[uint64][]types.Value)
		}
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if prev.Compare(v) == 0 {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch spec.kind {
	case aggSum, aggAvg:
		if v.Type() == types.TypeFloat {
			if !st.float {
				st.sumF += float64(st.sumI)
				st.sumI = 0
				st.float = true
			}
			st.sumF += v.Float()
		} else if st.float {
			st.sumF += v.Float()
		} else {
			st.sumI += v.Int()
		}
		st.hasSum = true
	case aggMin:
		if st.minV.IsNull() || v.Compare(st.minV) < 0 {
			st.minV = v
		}
	case aggMax:
		if st.maxV.IsNull() || v.Compare(st.maxV) > 0 {
			st.maxV = v
		}
	}
}

func (st *aggState) finalize(spec *aggSpec) types.Value {
	switch spec.kind {
	case aggCount:
		return types.NewInt(st.count)
	case aggSum:
		if !st.hasSum {
			return types.Null
		}
		if st.float {
			return types.NewFloat(st.sumF)
		}
		return types.NewInt(st.sumI)
	case aggAvg:
		if !st.hasSum || st.count == 0 {
			return types.Null
		}
		total := st.sumF
		if !st.float {
			total = float64(st.sumI)
		}
		return types.NewFloat(total / float64(st.count))
	case aggMin:
		return st.minV
	case aggMax:
		return st.maxV
	}
	return types.Null
}

// ---------- DML ----------

// atomically runs one DML statement and, if it fails, undoes what it wrote.
func atomically(ctx *ExecCtx, run func() (*Result, error)) (*Result, error) {
	if ctx.Undo == nil {
		return run()
	}
	mark := ctx.Undo.Mark()
	res, err := run()
	if err != nil {
		ctx.Undo.RollbackTo(mark)
	}
	return res, err
}

func (e *Engine) execInsert(ctx *ExecCtx, plan *insertPlan, params []types.Value) (*Result, error) {
	mem := &ctx.mem
	var srcRows []types.Row
	var err error
	if plan.query != nil {
		if srcRows, err = e.runSelect(ctx, plan.query, params, nil); err != nil {
			return nil, err
		}
	} else {
		ec := mem.ecs.push()
		defer mem.ecs.pop()
		ec.params = params
		// Every row is built twice, as written and in schema order: on a
		// fresh context that is one chunk of each kind, not one per row.
		mem.rows.reserve(2 * len(plan.rows))
		mem.vals.reserve(len(plan.rows) * (len(plan.colMap) + plan.arity))
		srcRows = mem.rows.take(len(plan.rows))
		for r, exprs := range plan.rows {
			row := mem.vals.take(len(exprs))
			for i, ce := range exprs {
				if row[i], err = ce.eval(ec); err != nil {
					return nil, err
				}
			}
			srcRows[r] = row
		}
	}
	// The rows in schema order: storage validates each and stores its own
	// copy, so these too are the statement's and go back with the scratch.
	full := mem.rows.take(len(srcRows))
	for r, src := range srcRows {
		row := mem.vals.take(plan.arity)
		for i, ord := range plan.colMap {
			row[ord] = src[i]
		}
		full[r] = row
	}
	n, err := e.InsertRows(ctx, plan.relName, full)
	if err != nil {
		return nil, err
	}
	return mem.result(nil, nil, n), nil
}

// collectMatches gathers the (id, row) pairs the statement's access path
// yields and its WHERE accepts. UPDATE and DELETE mutate only after the
// producer has finished, so no scan meets a row its own statement wrote.
func (e *Engine) collectMatches(ctx *ExecCtx, access *tableAccess, where compiled, ec *evalCtx) ([]storage.RowID, []types.Row, error) {
	mem := &ctx.mem
	var ids []storage.RowID
	var rows []types.Row
	var examined int64
	var whereErr error
	err := e.accessRows(ctx, access, ec, &examined, func(id storage.RowID, r types.Row) bool {
		examined++
		if where != nil {
			ec.row = r
			v, err := where.eval(ec)
			if err != nil {
				whereErr = err
				return false
			}
			if !v.IsTrue() {
				return true
			}
		}
		ids = mem.ids.push(ids, id)
		rows = mem.rows.push(rows, r)
		return true
	})
	if err == nil {
		err = whereErr
	}
	return ids, rows, err
}

func (e *Engine) execUpdate(ctx *ExecCtx, plan *updatePlan, params []types.Value) (*Result, error) {
	rel, err := e.cat.MustRelation(plan.relName)
	if err != nil {
		return nil, err
	}
	if rel.Kind != catalog.KindTable {
		return nil, fmt.Errorf("ee: UPDATE targets tables; %q is a %s", plan.relName, rel.Kind)
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	ec := ctx.mem.ecs.push()
	defer ctx.mem.ecs.pop()
	ec.params, ec.subs = params, subs
	ids, rows, err := e.collectMatches(ctx, &plan.access, plan.where, ec)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		// The new image is the statement's until storage has validated it
		// into the copy it keeps.
		newRow := ctx.mem.vals.copyOf(rows[i])
		ec.row = rows[i]
		for _, set := range plan.sets {
			v, err := set.expr.eval(ec)
			if err != nil {
				return nil, err
			}
			newRow[set.col] = v
		}
		if err := rel.Table.Update(id, newRow, ctx.Undo); err != nil {
			return nil, err
		}
	}
	return ctx.mem.result(nil, nil, len(ids)), nil
}

func (e *Engine) execDelete(ctx *ExecCtx, plan *deletePlan, params []types.Value) (*Result, error) {
	rel, err := e.cat.MustRelation(plan.relName)
	if err != nil {
		return nil, err
	}
	if rel.Kind == catalog.KindWindow {
		return nil, fmt.Errorf("ee: window %q is engine-maintained; DELETE is not allowed", plan.relName)
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	ec := ctx.mem.ecs.push()
	defer ctx.mem.ecs.pop()
	ec.params, ec.subs = params, subs
	ids, _, err := e.collectMatches(ctx, &plan.access, plan.where, ec)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := rel.Table.Delete(id, ctx.Undo); err != nil {
			return nil, err
		}
	}
	return ctx.mem.result(nil, nil, len(ids)), nil
}
