package ee

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// ---------- SELECT ----------

func (e *Engine) execSelect(ctx *ExecCtx, p *Prepared, params []types.Value) (*Result, error) {
	plan := p.sel
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rows, err := e.sourceRows(ctx, &plan.src, params, subs)
	if err != nil {
		return nil, err
	}
	if plan.where != nil {
		rows, err = filterRows(rows, plan.where, params, subs)
		if err != nil {
			return nil, err
		}
	}
	if plan.grouped {
		rows, err = aggregateRows(rows, plan, params, subs)
		if err != nil {
			return nil, err
		}
		if plan.having != nil {
			rows, err = filterRows(rows, plan.having, params, subs)
			if err != nil {
				return nil, err
			}
		}
	}
	// Projection and order-key computation share the input row.
	type outRow struct {
		out  types.Row
		keys types.Row
	}
	outs := make([]outRow, 0, len(rows))
	ec := &evalCtx{params: params, subs: subs}
	for _, r := range rows {
		ec.row = r
		out := make(types.Row, len(plan.projs))
		for i, pr := range plan.projs {
			if out[i], err = pr.eval(ec); err != nil {
				return nil, err
			}
		}
		var keys types.Row
		if len(plan.orderBy) > 0 {
			keys = make(types.Row, len(plan.orderBy))
			for i, ob := range plan.orderBy {
				if keys[i], err = ob.expr.eval(ec); err != nil {
					return nil, err
				}
			}
		}
		outs = append(outs, outRow{out: out, keys: keys})
	}
	if plan.distinct {
		seen := make(map[uint64][]types.Row)
		dedup := outs[:0]
		for _, o := range outs {
			h := o.out.Hash()
			dup := false
			for _, prev := range seen[h] {
				if prev.Equal(o.out) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(seen[h], o.out)
				dedup = append(dedup, o)
			}
		}
		outs = dedup
	}
	if len(plan.orderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			for k, ob := range plan.orderBy {
				c := outs[i].keys[k].Compare(outs[j].keys[k])
				if c == 0 {
					continue
				}
				if ob.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	final := make([]types.Row, len(outs))
	for i, o := range outs {
		final[i] = o.out
	}
	if plan.offset != nil {
		n, err := evalNonNegInt(plan.offset, params, "OFFSET")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(final)) {
			final = nil
		} else {
			final = final[n:]
		}
	}
	if plan.limit != nil {
		n, err := evalNonNegInt(plan.limit, params, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(final)) {
			final = final[:n]
		}
	}
	return &Result{Columns: p.Columns, Rows: final, RowsAffected: len(final)}, nil
}

func evalNonNegInt(c compiled, params []types.Value, what string) (int64, error) {
	v, err := c.eval(&evalCtx{params: params})
	if err != nil {
		return 0, err
	}
	iv, err := types.Coerce(v, types.TypeInt)
	if err != nil || iv.IsNull() || iv.Int() < 0 {
		return 0, fmt.Errorf("ee: %s must be a non-negative integer, got %v", what, v)
	}
	return iv.Int(), nil
}

func filterRows(rows []types.Row, pred compiled, params []types.Value, subs []subResult) ([]types.Row, error) {
	out := rows[:0]
	ec := &evalCtx{params: params, subs: subs}
	for _, r := range rows {
		ec.row = r
		v, err := pred.eval(ec)
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			out = append(out, r)
		}
	}
	return out, nil
}

// materializeSubs executes each uncorrelated IN-subquery once, building
// the value sets predicates probe. Subquery execution is EE-internal work
// (depth bumped), not a PE→EE crossing.
func (e *Engine) materializeSubs(ctx *ExecCtx, plans []*selectPlan, params []types.Value) ([]subResult, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	out := make([]subResult, len(plans))
	ctx.depth++
	defer func() { ctx.depth-- }()
	for i, sp := range plans {
		res, err := e.execSelect(ctx, &Prepared{sel: sp}, params)
		if err != nil {
			return nil, err
		}
		sr := subResult{vals: make(map[uint64][]types.Value, len(res.Rows))}
		for _, r := range res.Rows {
			v := r[0]
			if v.IsNull() {
				sr.hasNull = true
				continue
			}
			if !sr.contains(v) {
				sr.vals[v.Hash()] = append(sr.vals[v.Hash()], v)
				sr.list = append(sr.list, v)
			}
		}
		out[i] = sr
	}
	return out, nil
}

// sourceRows materializes the joined row set for a select source.
func (e *Engine) sourceRows(ctx *ExecCtx, src *sourcePlan, params []types.Value, subs []subResult) ([]types.Row, error) {
	base, err := e.accessRows(ctx, &src.base, nil, params, subs)
	if err != nil {
		return nil, err
	}
	rows := base
	ec := &evalCtx{params: params, subs: subs}
	for _, js := range src.joins {
		joined := make([]types.Row, 0, len(rows))
		innerWidth := js.access.schema.NumColumns()
		for _, outer := range rows {
			inner, err := e.accessRows(ctx, &js.access, outer, params, subs)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, in := range inner {
				combined := make(types.Row, 0, len(outer)+innerWidth)
				combined = append(combined, outer...)
				combined = append(combined, in...)
				if js.on != nil {
					ec.row = combined
					v, err := js.on.eval(ec)
					if err != nil {
						return nil, err
					}
					if !v.IsTrue() {
						continue
					}
				}
				joined = append(joined, combined)
				matched = true
			}
			if !matched && js.left {
				combined := make(types.Row, 0, len(outer)+innerWidth)
				combined = append(combined, outer...)
				for i := 0; i < innerWidth; i++ {
					combined = append(combined, types.Null)
				}
				joined = append(joined, combined)
			}
		}
		rows = joined
	}
	return rows, nil
}

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
func lookupEach(ix *storage.Index, keys []types.Value) []storage.RowID {
	var ids []storage.RowID
	key := make(types.Row, 1)
	for _, k := range keys {
		key[0] = k
		got, _ := ix.Lookup(key)
		ids = append(ids, got...)
	}
	if len(keys) > 1 {
		slices.Sort(ids)
	}
	return ids
}

// accessRows fetches the rows of one relation via its chosen access path.
// outer is the partial joined row for index probes that reference earlier
// tables (nil for the base table); subs the statement's materialized
// subqueries.
func (e *Engine) accessRows(ctx *ExecCtx, access *tableAccess, outer types.Row, params []types.Value, subs []subResult) ([]types.Row, error) {
	if access.transient {
		// Bound at prepare time; an empty delta (EXPIRED while a window
		// fills) is just empty.
		if access.delta >= 0 {
			return ctx.deltas[access.delta], nil
		}
		return ctx.NewRows[access.relName], nil
	}
	rel, err := e.readRows(ctx, access)
	if err != nil {
		return nil, err
	}
	tb := rel.Table
	// Snapshot contexts read the versions visible at the pinned sequence
	// (possibly from a client goroutine, concurrently with the partition
	// worker); everything else reads the writer's current view.
	snap, seq := ctx.Snapshot, ctx.SnapshotSeq
	ec := &evalCtx{row: outer, params: params}
	// When the arm is planned but does not apply to this execution, the
	// access has no other index bound and falls to the scan at the bottom.
	if ix, keys, ok := subProbe(access, subs, tb); ok {
		var rows []types.Row
		if snap {
			for _, k := range keys {
				rows = append(rows, tb.SnapshotLookup(ix, types.Row{k}, seq)...)
			}
			return rows, nil
		}
		for _, id := range lookupEach(ix, keys) {
			if r, ok := tb.Get(id); ok {
				rows = append(rows, r)
			}
		}
		return rows, nil
	}
	if access.index != nil && access.eqKey != nil {
		key := make(types.Row, len(access.eqKey))
		for i, kc := range access.eqKey {
			if key[i], err = kc.eval(ec); err != nil {
				return nil, err
			}
			if key[i].IsNull() {
				return nil, nil // = NULL matches nothing
			}
		}
		ix := tb.IndexByName(access.index.Name())
		if ix == nil { // index dropped since prepare
			if snap {
				return tb.SnapshotRows(seq), nil
			}
			return tb.ScanRows(), nil
		}
		if snap {
			return tb.SnapshotLookup(ix, key, seq), nil
		}
		ids, _ := ix.Lookup(key)
		rows := make([]types.Row, 0, len(ids))
		for _, id := range ids {
			if r, ok := tb.Get(id); ok {
				rows = append(rows, r)
			}
		}
		return rows, nil
	}
	if access.index != nil && (access.lo != nil || access.hi != nil) {
		ix := tb.IndexByName(access.index.Name())
		if ix == nil {
			if snap {
				return tb.SnapshotRows(seq), nil
			}
			return tb.ScanRows(), nil
		}
		var lo, hi types.Row
		var loV, hiV types.Value
		if access.lo != nil {
			if loV, err = access.lo.eval(ec); err != nil {
				return nil, err
			}
			if loV.IsNull() {
				return nil, nil
			}
			lo = types.Row{loV}
		}
		if access.hi != nil {
			if hiV, err = access.hi.eval(ec); err != nil {
				return nil, err
			}
			if hiV.IsNull() {
				return nil, nil
			}
			hi = types.Row{hiV}
		}
		var rows []types.Row
		inBounds := func(key types.Row) bool {
			if access.lo != nil && !access.loInc && key[0].Compare(loV) == 0 {
				return false
			}
			if access.hi != nil && !access.hiInc && key[0].Compare(hiV) == 0 {
				return false
			}
			return true
		}
		if snap {
			err = tb.SnapshotRange(ix, lo, hi, seq, func(key types.Row, r types.Row) bool {
				if inBounds(key) {
					rows = append(rows, r)
				}
				return true
			})
		} else {
			ix.Range(lo, hi, func(key types.Row, id storage.RowID) bool {
				if !inBounds(key) {
					return true
				}
				if r, ok := tb.Get(id); ok {
					rows = append(rows, r)
				}
				return true
			})
		}
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	if snap {
		return tb.SnapshotRows(seq), nil
	}
	return tb.ScanRows(), nil
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

// aggregateRows folds the input into one virtual row per group:
// [groupKey0..groupKeyK, agg0..aggN]. With no GROUP BY keys there is
// exactly one group, even over empty input (COUNT(*) = 0).
func aggregateRows(rows []types.Row, plan *selectPlan, params []types.Value, subs []subResult) ([]types.Row, error) {
	type group struct {
		key    types.Row
		states []aggState
	}
	groups := make(map[uint64][]*group)
	var order []*group
	ec := &evalCtx{params: params, subs: subs}
	for _, r := range rows {
		ec.row = r
		key := make(types.Row, len(plan.groupKeys))
		for i, gk := range plan.groupKeys {
			v, err := gk.eval(ec)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		h := key.Hash()
		var g *group
		for _, cand := range groups[h] {
			if cand.key.Equal(key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key, states: make([]aggState, len(plan.aggs))}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i := range plan.aggs {
			spec := &plan.aggs[i]
			var v types.Value
			if spec.arg != nil {
				var err error
				if v, err = spec.arg.eval(ec); err != nil {
					return nil, err
				}
			}
			g.states[i].update(spec, v)
		}
	}
	if len(order) == 0 && len(plan.groupKeys) == 0 {
		order = append(order, &group{states: make([]aggState, len(plan.aggs))})
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(plan.groupKeys)+len(plan.aggs))
		row = append(row, g.key...)
		for i := range plan.aggs {
			row = append(row, g.states[i].finalize(&plan.aggs[i]))
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------- DML ----------

func (e *Engine) execInsert(ctx *ExecCtx, plan *insertPlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	res, err := e.execInsertInner(ctx, plan, params)
	if err != nil && ctx.Undo != nil {
		ctx.Undo.RollbackTo(mark) // statement-level atomicity
	}
	return res, err
}

func (e *Engine) execInsertInner(ctx *ExecCtx, plan *insertPlan, params []types.Value) (*Result, error) {
	var srcRows []types.Row
	if plan.query != nil {
		sub := &Prepared{sel: plan.query}
		// The subquery executes within the same crossing; bump depth so it
		// is not double-counted as a PE→EE trip.
		ctx.depth++
		res, err := e.execSelect(ctx, sub, params)
		ctx.depth--
		if err != nil {
			return nil, err
		}
		srcRows = res.Rows
	} else {
		ec := &evalCtx{params: params}
		for _, exprs := range plan.rows {
			row := make(types.Row, len(exprs))
			for i, ce := range exprs {
				v, err := ce.eval(ec)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}
	full := make([]types.Row, 0, len(srcRows))
	for _, src := range srcRows {
		row := make(types.Row, plan.arity)
		for i, ord := range plan.colMap {
			row[ord] = src[i]
		}
		full = append(full, row)
	}
	n, err := e.InsertRows(ctx, plan.relName, full)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// collectMatches gathers (id, row) pairs matching an access path + filter.
func (e *Engine) collectMatches(ctx *ExecCtx, access *tableAccess, where compiled, params []types.Value, subs []subResult) (*catalog.Relation, []storage.RowID, []types.Row, error) {
	rel, err := e.cat.MustRelation(access.relName)
	if err != nil {
		return nil, nil, nil, err
	}
	var ids []storage.RowID
	var rows []types.Row
	ec := &evalCtx{params: params, subs: subs}
	consider := func(id storage.RowID, r types.Row) error {
		if where != nil {
			ec.row = r
			v, err := where.eval(ec)
			if err != nil {
				return err
			}
			if !v.IsTrue() {
				return nil
			}
		}
		ids = append(ids, id)
		rows = append(rows, r)
		return nil
	}
	// Same arm and same fallback as accessRows: the scan below.
	if ix, keys, ok := subProbe(access, subs, rel.Table); ok {
		for _, id := range lookupEach(ix, keys) {
			if r, ok := rel.Table.Get(id); ok {
				if err := consider(id, r); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		return rel, ids, rows, nil
	}
	if access.index != nil && access.eqKey != nil {
		if ix := rel.Table.IndexByName(access.index.Name()); ix != nil {
			key := make(types.Row, len(access.eqKey))
			for i, kc := range access.eqKey {
				if key[i], err = kc.eval(&evalCtx{params: params}); err != nil {
					return nil, nil, nil, err
				}
				if key[i].IsNull() {
					return rel, nil, nil, nil
				}
			}
			got, _ := ix.Lookup(key)
			for _, id := range got {
				if r, ok := rel.Table.Get(id); ok {
					if err := consider(id, r); err != nil {
						return nil, nil, nil, err
					}
				}
			}
			return rel, ids, rows, nil
		}
	}
	var scanErr error
	rel.Table.Scan(func(id storage.RowID, r types.Row) bool {
		if err := consider(id, r); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		return nil, nil, nil, scanErr
	}
	return rel, ids, rows, nil
}

func (e *Engine) execUpdate(ctx *ExecCtx, plan *updatePlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rel, ids, rows, err := e.collectMatches(ctx, &plan.access, plan.where, params, subs)
	if err != nil {
		return nil, err
	}
	if rel.Kind != catalog.KindTable {
		return nil, fmt.Errorf("ee: UPDATE targets tables; %q is a %s", plan.relName, rel.Kind)
	}
	uec := &evalCtx{params: params, subs: subs}
	for i, id := range ids {
		newRow := rows[i].Clone()
		uec.row = rows[i]
		for _, set := range plan.sets {
			v, err := set.expr.eval(uec)
			if err != nil {
				if ctx.Undo != nil {
					ctx.Undo.RollbackTo(mark)
				}
				return nil, err
			}
			newRow[set.col] = v
		}
		if err := rel.Table.Update(id, newRow, ctx.Undo); err != nil {
			if ctx.Undo != nil {
				ctx.Undo.RollbackTo(mark)
			}
			return nil, err
		}
	}
	return &Result{RowsAffected: len(ids)}, nil
}

func (e *Engine) execDelete(ctx *ExecCtx, plan *deletePlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rel, ids, _, err := e.collectMatches(ctx, &plan.access, plan.where, params, subs)
	if err != nil {
		return nil, err
	}
	if rel.Kind == catalog.KindWindow {
		return nil, fmt.Errorf("ee: window %q is engine-maintained; DELETE is not allowed", plan.relName)
	}
	for _, id := range ids {
		if err := rel.Table.Delete(id, ctx.Undo); err != nil {
			if ctx.Undo != nil {
				ctx.Undo.RollbackTo(mark)
			}
			return nil, err
		}
	}
	return &Result{RowsAffected: len(ids)}, nil
}
