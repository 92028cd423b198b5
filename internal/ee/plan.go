package ee

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// Prepared is a planned, executable statement — the split H-Store uses for
// its stored-procedure statements. Planning compiles every expression to
// slot references against the relations' schemas and selects index access
// paths. Execution still looks two things up by name: the relation it reads
// (readRows) and the index an access path chose (accessRows, IndexByName,
// which falls back to a scan when the index is gone). That is what lets a
// trigger's plan, which no cache invalidation reaches, outlive DDL on other
// relations; a cached plan is dropped with every DDL (Sync).
type Prepared struct {
	Text    string
	Columns []string // output column names (SELECT only)

	usesNew bool // reads the NEW transient of a trigger firing

	sel *selectPlan
	ins *insertPlan
	upd *updatePlan
	del *deletePlan
}

// ---------- plan node structures ----------

// tableAccess describes how one relation is read: full scan, index
// equality probe, probe from a materialized IN-subquery, or single-column
// range over an ordered index. For transient relations rows come from the
// exec context instead of the catalog: relName is then the canonical
// (lowercased) name bound at prepare time, and delta the slot of the
// current trigger firing's NEW / INSERTED / EXPIRED rows, or -1 for a
// relation the caller supplies by name in ExecCtx.NewRows.
type tableAccess struct {
	relName   string
	transient bool
	delta     int
	schema    *types.Schema

	index *storage.Index // nil -> full scan
	eqKey []compiled     // equality probe values (len == index cols)
	lo    compiled       // range bounds (single-column ordered index)
	hi    compiled
	loInc bool // inclusive bounds
	hiInc bool
	// fromSub selects the subquery-probe arm: index is a single-column
	// index on col of a top-level conjunct `col IN (SELECT …)` and subSlot
	// that subquery's materialization slot. Execution does one lookup per
	// distinct value of the materialized set (see subProbe).
	fromSub bool
	subSlot int
	keyType types.Type // declared type of the indexed column
	// scanWhy says, for EXPLAIN, why a full scan with an IN-subquery
	// conjunct on this relation is not driven from that subquery.
	scanWhy string
	// spread marks a partitioned relation: over a Cut each partition holds
	// a share of it. partKey, when set, is the value a top-level equality
	// conjunct binds the partition key of a table placed by that key (not
	// PARTIAL) to, and partType the key's declared type: the access then
	// reads the key's owner alone (tableAccess.owner).
	spread   bool
	partKey  compiled
	partType types.Type
}

type joinStep struct {
	access tableAccess
	on     compiled // evaluated against (outer ++ inner) row
	left   bool
}

type sourcePlan struct {
	base  tableAccess
	joins []joinStep
	scope *scope
}

type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

type aggSpec struct {
	kind     aggKind
	arg      compiled // nil for COUNT(*)
	distinct bool
}

type orderSpec struct {
	expr compiled // evaluated in the projection input scope
	desc bool
}

type selectPlan struct {
	src       sourcePlan
	subs      []*selectPlan // uncorrelated IN-subqueries, materialized first
	where     compiled
	grouped   bool
	groupKeys []compiled
	aggs      []aggSpec
	having    compiled
	projs     []compiled
	distinct  bool
	orderBy   []orderSpec
	limit     compiled
	offset    compiled
	// count marks a count access: the plan reads one stored or transient
	// relation with no WHERE, join, GROUP BY key or index probe, and its
	// every aggregate is a plain COUNT(*), so the one group's counts are
	// the relation's row count (countRows) and no row is read.
	count bool
}

type insertPlan struct {
	relName string
	// colMap[i] is the schema ordinal the i'th supplied value feeds.
	colMap []int
	arity  int // schema width
	rows   [][]compiled
	query  *selectPlan
}

type updatePlan struct {
	relName string
	access  tableAccess
	subs    []*selectPlan
	where   compiled
	sets    []struct {
		col  int
		expr compiled
	}
}

type deletePlan struct {
	relName string
	access  tableAccess
	subs    []*selectPlan
	where   compiled
}

// ---------- planner ----------

type planner struct {
	cat       *catalog.Catalog
	transient map[string]*types.Schema // NEW batches visible to EE triggers
	// curSubs points at the subquery list of the statement currently being
	// planned; IN-subqueries append themselves there and compile to the
	// resulting materialization slot.
	curSubs *[]*selectPlan
	// subSlots remembers the slot each IN-subquery node was planned into:
	// access-path selection and expression compilation both reach the same
	// node and must agree on one materialization.
	subSlots map[*sql.Select]int
	// usesNew records that the statement reads the NEW transient.
	usesNew bool
}

// planSub is the exprCompiler callback that plans one uncorrelated
// IN-subquery into the current statement's materialization list.
func (pl *planner) planSub(q *sql.Select) (int, error) {
	if slot, ok := pl.subSlots[q]; ok {
		return slot, nil
	}
	if pl.curSubs == nil {
		return 0, fmt.Errorf("subquery not allowed in this context")
	}
	target := pl.curSubs
	sp, cols, err := pl.planSelect(q)
	if err != nil {
		return 0, fmt.Errorf("subquery: %w", err)
	}
	if len(cols) != 1 {
		return 0, fmt.Errorf("IN-subquery must yield exactly one column, got %d", len(cols))
	}
	*target = append(*target, sp)
	slot := len(*target) - 1
	if pl.subSlots == nil {
		pl.subSlots = make(map[*sql.Select]int)
	}
	pl.subSlots[q] = slot
	return slot, nil
}

// Prepare plans one DML/query statement text from its cached parse.
// transient maps pseudo-relation names (e.g. "new") to schemas for EE
// trigger bodies; it may be nil.
func (e *Engine) Prepare(text string, transient map[string]*types.Schema) (*Prepared, error) {
	stmt, err := sql.ParseCached(text)
	if err != nil {
		return nil, err
	}
	return e.PrepareTree(stmt, text, transient)
}

// PrepareTree plans a parsed statement; text is what the plan reports
// itself as. The tree may be shared with other goroutines (ParseCached's
// are): planning only reads it.
func (e *Engine) PrepareTree(stmt sql.Statement, text string, transient map[string]*types.Schema) (*Prepared, error) {
	pl := &planner{cat: e.cat, transient: lowerKeys(transient)}
	p := &Prepared{Text: text}
	switch s := stmt.(type) {
	case *sql.Select:
		sel, cols, err := pl.planSelect(s)
		if err != nil {
			return nil, fmt.Errorf("ee: %q: %w", text, err)
		}
		p.sel = sel
		p.Columns = cols
	case *sql.Insert:
		ins, err := pl.planInsert(s)
		if err != nil {
			return nil, fmt.Errorf("ee: %q: %w", text, err)
		}
		p.ins = ins
	case *sql.Update:
		upd, err := pl.planUpdate(s)
		if err != nil {
			return nil, fmt.Errorf("ee: %q: %w", text, err)
		}
		p.upd = upd
	case *sql.Delete:
		del, err := pl.planDelete(s)
		if err != nil {
			return nil, fmt.Errorf("ee: %q: %w", text, err)
		}
		p.del = del
	default:
		return nil, fmt.Errorf("ee: %T must be executed as DDL, not prepared", stmt)
	}
	p.usesNew = pl.usesNew
	return p, nil
}

func lowerKeys(m map[string]*types.Schema) map[string]*types.Schema {
	if m == nil {
		return nil
	}
	out := make(map[string]*types.Schema, len(m))
	for k, v := range m {
		out[strings.ToLower(k)] = v
	}
	return out
}

// Slots of ExecCtx.deltas, the transients of the current trigger firing.
const (
	deltaNew = iota
	deltaInserted
	deltaExpired
	numDeltas
)

// resolveRelation binds a FROM / DML target name: a transient relation
// resolves to its canonical name and, for the trigger pseudo-relations, its
// delta slot, so execution does no name matching.
func (pl *planner) resolveRelation(name string) (tableAccess, error) {
	lower := strings.ToLower(name)
	if s, ok := pl.transient[lower]; ok {
		acc := tableAccess{relName: lower, transient: true, delta: -1, schema: s}
		switch lower {
		case NewRelation:
			acc.delta = deltaNew
			pl.usesNew = true
		case InsertedRelation:
			acc.delta = deltaInserted
		case ExpiredRelation:
			acc.delta = deltaExpired
		}
		return acc, nil
	}
	rel, err := pl.cat.MustRelation(name)
	if err != nil {
		return tableAccess{}, err
	}
	return tableAccess{relName: name, schema: rel.Schema, spread: rel.Partitioned()}, nil
}

func (pl *planner) planSource(from sql.TableRef, joins []sql.JoinClause, where sql.Expr) (sourcePlan, error) {
	sc := &scope{}
	base, err := pl.resolveRelation(from.Name)
	if err != nil {
		return sourcePlan{}, err
	}
	qualifier := from.Alias
	if qualifier == "" {
		qualifier = from.Name
	}
	sc.add(qualifier, base.schema)
	src := sourcePlan{scope: sc, base: base}
	// Index selection for the base table: usable conjuncts may reference
	// only parameters and literals.
	if !base.transient && where != nil {
		emptyScope := &scope{}
		pl.chooseAccessPath(&src.base, splitConjuncts(where), qualifier, emptyScope)
	}
	for _, jc := range joins {
		access, err := pl.resolveRelation(jc.Table.Name)
		if err != nil {
			return sourcePlan{}, err
		}
		jqual := jc.Table.Alias
		if jqual == "" {
			jqual = jc.Table.Name
		}
		// Outer scope for probe expressions = everything joined so far.
		if !access.transient && jc.On != nil {
			pl.chooseAccessPath(&access, splitConjuncts(jc.On), jqual, sc)
		}
		sc.add(jqual, access.schema)
		cmp := &exprCompiler{scope: sc, subplan: pl.planSub}
		var on compiled
		if jc.On != nil {
			if on, err = cmp.compile(jc.On); err != nil {
				return sourcePlan{}, err
			}
		}
		src.joins = append(src.joins, joinStep{access: access, on: on, left: jc.Left})
	}
	return src, nil
}

// splitConjuncts flattens a conjunction tree into its AND-ed parts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// chooseAccessPath scans the conjuncts for equality (col = expr), IN-subquery
// (col IN (SELECT …), un-negated) or range predicates on the given table
// where expr is computable from outerScope (plus parameters), and binds the
// best matching index: full equality on a unique index beats equality on any
// index beats a probe from a materialized subquery over a single-column
// index beats a single-column range.
func (pl *planner) chooseAccessPath(access *tableAccess, conjuncts []sql.Expr, qualifier string, outerScope *scope) {
	rel := pl.cat.Relation(access.relName)
	if rel == nil {
		return
	}
	// Gather candidate predicates per column ordinal.
	type rangeBound struct {
		expr sql.Expr
		inc  bool
	}
	eq := map[int]sql.Expr{}
	in := map[int]*sql.Select{}
	inCol := -1 // column of the first IN-subquery conjunct, for scanWhy
	lo := map[int]rangeBound{}
	hi := map[int]rangeBound{}
	outerCmp := &exprCompiler{scope: outerScope}
	compilable := func(e sql.Expr) bool {
		if sql.ContainsAggregate(e) {
			return false
		}
		_, err := outerCmp.compile(e)
		return err == nil
	}
	colOrdinal := func(e sql.Expr) int {
		cr, ok := e.(*sql.ColumnRef)
		if !ok {
			return -1
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, qualifier) {
			return -1
		}
		return access.schema.ColumnIndex(cr.Column)
	}
	for _, c := range conjuncts {
		switch x := c.(type) {
		case *sql.Binary:
			l, r := x.L, x.R
			lc, rc := colOrdinal(l), colOrdinal(r)
			op := x.Op
			// normalize to column-on-the-left
			if lc < 0 && rc >= 0 {
				lc = rc
				l, r = r, l
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
				_ = l
			}
			if lc < 0 || !compilable(r) {
				continue
			}
			switch op {
			case "=":
				if _, dup := eq[lc]; !dup {
					eq[lc] = r
				}
			case ">":
				lo[lc] = rangeBound{expr: r, inc: false}
			case ">=":
				lo[lc] = rangeBound{expr: r, inc: true}
			case "<":
				hi[lc] = rangeBound{expr: r, inc: false}
			case "<=":
				hi[lc] = rangeBound{expr: r, inc: true}
			}
		case *sql.Between:
			ord := colOrdinal(x.X)
			if ord >= 0 && !x.Negate && compilable(x.Lo) && compilable(x.Hi) {
				lo[ord] = rangeBound{expr: x.Lo, inc: true}
				hi[ord] = rangeBound{expr: x.Hi, inc: true}
			}
		case *sql.InSubquery:
			ord := colOrdinal(x.X)
			switch {
			case ord < 0:
			case x.Negate:
				// NOT IN selects the complement of the set: nothing to
				// drive from.
				access.scanWhy = "NOT IN cannot drive a probe"
			default:
				if _, dup := in[ord]; !dup {
					in[ord] = x.Query
				}
				if inCol < 0 {
					inCol = ord
				}
			}
		}
	}
	if e, ok := eq[rel.PartCol]; ok && rel.Kind == catalog.KindTable && !rel.Partial {
		if k, err := outerCmp.compile(e); err == nil {
			access.partKey, access.partType = k, access.schema.Column(rel.PartCol).Type
		}
	}
	// Try full-equality probes, preferring unique indexes.
	var best *storage.Index
	for _, ix := range rel.Table.Indexes() {
		cols := ix.Columns()
		full := true
		for _, c := range cols {
			if _, ok := eq[c]; !ok {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		if best == nil || (ix.Unique() && !best.Unique()) ||
			(ix.Unique() == best.Unique() && len(cols) > len(best.Columns())) {
			best = ix
		}
	}
	if best != nil {
		keys := make([]compiled, 0, len(best.Columns()))
		for _, c := range best.Columns() {
			k, err := outerCmp.compile(eq[c])
			if err != nil {
				return // should not happen; fall back to scan
			}
			keys = append(keys, k)
		}
		access.index = best
		access.eqKey = keys
		return
	}
	// Probe from a materialized IN-subquery: one lookup per value of the
	// set, so the cost follows the set (a trigger's delta), not the table.
	// A composite index has no lookup by one column and stays ineligible.
	for _, ix := range rel.Table.Indexes() {
		cols := ix.Columns()
		if len(cols) != 1 {
			continue
		}
		q, ok := in[cols[0]]
		if !ok {
			continue
		}
		// The WHERE compiles the same node later and reuses this slot; a
		// subquery that does not plan is reported from there.
		slot, err := pl.planSub(q)
		if err != nil {
			continue
		}
		access.index, access.fromSub, access.subSlot = ix, true, slot
		access.keyType = access.schema.Column(cols[0]).Type
		return
	}
	// Range probe on a single-column index.
	for _, ix := range rel.Table.Indexes() {
		if len(ix.Columns()) != 1 {
			continue
		}
		c := ix.Columns()[0]
		lb, hasLo := lo[c]
		hb, hasHi := hi[c]
		if !hasLo && !hasHi {
			continue
		}
		access.index = ix
		if hasLo {
			if k, err := outerCmp.compile(lb.expr); err == nil {
				access.lo, access.loInc = k, lb.inc
			}
		}
		if hasHi {
			if k, err := outerCmp.compile(hb.expr); err == nil {
				access.hi, access.hiInc = k, hb.inc
			}
		}
		if access.lo == nil && access.hi == nil {
			access.index = nil
			continue
		}
		return
	}
	if inCol >= 0 {
		access.scanWhy = fmt.Sprintf("no single-column index on %s", access.schema.Column(inCol).Name)
	}
}

func (pl *planner) planSelect(s *sql.Select) (*selectPlan, []string, error) {
	plan := &selectPlan{distinct: s.Distinct}
	saved := pl.curSubs
	pl.curSubs = &plan.subs
	defer func() { pl.curSubs = saved }()
	src, err := pl.planSource(s.From, s.Joins, s.Where)
	if err != nil {
		return nil, nil, err
	}
	plan.src = src
	rowCmp := &exprCompiler{scope: src.scope, subplan: pl.planSub}
	if s.Where != nil {
		if plan.where, err = rowCmp.compile(s.Where); err != nil {
			return nil, nil, err
		}
	}

	// Expand stars into per-column references.
	items, colNames, err := expandSelectItems(s, src.scope)
	if err != nil {
		return nil, nil, err
	}

	// Decide grouping: explicit GROUP BY, or implicit single group when any
	// select item (or HAVING) contains an aggregate.
	hasAgg := s.Having != nil && sql.ContainsAggregate(s.Having)
	for _, it := range items {
		if sql.ContainsAggregate(it) {
			hasAgg = true
		}
	}
	plan.grouped = len(s.GroupBy) > 0 || hasAgg

	if !plan.grouped {
		for _, it := range items {
			ce, err := rowCmp.compile(it)
			if err != nil {
				return nil, nil, err
			}
			plan.projs = append(plan.projs, ce)
		}
		for _, ob := range s.OrderBy {
			ce, err := pl.compileOrder(ob.Expr, rowCmp, items, s, plan)
			if err != nil {
				return nil, nil, err
			}
			plan.orderBy = append(plan.orderBy, orderSpec{expr: ce, desc: ob.Desc})
		}
	} else {
		// Group keys evaluate in the row scope.
		for _, g := range s.GroupBy {
			ce, err := rowCmp.compile(g)
			if err != nil {
				return nil, nil, err
			}
			plan.groupKeys = append(plan.groupKeys, ce)
		}
		// Collect every aggregate call across items, HAVING, ORDER BY.
		aggSlots := map[sql.Expr]int{}
		collect := func(e sql.Expr) {
			sql.WalkExpr(e, func(x sql.Expr) {
				if fc, ok := x.(*sql.FuncCall); ok && sql.IsAggregate(fc.Name) {
					if _, seen := aggSlots[x]; !seen {
						aggSlots[x] = len(plan.groupKeys) + len(plan.aggs)
						spec, err2 := pl.makeAggSpec(fc, rowCmp)
						if err2 != nil {
							err = err2
							return
						}
						plan.aggs = append(plan.aggs, spec)
					}
				}
			})
		}
		for _, it := range items {
			collect(it)
		}
		if s.Having != nil {
			collect(s.Having)
		}
		for _, ob := range s.OrderBy {
			collect(ob.Expr)
		}
		if err != nil {
			return nil, nil, err
		}
		groupCmp := &exprCompiler{scope: src.scope, aggSlots: aggSlots, groupBy: s.GroupBy, subplan: pl.planSub}
		for _, it := range items {
			ce, err := groupCmp.compile(it)
			if err != nil {
				return nil, nil, err
			}
			plan.projs = append(plan.projs, ce)
		}
		if s.Having != nil {
			if plan.having, err = groupCmp.compile(s.Having); err != nil {
				return nil, nil, err
			}
		}
		for _, ob := range s.OrderBy {
			ce, err := pl.compileOrder(ob.Expr, groupCmp, items, s, plan)
			if err != nil {
				return nil, nil, err
			}
			plan.orderBy = append(plan.orderBy, orderSpec{expr: ce, desc: ob.Desc})
		}
	}

	paramCmp := &exprCompiler{scope: &scope{}}
	if s.Limit != nil {
		if plan.limit, err = paramCmp.compile(s.Limit); err != nil {
			return nil, nil, fmt.Errorf("LIMIT: %w", err)
		}
	}
	if s.Offset != nil {
		if plan.offset, err = paramCmp.compile(s.Offset); err != nil {
			return nil, nil, fmt.Errorf("OFFSET: %w", err)
		}
	}
	plan.count = plan.countsRows()
	return plan, colNames, nil
}

// countsRows reports whether the plan qualifies as a count access (see
// selectPlan.count).
func (p *selectPlan) countsRows() bool {
	if len(p.aggs) == 0 || len(p.groupKeys) > 0 || p.where != nil ||
		len(p.src.joins) > 0 || p.src.base.index != nil {
		return false
	}
	for _, a := range p.aggs {
		if a.kind != aggCount || a.arg != nil || a.distinct {
			return false
		}
	}
	return true
}

// compileOrder compiles one ORDER BY key. A bare integer literal is a
// 1-based output ordinal (standard SQL); a bare identifier matching a
// select-item alias sorts by that output expression.
func (pl *planner) compileOrder(e sql.Expr, cmp *exprCompiler, items []sql.Expr, s *sql.Select, plan *selectPlan) (compiled, error) {
	if lit, ok := e.(*sql.Literal); ok && lit.Value.Type() == types.TypeInt {
		n := int(lit.Value.Int())
		if n < 1 || n > len(items) {
			return nil, fmt.Errorf("ORDER BY position %d is not in the select list", n)
		}
		return projRef{plan: plan, idx: n - 1}, nil
	}
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		idx := 0
		for _, it := range s.Items {
			if it.Star {
				idx += starWidth(it, plan)
				continue
			}
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
				return projRef{plan: plan, idx: idx}, nil
			}
			idx++
		}
	}
	return cmp.compile(e)
}

func starWidth(it sql.SelectItem, plan *selectPlan) int {
	if it.Table == "" {
		return plan.src.scope.width()
	}
	for _, t := range plan.src.scope.tables {
		if t.qualifier == strings.ToLower(it.Table) {
			return t.schema.NumColumns()
		}
	}
	return 0
}

// projRef sorts by the idx'th projection of the same plan (alias ORDER BY).
type projRef struct {
	plan *selectPlan
	idx  int
}

func (e projRef) eval(ec *evalCtx) (types.Value, error) {
	return e.plan.projs[e.idx].eval(ec)
}

// expandSelectItems rewrites * and t.* into explicit column references and
// returns the flat expression list plus output column names.
func expandSelectItems(s *sql.Select, sc *scope) ([]sql.Expr, []string, error) {
	var items []sql.Expr
	var names []string
	for _, it := range s.Items {
		if !it.Star {
			items = append(items, it.Expr)
			names = append(names, outputName(it))
			continue
		}
		matched := false
		for _, t := range sc.tables {
			if it.Table != "" && t.qualifier != strings.ToLower(it.Table) {
				continue
			}
			matched = true
			for i := 0; i < t.schema.NumColumns(); i++ {
				col := t.schema.Column(i)
				qual := t.qualifier
				items = append(items, &sql.ColumnRef{Table: qual, Column: col.Name})
				names = append(names, col.Name)
			}
		}
		if !matched {
			return nil, nil, fmt.Errorf("unknown relation %q in %s.*", it.Table, it.Table)
		}
	}
	return items, names, nil
}

func outputName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Column
	}
	if fc, ok := it.Expr.(*sql.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return "expr"
}

func (pl *planner) makeAggSpec(fc *sql.FuncCall, cmp *exprCompiler) (aggSpec, error) {
	spec := aggSpec{distinct: fc.Distinct}
	switch fc.Name {
	case "COUNT":
		spec.kind = aggCount
	case "SUM":
		spec.kind = aggSum
	case "AVG":
		spec.kind = aggAvg
	case "MIN":
		spec.kind = aggMin
	case "MAX":
		spec.kind = aggMax
	default:
		return spec, fmt.Errorf("unknown aggregate %q", fc.Name)
	}
	if fc.Star {
		if spec.kind != aggCount {
			return spec, fmt.Errorf("%s(*) is not valid", fc.Name)
		}
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return spec, fmt.Errorf("%s expects exactly one argument", fc.Name)
	}
	arg, err := cmp.compile(fc.Args[0])
	if err != nil {
		return spec, err
	}
	spec.arg = arg
	return spec, nil
}

func (pl *planner) planInsert(s *sql.Insert) (*insertPlan, error) {
	target, err := pl.resolveRelation(s.Table)
	if err != nil {
		return nil, err
	}
	if target.transient {
		return nil, fmt.Errorf("cannot INSERT into transient relation %q", s.Table)
	}
	schema := target.schema
	plan := &insertPlan{relName: s.Table, arity: schema.NumColumns()}
	if len(s.Columns) == 0 {
		for i := 0; i < schema.NumColumns(); i++ {
			plan.colMap = append(plan.colMap, i)
		}
	} else {
		for _, c := range s.Columns {
			i := schema.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("unknown column %q in INSERT", c)
			}
			plan.colMap = append(plan.colMap, i)
		}
	}
	if s.Query != nil {
		qp, qcols, err := pl.planSelect(s.Query)
		if err != nil {
			return nil, err
		}
		if len(qcols) != len(plan.colMap) {
			return nil, fmt.Errorf("INSERT expects %d columns, SELECT yields %d", len(plan.colMap), len(qcols))
		}
		plan.query = qp
		return plan, nil
	}
	paramCmp := &exprCompiler{scope: &scope{}}
	for _, row := range s.Rows {
		if len(row) != len(plan.colMap) {
			return nil, fmt.Errorf("INSERT expects %d values, got %d", len(plan.colMap), len(row))
		}
		var exprs []compiled
		for _, e := range row {
			ce, err := paramCmp.compile(e)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, ce)
		}
		plan.rows = append(plan.rows, exprs)
	}
	return plan, nil
}

func (pl *planner) planUpdate(s *sql.Update) (*updatePlan, error) {
	access, err := pl.resolveRelation(s.Table)
	if err != nil {
		return nil, err
	}
	if access.transient {
		return nil, fmt.Errorf("cannot UPDATE transient relation %q", s.Table)
	}
	schema := access.schema
	sc := &scope{}
	sc.add(s.Table, schema)
	cmp := &exprCompiler{scope: sc, subplan: pl.planSub}
	plan := &updatePlan{relName: s.Table}
	saved := pl.curSubs
	pl.curSubs = &plan.subs
	defer func() { pl.curSubs = saved }()
	plan.access = access
	if s.Where != nil {
		pl.chooseAccessPath(&plan.access, splitConjuncts(s.Where), s.Table, &scope{})
		if plan.where, err = cmp.compile(s.Where); err != nil {
			return nil, err
		}
	}
	for _, a := range s.Set {
		ord := schema.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("unknown column %q in UPDATE", a.Column)
		}
		ce, err := cmp.compile(a.Value)
		if err != nil {
			return nil, err
		}
		plan.sets = append(plan.sets, struct {
			col  int
			expr compiled
		}{col: ord, expr: ce})
	}
	return plan, nil
}

func (pl *planner) planDelete(s *sql.Delete) (*deletePlan, error) {
	access, err := pl.resolveRelation(s.Table)
	if err != nil {
		return nil, err
	}
	if access.transient {
		return nil, fmt.Errorf("cannot DELETE from transient relation %q", s.Table)
	}
	sc := &scope{}
	sc.add(s.Table, access.schema)
	cmp := &exprCompiler{scope: sc, subplan: pl.planSub}
	plan := &deletePlan{relName: s.Table}
	saved := pl.curSubs
	pl.curSubs = &plan.subs
	defer func() { pl.curSubs = saved }()
	plan.access = access
	if s.Where != nil {
		pl.chooseAccessPath(&plan.access, splitConjuncts(s.Where), s.Table, &scope{})
		if plan.where, err = cmp.compile(s.Where); err != nil {
			return nil, err
		}
	}
	return plan, nil
}
