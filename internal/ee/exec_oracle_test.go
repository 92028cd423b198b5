package ee

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// The executor this package had before statements became one push pipeline,
// kept as the reference the differential test below compares against: every
// stage builds a []types.Row (source, filter, aggregate, project, sort) and
// hands it to the next. It shares the plan, the expressions, aggState and
// subProbe with the executor under test; what it does not share is how
// rows travel.

func snapshotRows(tb *storage.Table, seq storage.Seq) []types.Row {
	var out []types.Row
	tb.SnapshotScan(seq, func(_ storage.RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

func snapshotLookup(tb *storage.Table, ix *storage.Index, key types.Row, seq storage.Seq) []types.Row {
	var out []types.Row
	tb.SnapshotLookup(ix, key, seq, new(storage.LookupBuf), func(_ storage.RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

func (e *Engine) oracleSelect(ctx *ExecCtx, p *Prepared, params []types.Value) (*Result, error) {
	plan := p.sel
	subs, err := e.oracleMaterializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rows, err := e.oracleSourceRows(ctx, &plan.src, params, subs)
	if err != nil {
		return nil, err
	}
	if plan.where != nil {
		rows, err = oracleFilterRows(rows, plan.where, params, subs)
		if err != nil {
			return nil, err
		}
	}
	if plan.grouped {
		rows, err = oracleAggregateRows(rows, plan, params, subs)
		if err != nil {
			return nil, err
		}
		if plan.having != nil {
			rows, err = oracleFilterRows(rows, plan.having, params, subs)
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
		n, err := oracleNonNegInt(plan.offset, params, "OFFSET")
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
		n, err := oracleNonNegInt(plan.limit, params, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(final)) {
			final = final[:n]
		}
	}
	return &Result{Columns: p.Columns, Rows: final, RowsAffected: len(final)}, nil
}

func oracleNonNegInt(c compiled, params []types.Value, what string) (int64, error) {
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

func oracleFilterRows(rows []types.Row, pred compiled, params []types.Value, subs []subResult) ([]types.Row, error) {
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

// oracleMaterializeSubs executes each uncorrelated IN-subquery once, building
// the value sets predicates probe. Subquery execution is EE-internal work
// (depth bumped), not a PE→EE crossing.
func (e *Engine) oracleMaterializeSubs(ctx *ExecCtx, plans []*selectPlan, params []types.Value) ([]subResult, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	out := make([]subResult, len(plans))
	ctx.depth++
	defer func() { ctx.depth-- }()
	for i, sp := range plans {
		res, err := e.oracleSelect(ctx, &Prepared{sel: sp}, params)
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

// oracleSourceRows materializes the joined row set for a select source.
func (e *Engine) oracleSourceRows(ctx *ExecCtx, src *sourcePlan, params []types.Value, subs []subResult) ([]types.Row, error) {
	base, err := e.oracleAccessRows(ctx, &src.base, nil, params, subs)
	if err != nil {
		return nil, err
	}
	rows := base
	ec := &evalCtx{params: params, subs: subs}
	for _, js := range src.joins {
		joined := make([]types.Row, 0, len(rows))
		innerWidth := js.access.schema.NumColumns()
		for _, outer := range rows {
			inner, err := e.oracleAccessRows(ctx, &js.access, outer, params, subs)
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

// oracleAccessRows fetches the rows of one relation via its chosen access path.
// outer is the partial joined row for index probes that reference earlier
// tables (nil for the base table); subs the statement's materialized
// subqueries.
func (e *Engine) oracleAccessRows(ctx *ExecCtx, access *tableAccess, outer types.Row, params []types.Value, subs []subResult) ([]types.Row, error) {
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
				rows = append(rows, snapshotLookup(tb, ix, types.Row{k}, seq)...)
			}
			return rows, nil
		}
		for _, id := range lookupEach(new(scratch), tb, ix, keys) {
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
				return snapshotRows(tb, seq), nil
			}
			return tb.ScanRows(), nil
		}
		if snap {
			return snapshotLookup(tb, ix, key, seq), nil
		}
		var rows []types.Row
		tb.Lookup(ix, key, func(_ storage.RowID, r types.Row) bool {
			rows = append(rows, r)
			return true
		})
		return rows, nil
	}
	if access.index != nil && (access.lo != nil || access.hi != nil) {
		ix := tb.IndexByName(access.index.Name())
		if ix == nil {
			if snap {
				return snapshotRows(tb, seq), nil
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
			tb.Range(ix, lo, hi, func(key types.Row, _ storage.RowID, r types.Row) bool {
				if inBounds(key) {
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
		return snapshotRows(tb, seq), nil
	}
	return tb.ScanRows(), nil
}

// oracleAggregateRows folds the input into one virtual row per group:
// [groupKey0..groupKeyK, agg0..aggN]. With no GROUP BY keys there is
// exactly one group, even over empty input (COUNT(*) = 0).
func oracleAggregateRows(rows []types.Row, plan *selectPlan, params []types.Value, subs []subResult) ([]types.Row, error) {
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

// ---------- the differential test ----------

const oracleSchema = `
	CREATE TABLE t (k INT PRIMARY KEY, g INT, n INT, f FLOAT, s VARCHAR);
	CREATE INDEX t_g ON t (g);
	CREATE TABLE u (id INT PRIMARY KEY, g INT, w INT);
	CREATE INDEX u_g ON u (g);
	CREATE INDEX u_w ON u (w);
`

// loadOracleTables fills t (60 rows) and u (15 rows) with repeating group
// values, NULLs in every nullable column, groups of t without a match in u
// and the reverse.
func loadOracleTables(t *testing.T, e *Engine, ctx *ExecCtx) {
	t.Helper()
	null := func(v types.Value, k, every int64) types.Value {
		if k%every == every-1 {
			return types.Null
		}
		return v
	}
	for k := int64(0); k < 60; k++ {
		mustExec(t, e, ctx, "INSERT INTO t VALUES (?, ?, ?, ?, ?)", types.NewInt(k),
			null(types.NewInt(k%7), k, 11), null(types.NewInt(k*37%13), k, 9),
			null(types.NewFloat(float64(k%5)+0.25*float64(k%3)), k, 8),
			null(types.NewString([]string{"a", "b", "c", ""}[k%4]), k, 10))
	}
	for id := int64(0); id < 15; id++ {
		mustExec(t, e, ctx, "INSERT INTO u VALUES (?, ?, ?)", types.NewInt(id),
			null(types.NewInt(id%9), id, 6), null(types.NewInt(id*5%11), id, 14))
	}
}

// overwriteOracleTables changes, removes and adds rows of both tables.
func overwriteOracleTables(t *testing.T, e *Engine, ctx *ExecCtx) {
	t.Helper()
	for _, q := range []string{
		"UPDATE t SET n = n + 100, g = g + 1 WHERE k % 2 = 0",
		"UPDATE t SET s = 'z' WHERE k % 3 = 0",
		"DELETE FROM t WHERE k % 5 = 1",
		"INSERT INTO t VALUES (100, 1, 5, 0.5, 'a'), (101, NULL, NULL, NULL, NULL), (102, 9, 9, 9.0, 'q')",
		"UPDATE u SET w = w + 50, g = g - 1",
		"DELETE FROM u WHERE id < 3",
		"INSERT INTO u VALUES (20, 1, 1), (21, 2, NULL)",
	} {
		mustExec(t, e, ctx, q)
	}
}

// stmtGen draws SELECT statements over t and u from a fixed seed.
type stmtGen struct {
	r      *rand.Rand
	params []types.Value
	// fails marks a statement whose WHERE fails on some rows. It gets no
	// LIMIT: a scan that stops early does not evaluate, and so cannot fail
	// on, the rows behind the stop, which the reference reads regardless.
	fails bool
}

func (g *stmtGen) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }
func (g *stmtGen) chance(p float64) bool      { return g.r.Float64() < p }

// param adds one parameter and returns its placeholder.
func (g *stmtGen) param(v int64) string {
	g.params = append(g.params, types.NewInt(v))
	return "?"
}

func (g *stmtGen) sub() string {
	n := g.r.Intn(12)
	return g.pick(
		fmt.Sprintf("SELECT g FROM u WHERE w > %d", n),
		"SELECT g FROM u",
		fmt.Sprintf("SELECT DISTINCT g FROM u WHERE id >= %d", n),
		fmt.Sprintf("SELECT g FROM u ORDER BY w DESC, id LIMIT %d", 1+n%4),
		"SELECT MAX(w) FROM u GROUP BY g",
		fmt.Sprintf("SELECT g FROM u GROUP BY g HAVING COUNT(*) > %d", n%3),
		"SELECT w FROM u WHERE g IN (SELECT g FROM t WHERE n > 6)",
		"SELECT id FROM u WHERE id < 0",
	)
}

func (g *stmtGen) atom(joined bool) string {
	a, b := g.r.Intn(70)-4, g.r.Intn(14)
	if g.chance(0.03) {
		g.fails = true
		return "t.n / (t.g - 2) >= 0" // fails on the rows with g = 2
	}
	if joined && g.chance(0.25) {
		return g.pick(fmt.Sprintf("u.w > %d", b), "u.id IS NULL", fmt.Sprintf("u.w + t.n > %d", b), "u.g = t.g")
	}
	switch g.r.Intn(16) {
	case 0:
		return fmt.Sprintf("t.k = %d", a)
	case 1:
		return fmt.Sprintf("t.k BETWEEN %d AND %d", a, a+b)
	case 2:
		return fmt.Sprintf("t.k > %d", a)
	case 3:
		return fmt.Sprintf("t.k <= %d AND t.k > %d", a, a-b)
	case 4:
		return "t.k >= " + g.param(int64(a))
	case 5:
		return fmt.Sprintf("t.g = %d", b%8)
	case 6:
		return "t.g IS NULL"
	case 7:
		return fmt.Sprintf("t.n > %d", b)
	case 8:
		return "t.n IS NOT NULL"
	case 9:
		return fmt.Sprintf("t.f < %d.5", b%5)
	case 10:
		return "t.s = " + g.pick("'a'", "'b'", "''", "'zz'")
	case 11:
		return "t.k < 0"
	case 12:
		return "t.g IN (" + g.sub() + ")"
	case 13:
		return "t.g NOT IN (" + g.sub() + ")"
	case 14:
		return "t.n IN (" + g.sub() + ")"
	}
	return "t.k IN (SELECT id FROM u)"
}

func (g *stmtGen) where(joined bool) string {
	if g.chance(0.25) {
		return ""
	}
	w := g.atom(joined)
	for g.chance(0.4) {
		w = "(" + w + ") " + g.pick("AND", "OR") + " " + g.atom(joined)
	}
	if g.chance(0.1) {
		w = "NOT (" + w + ")"
	}
	return " WHERE " + w
}

// some returns between one and max distinct entries of opts, in a random
// order.
func (g *stmtGen) some(max int, opts ...string) []string {
	g.r.Shuffle(len(opts), func(i, j int) { opts[i], opts[j] = opts[j], opts[i] })
	return opts[:1+g.r.Intn(min(max, len(opts)))]
}

func (g *stmtGen) statement() (string, []types.Value) {
	g.params, g.fails = nil, false
	from, joined := " FROM t", g.chance(0.35)
	if joined {
		from += " " + g.pick("JOIN", "LEFT JOIN") + " u ON " + g.pick(
			"u.g = t.g", "u.id = t.g", "u.id = t.n", "u.g = t.g AND u.w > 3",
			"u.w > t.n", "u.w BETWEEN t.n AND t.n + 2", "u.g IN (SELECT g FROM t WHERE k < 20) AND u.id = t.g")
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	var order []string
	if g.chance(0.45) { // grouped
		keys := g.some(2, "t.g", "t.s", "t.n % 3")
		if joined {
			keys = g.some(2, "t.g", "u.g", "t.s")
		}
		if g.chance(0.35) {
			keys = nil
		}
		aggs := []string{"COUNT(*)", "COUNT(t.n)", "COUNT(DISTINCT t.n)", "SUM(t.n)", "SUM(t.f)",
			"SUM(DISTINCT t.n)", "AVG(t.n)", "AVG(t.f)", "MIN(t.s)", "MAX(t.f)", "MIN(t.n)", "MAX(t.k)", "AVG(DISTINCT t.g)"}
		if joined {
			aggs = append(aggs, "SUM(u.w)", "COUNT(u.id)", "MAX(u.w)")
		}
		items := append(append([]string(nil), keys...), g.some(3, aggs...)...)
		b.WriteString(strings.Join(items, ", ") + from + g.where(joined))
		if keys != nil {
			b.WriteString(" GROUP BY " + strings.Join(keys, ", "))
		}
		if g.chance(0.3) {
			b.WriteString(" HAVING " + g.pick(fmt.Sprintf("COUNT(*) > %d", g.r.Intn(6)), "SUM(t.n) IS NOT NULL", "MAX(t.k) > 30 OR MIN(t.k) < 5"))
		}
		order = append(append([]string(nil), keys...), "COUNT(*) DESC", "SUM(t.n)", "1")
	} else {
		cols := []string{"t.k", "t.g", "t.n", "t.f", "t.s", "t.n + 1"}
		if joined {
			cols = append(cols, "u.w", "u.id", "u.g")
		}
		order = append([]string(nil), cols...)
		order = append(order, "t.g DESC", "t.n DESC", "t.s DESC", "1", "2 DESC")
		items := g.some(3, cols...)
		if len(items) == 1 {
			order = order[:len(order)-1] // no second output column
		}
		if g.chance(0.1) {
			items = []string{g.pick("*", "t.*")}
			order = order[:len(order)-2]
		}
		if g.chance(0.25) {
			b.WriteString("DISTINCT ")
			items = g.some(2, "t.g", "t.s", "t.n % 4")
			order = append([]string(nil), items...)
		}
		b.WriteString(strings.Join(items, ", ") + from + g.where(joined))
	}
	if g.chance(0.55) {
		b.WriteString(" ORDER BY " + strings.Join(g.some(2, order...), ", "))
	}
	if !g.fails && g.chance(0.5) {
		lim := int64(g.r.Intn(9))
		if g.chance(0.04) {
			lim = -1 // rejected, after the scan
		}
		if g.chance(0.5) {
			b.WriteString(fmt.Sprintf(" LIMIT %d", max(lim, 0)))
		} else {
			b.WriteString(" LIMIT " + g.param(lim))
		}
		if g.chance(0.4) {
			b.WriteString(" OFFSET " + g.param(int64(g.r.Intn(5))))
		}
	} else if !g.fails && g.chance(0.1) {
		b.WriteString(fmt.Sprintf(" OFFSET %d", g.r.Intn(70)))
	}
	return b.String(), g.params
}

// outcome renders a statement's result or failure for comparison.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Rows)
}

// differential runs n generated statements through the executor and the
// reference, in the writer view and at a pinned snapshot, then overwrites
// both tables and runs them again: the writer view must follow the new
// contents, the snapshot must still answer as the reference did before the
// overwrite. With cold set a third of the rows are cold-store stubs.
func differential(t *testing.T, seed int64, n int, cold bool) {
	e := newTestEngine(t, oracleSchema)
	if cold {
		cs, err := coldstore.Open(filepath.Join(t.TempDir(), "cold.pages"), coldstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		e.Catalog().AttachColdStore(cs)
	}
	w := freshCtx()
	loadOracleTables(t, e, w)
	clock := e.Catalog().Clock()
	clock.Publish()
	evict := func() {
		for _, name := range []string{"t", "u"} {
			tb := e.Catalog().Relation(name).Table
			if nv, _ := tb.Evict(clock.Current(), tb.ResidentBytes()/3); cold && nv == 0 {
				t.Fatalf("nothing evicted from %s", name)
			}
		}
	}
	evict()
	pin := clock.AcquireSnapshot()
	defer clock.ReleaseSnapshot(pin)
	snap := func() *ExecCtx { return &ExecCtx{ReadOnly: true, Snapshot: true, SnapshotSeq: pin.Seq()} }
	reused := snap()

	type stmt struct {
		sql      string
		params   []types.Value
		p        *Prepared
		wantSnap string
	}
	check := func(s *stmt, view string, ctx *ExecCtx, want string) {
		t.Helper()
		if got := outcome(e.Execute(ctx, s.p, s.params...)); got != want {
			t.Fatalf("seed %d, %s: %s %v\nplan:\n%sgot  %s\nwant %s", seed, view, s.sql, s.params, s.p.Explain(1), got, want)
		}
	}
	gen := &stmtGen{r: rand.New(rand.NewSource(seed))}
	stmts := make([]*stmt, n)
	failures, nonEmpty := 0, 0
	for i := range stmts {
		s := &stmt{}
		s.sql, s.params = gen.statement()
		var err error
		if s.p, err = e.Prepare(s.sql, nil); err != nil {
			t.Fatalf("generated statement does not plan: %s: %v", s.sql, err)
		}
		stmts[i] = s
		wantW := outcome(e.oracleSelect(w, s.p, s.params))
		check(s, "writer view", w, wantW)
		s.wantSnap = outcome(e.oracleSelect(snap(), s.p, s.params))
		check(s, "snapshot", snap(), s.wantSnap)
		// One context for all n statements, reset between them like a
		// worker's between TEs. Each runs twice before the reset: the first
		// result must still read right after the second execution has taken
		// its memory from the same scratch, and nothing a reset took back may
		// show through in a later statement.
		first, err1 := e.Execute(reused, s.p, s.params...)
		check(s, "reused context, second execution", reused, s.wantSnap)
		if got := outcome(first, err1); got != s.wantSnap {
			t.Fatalf("seed %d, reused context: %s %v\nfirst result after a second execution reads %s\nwant %s", seed, s.sql, s.params, got, s.wantSnap)
		}
		reused.Reset()
		reused.ReadOnly, reused.Snapshot, reused.SnapshotSeq = true, true, pin.Seq()
		if strings.HasPrefix(wantW, "error") {
			failures++
		} else if wantW != "[]" {
			nonEmpty++
		}
	}
	if failures == 0 || failures > n/5 || nonEmpty < n/2 {
		t.Fatalf("generator is off: %d of %d statements fail, %d return rows", failures, n, nonEmpty)
	}
	overwriteOracleTables(t, e, w)
	clock.Publish()
	for _, name := range []string{"t", "u"} {
		e.Catalog().Relation(name).Table.GC(clock.Watermark())
	}
	evict()
	for _, s := range stmts {
		check(s, "snapshot, overwritten since", snap(), s.wantSnap)
		check(s, "writer view after the overwrite", w, outcome(e.oracleSelect(w, s.p, s.params)))
	}
}

// TestExecutorMatchesSliceReference is the differential test over three
// seeds, one of them with a third of the rows evicted.
func TestExecutorMatchesSliceReference(t *testing.T) {
	for _, c := range []struct {
		seed int64
		cold bool
	}{{1, false}, {2, false}, {3, true}} {
		t.Run(fmt.Sprintf("seed=%d,cold=%v", c.seed, c.cold), func(t *testing.T) {
			differential(t, c.seed, 2000, c.cold)
		})
	}
}
