// Package ee is the execution engine: it plans SQL statements against the
// catalog, evaluates expressions, runs physical operators, maintains
// windows natively, and fires EE (query-level) triggers inside the running
// transaction. It corresponds to the lower layer of the paper's two-layer
// architecture (Fig. 1); the partition engine sits above it.
package ee

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// evalCtx carries the per-row evaluation state: the (possibly concatenated)
// input row, the statement parameters, and the materialized results of the
// statement's uncorrelated subqueries.
type evalCtx struct {
	row    types.Row
	params []types.Value
	subs   []subResult
}

// subResult is one materialized IN-subquery: its distinct non-NULL values
// in first-seen order, which is also what the access path that drives from
// the set walks, and whether the result contained NULL (three-valued IN
// semantics need to know). A set of a handful of values, a window slide's
// delta, is probed by walking the list; vals is built when it outgrows that.
type subResult struct {
	list    []types.Value
	vals    map[uint64][]types.Value
	hasNull bool
}

func (s *subResult) contains(v types.Value) bool {
	cands := s.list
	if s.vals != nil {
		cands = s.vals[v.Hash()]
	}
	for _, cand := range cands {
		if cand.Compare(v) == 0 {
			return true
		}
	}
	return false
}

// add puts one subquery output value into the set; the list grows in mem.
func (s *subResult) add(mem *scratch, v types.Value) {
	if v.IsNull() {
		s.hasNull = true
		return
	}
	if s.contains(v) {
		return
	}
	s.list = mem.vals.push(s.list, v)
	switch {
	case s.vals != nil:
		s.vals[v.Hash()] = append(s.vals[v.Hash()], v)
	case len(s.list) > subSetLinear:
		s.vals = make(map[uint64][]types.Value, 2*len(s.list))
		for _, lv := range s.list {
			s.vals[lv.Hash()] = append(s.vals[lv.Hash()], lv)
		}
	}
}

// compiled is an expression compiled against a scope: column references are
// resolved to row slots, so evaluation is allocation-light.
type compiled interface {
	eval(ec *evalCtx) (types.Value, error)
}

// ---------- scope: name resolution ----------

type scopeTable struct {
	qualifier string // lowercased alias or relation name
	schema    *types.Schema
	offset    int // slot of this table's first column in the joined row
}

type scope struct {
	tables []scopeTable
}

func (s *scope) width() int {
	n := 0
	for _, t := range s.tables {
		n += t.schema.NumColumns()
	}
	return n
}

func (s *scope) add(qualifier string, schema *types.Schema) {
	s.tables = append(s.tables, scopeTable{
		qualifier: strings.ToLower(qualifier),
		schema:    schema,
		offset:    s.width(),
	})
}

// resolve maps a (qualifier, column) pair to the slot in the joined row.
func (s *scope) resolve(qualifier, column string) (int, types.Type, error) {
	q := strings.ToLower(qualifier)
	found := -1
	var typ types.Type
	for _, t := range s.tables {
		if q != "" && t.qualifier != q {
			continue
		}
		if i := t.schema.ColumnIndex(column); i >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("ee: column %q is ambiguous", column)
			}
			found = t.offset + i
			typ = t.schema.Column(i).Type
		}
	}
	if found < 0 {
		if q != "" {
			return 0, 0, fmt.Errorf("ee: unknown column %s.%s", qualifier, column)
		}
		return 0, 0, fmt.Errorf("ee: unknown column %q", column)
	}
	return found, typ, nil
}

// ---------- compiled nodes ----------

type litExpr struct{ v types.Value }

func (e litExpr) eval(*evalCtx) (types.Value, error) { return e.v, nil }

type colExpr struct{ slot int }

func (e colExpr) eval(ec *evalCtx) (types.Value, error) { return ec.row[e.slot], nil }

type paramExpr struct{ idx int }

func (e paramExpr) eval(ec *evalCtx) (types.Value, error) {
	if e.idx >= len(ec.params) {
		return types.Null, fmt.Errorf("ee: statement requires at least %d parameters, got %d", e.idx+1, len(ec.params))
	}
	return ec.params[e.idx], nil
}

type notExpr struct{ x compiled }

func (e notExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	b, err := types.Coerce(v, types.TypeBool)
	if err != nil {
		return types.Null, fmt.Errorf("ee: NOT applied to %s", v.Type())
	}
	return types.NewBool(!b.Bool()), nil
}

type negExpr struct{ x compiled }

func (e negExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	switch v.Type() {
	case types.TypeInt:
		return types.NewInt(-v.Int()), nil
	case types.TypeFloat:
		return types.NewFloat(-v.Float()), nil
	default:
		return types.Null, fmt.Errorf("ee: unary minus applied to %s", v.Type())
	}
}

type binExpr struct {
	op   string
	l, r compiled
}

func (e binExpr) eval(ec *evalCtx) (types.Value, error) {
	switch e.op {
	case "AND", "OR":
		return e.evalLogical(ec)
	}
	l, err := e.l.eval(ec)
	if err != nil {
		return types.Null, err
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return types.Null, err
	}
	switch e.op {
	case "+", "-", "*", "/", "%":
		return evalArith(e.op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		ls, _ := types.Coerce(l, types.TypeString)
		rs, _ := types.Coerce(r, types.TypeString)
		return types.NewString(ls.Str() + rs.Str()), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		c := l.Compare(r)
		var b bool
		switch e.op {
		case "=":
			b = c == 0
		case "!=":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return types.NewBool(b), nil
	}
	return types.Null, fmt.Errorf("ee: unknown operator %q", e.op)
}

// evalLogical implements Kleene three-valued AND/OR with short-circuiting.
func (e binExpr) evalLogical(ec *evalCtx) (types.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if e.op == "AND" {
		if !l.IsNull() && !l.IsTrue() {
			return types.NewBool(false), nil
		}
	} else {
		if l.IsTrue() {
			return types.NewBool(true), nil
		}
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if e.op == "AND" {
		switch {
		case !r.IsNull() && !r.IsTrue():
			return types.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return types.Null, nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case r.IsTrue():
		return types.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return types.Null, nil
	default:
		return types.NewBool(false), nil
	}
}

func evalArith(op string, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	if !l.IsNumeric() && l.Type() != types.TypeTimestamp {
		return types.Null, fmt.Errorf("ee: arithmetic on %s", l.Type())
	}
	if !r.IsNumeric() && r.Type() != types.TypeTimestamp {
		return types.Null, fmt.Errorf("ee: arithmetic on %s", r.Type())
	}
	useFloat := l.Type() == types.TypeFloat || r.Type() == types.TypeFloat
	if useFloat {
		a, b := l.Float(), r.Float()
		switch op {
		case "+":
			return types.NewFloat(a + b), nil
		case "-":
			return types.NewFloat(a - b), nil
		case "*":
			return types.NewFloat(a * b), nil
		case "/":
			if b == 0 {
				return types.Null, fmt.Errorf("ee: division by zero")
			}
			return types.NewFloat(a / b), nil
		case "%":
			if int64(b) == 0 {
				// Catches both a true zero and a fractional divisor truncating
				// to zero, which would panic the integer modulus below.
				return types.Null, fmt.Errorf("ee: division by zero")
			}
			return types.NewInt(int64(a) % int64(b)), nil
		}
	}
	a, b := l.Int(), r.Int()
	switch op {
	case "+":
		return types.NewInt(a + b), nil
	case "-":
		return types.NewInt(a - b), nil
	case "*":
		return types.NewInt(a * b), nil
	case "/":
		if b == 0 {
			return types.Null, fmt.Errorf("ee: division by zero")
		}
		return types.NewInt(a / b), nil
	case "%":
		if b == 0 {
			return types.Null, fmt.Errorf("ee: division by zero")
		}
		return types.NewInt(a % b), nil
	}
	return types.Null, fmt.Errorf("ee: unknown arithmetic operator %q", op)
}

type isNullExpr struct {
	x      compiled
	negate bool
}

func (e isNullExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != e.negate), nil
}

type inExpr struct {
	x      compiled
	list   []compiled
	negate bool
}

func (e inExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	for _, item := range e.list {
		iv, err := item.eval(ec)
		if err != nil {
			return types.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if v.Compare(iv) == 0 {
			return types.NewBool(!e.negate), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(e.negate), nil
}

// inSubExpr is x [NOT] IN (SELECT ...); the subquery result was
// materialized into ec.subs[idx] before row evaluation began.
type inSubExpr struct {
	x      compiled
	idx    int
	negate bool
}

func (e inSubExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	if e.idx >= len(ec.subs) {
		return types.Null, fmt.Errorf("ee: internal: subquery %d not materialized", e.idx)
	}
	sub := &ec.subs[e.idx]
	if sub.contains(v) {
		return types.NewBool(!e.negate), nil
	}
	if sub.hasNull {
		return types.Null, nil
	}
	return types.NewBool(e.negate), nil
}

type betweenExpr struct {
	x, lo, hi compiled
	negate    bool
}

func (e betweenExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil {
		return types.Null, err
	}
	lo, err := e.lo.eval(ec)
	if err != nil {
		return types.Null, err
	}
	hi, err := e.hi.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.Null, nil
	}
	in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
	return types.NewBool(in != e.negate), nil
}

type likeExpr struct {
	x, pattern compiled
	negate     bool
}

func (e likeExpr) eval(ec *evalCtx) (types.Value, error) {
	v, err := e.x.eval(ec)
	if err != nil {
		return types.Null, err
	}
	p, err := e.pattern.eval(ec)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return types.Null, nil
	}
	vs, err := types.Coerce(v, types.TypeString)
	if err != nil {
		return types.Null, err
	}
	ps, err := types.Coerce(p, types.TypeString)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(likeMatch(vs.Str(), ps.Str()) != e.negate), nil
}

// likeMatch implements SQL LIKE with '%' (any run) and '_' (any single
// character) using an iterative two-pointer match with backtracking.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

type caseExpr struct {
	operand compiled // nil for searched CASE
	whens   []compiledWhen
	els     compiled // nil -> NULL
}

type compiledWhen struct{ cond, result compiled }

func (e caseExpr) eval(ec *evalCtx) (types.Value, error) {
	var opv types.Value
	if e.operand != nil {
		var err error
		opv, err = e.operand.eval(ec)
		if err != nil {
			return types.Null, err
		}
	}
	for _, w := range e.whens {
		cv, err := w.cond.eval(ec)
		if err != nil {
			return types.Null, err
		}
		matched := false
		if e.operand != nil {
			matched = !opv.IsNull() && !cv.IsNull() && opv.Compare(cv) == 0
		} else {
			matched = cv.IsTrue()
		}
		if matched {
			return w.result.eval(ec)
		}
	}
	if e.els != nil {
		return e.els.eval(ec)
	}
	return types.Null, nil
}

// funcExpr evaluates scalar (non-aggregate) builtin functions.
type funcExpr struct {
	name string
	args []compiled
}

func (e funcExpr) eval(ec *evalCtx) (types.Value, error) {
	vals := make([]types.Value, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(ec)
		if err != nil {
			return types.Null, err
		}
		vals[i] = v
	}
	switch e.name {
	case "ABS":
		v := vals[0]
		if v.IsNull() {
			return types.Null, nil
		}
		switch v.Type() {
		case types.TypeInt:
			if v.Int() < 0 {
				return types.NewInt(-v.Int()), nil
			}
			return v, nil
		case types.TypeFloat:
			if v.Float() < 0 {
				return types.NewFloat(-v.Float()), nil
			}
			return v, nil
		}
		return types.Null, fmt.Errorf("ee: ABS on %s", v.Type())
	case "COALESCE":
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	case "LENGTH":
		if vals[0].IsNull() {
			return types.Null, nil
		}
		s, err := types.Coerce(vals[0], types.TypeString)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(len(s.Str()))), nil
	case "UPPER", "LOWER":
		if vals[0].IsNull() {
			return types.Null, nil
		}
		s, err := types.Coerce(vals[0], types.TypeString)
		if err != nil {
			return types.Null, err
		}
		if e.name == "UPPER" {
			return types.NewString(strings.ToUpper(s.Str())), nil
		}
		return types.NewString(strings.ToLower(s.Str())), nil
	case "SQRT":
		if vals[0].IsNull() {
			return types.Null, nil
		}
		f := vals[0].Float()
		if f < 0 {
			return types.Null, fmt.Errorf("ee: SQRT of negative value")
		}
		return types.NewFloat(sqrt(f)), nil
	}
	return types.Null, fmt.Errorf("ee: unknown function %q", e.name)
}

// sqrt via Newton's method keeps the package free of math imports in the
// hot path; converges in <8 iterations for the magnitudes we store.
func sqrt(x float64) float64 {
	if x == 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		nz := (z + x/z) / 2
		if diff := nz - z; diff < 1e-12 && diff > -1e-12 {
			return nz
		}
		z = nz
	}
	return z
}

// slotExpr reads a precomputed slot of the post-aggregation virtual row.
type slotExpr struct{ slot int }

func (e slotExpr) eval(ec *evalCtx) (types.Value, error) { return ec.row[e.slot], nil }

// ---------- compilation ----------

// exprCompiler compiles sql.Expr trees against a scope. When aggSlots is
// non-nil the compiler is in post-aggregation mode: aggregate calls and
// GROUP BY expressions resolve to slots of the virtual group row and any
// other column reference is rejected. subplan, when non-nil, plans an
// uncorrelated IN-subquery and returns its materialization slot.
type exprCompiler struct {
	scope    *scope
	aggSlots map[sql.Expr]int // aggregate FuncCall node -> slot
	groupBy  []sql.Expr       // GROUP BY expressions (slot = position)
	subplan  func(*sql.Select) (int, error)
}

func (c *exprCompiler) compile(e sql.Expr) (compiled, error) {
	if c.aggSlots != nil {
		// Whole-expression match against GROUP BY entries.
		for i, g := range c.groupBy {
			if exprEqual(e, g) {
				return slotExpr{slot: i}, nil
			}
		}
		if fc, ok := e.(*sql.FuncCall); ok && sql.IsAggregate(fc.Name) {
			slot, ok := c.aggSlots[e]
			if !ok {
				return nil, fmt.Errorf("ee: internal: aggregate %s not collected", fc.Name)
			}
			return slotExpr{slot: slot}, nil
		}
	}
	switch x := e.(type) {
	case *sql.Literal:
		return litExpr{v: x.Value}, nil
	case *sql.ColumnRef:
		if c.aggSlots != nil {
			return nil, fmt.Errorf("ee: column %q must appear in GROUP BY or inside an aggregate", x.Column)
		}
		slot, _, err := c.scope.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return colExpr{slot: slot}, nil
	case *sql.Param:
		return paramExpr{idx: x.Index}, nil
	case *sql.Unary:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return notExpr{x: sub}, nil
		}
		return negExpr{x: sub}, nil
	case *sql.Binary:
		l, err := c.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(x.R)
		if err != nil {
			return nil, err
		}
		return binExpr{op: x.Op, l: l, r: r}, nil
	case *sql.IsNull:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		return isNullExpr{x: sub, negate: x.Negate}, nil
	case *sql.InList:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]compiled, len(x.List))
		for i, it := range x.List {
			if list[i], err = c.compile(it); err != nil {
				return nil, err
			}
		}
		return inExpr{x: sub, list: list, negate: x.Negate}, nil
	case *sql.InSubquery:
		if c.subplan == nil {
			return nil, fmt.Errorf("ee: subquery not allowed in this context")
		}
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := c.subplan(x.Query)
		if err != nil {
			return nil, err
		}
		return inSubExpr{x: sub, idx: idx, negate: x.Negate}, nil
	case *sql.Between:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		return betweenExpr{x: sub, lo: lo, hi: hi, negate: x.Negate}, nil
	case *sql.Like:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		pat, err := c.compile(x.Pattern)
		if err != nil {
			return nil, err
		}
		return likeExpr{x: sub, pattern: pat, negate: x.Negate}, nil
	case *sql.FuncCall:
		if sql.IsAggregate(x.Name) {
			return nil, fmt.Errorf("ee: aggregate %s not allowed here", x.Name)
		}
		args := make([]compiled, len(x.Args))
		var err error
		for i, a := range x.Args {
			if args[i], err = c.compile(a); err != nil {
				return nil, err
			}
		}
		if err := checkArity(x.Name, len(args)); err != nil {
			return nil, err
		}
		return funcExpr{name: x.Name, args: args}, nil
	case *sql.CaseExpr:
		ce := caseExpr{}
		var err error
		if x.Operand != nil {
			if ce.operand, err = c.compile(x.Operand); err != nil {
				return nil, err
			}
		}
		for _, w := range x.Whens {
			cond, err := c.compile(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := c.compile(w.Result)
			if err != nil {
				return nil, err
			}
			ce.whens = append(ce.whens, compiledWhen{cond: cond, result: res})
		}
		if x.Else != nil {
			if ce.els, err = c.compile(x.Else); err != nil {
				return nil, err
			}
		}
		return ce, nil
	}
	return nil, fmt.Errorf("ee: cannot compile expression %T", e)
}

func checkArity(name string, n int) error {
	want := map[string][2]int{
		"ABS": {1, 1}, "LENGTH": {1, 1}, "UPPER": {1, 1}, "LOWER": {1, 1},
		"SQRT": {1, 1}, "COALESCE": {1, 64},
	}
	w, ok := want[name]
	if !ok {
		return fmt.Errorf("ee: unknown function %q", name)
	}
	if n < w[0] || n > w[1] {
		return fmt.Errorf("ee: %s expects %d..%d arguments, got %d", name, w[0], w[1], n)
	}
	return nil
}

// exprEqual reports structural equality of two expressions (used to match
// select-list expressions against GROUP BY entries).
func exprEqual(a, b sql.Expr) bool {
	switch x := a.(type) {
	case *sql.Literal:
		y, ok := b.(*sql.Literal)
		return ok && x.Value.Equal(y.Value) && x.Value.Type() == y.Value.Type()
	case *sql.ColumnRef:
		y, ok := b.(*sql.ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Column, y.Column)
	case *sql.Param:
		y, ok := b.(*sql.Param)
		return ok && x.Index == y.Index
	case *sql.Unary:
		y, ok := b.(*sql.Unary)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *sql.Binary:
		y, ok := b.(*sql.Binary)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *sql.FuncCall:
		y, ok := b.(*sql.FuncCall)
		if !ok || !strings.EqualFold(x.Name, y.Name) || x.Star != y.Star || x.Distinct != y.Distinct || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}
