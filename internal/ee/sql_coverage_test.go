package ee

import (
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestGroupByExpression(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (v INT)")
	ctx := freshCtx()
	for i := int64(0); i < 10; i++ {
		mustExec(t, e, ctx, "INSERT INTO t VALUES (?)", types.NewInt(i))
	}
	// Group by a computed expression, select the same expression.
	res := mustExec(t, e, ctx,
		"SELECT v % 3, COUNT(*) FROM t GROUP BY v % 3 ORDER BY v % 3")
	if len(res.Rows) != 3 || res.Rows[0][1].Int() != 4 { // 0,3,6,9
		t.Fatalf("group-by expr: %v", res.Rows)
	}
	// HAVING over the group expression.
	res = mustExec(t, e, ctx,
		"SELECT v % 3, COUNT(*) FROM t GROUP BY v % 3 HAVING v % 3 > 0 ORDER BY v % 3")
	if len(res.Rows) != 2 {
		t.Fatalf("having group expr: %v", res.Rows)
	}
}

func TestAggregatesOverGroupsWithDistinct(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (g INT, v INT)")
	ctx := freshCtx()
	vals := [][2]int64{{1, 5}, {1, 5}, {1, 7}, {2, 9}, {2, 9}}
	for _, p := range vals {
		mustExec(t, e, ctx, "INSERT INTO t VALUES (?, ?)", types.NewInt(p[0]), types.NewInt(p[1]))
	}
	res := mustExec(t, e, ctx,
		"SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v) FROM t GROUP BY g ORDER BY g")
	if res.Rows[0][1].Int() != 2 || res.Rows[0][2].Int() != 12 {
		t.Fatalf("distinct aggs g=1: %v", res.Rows)
	}
	if res.Rows[1][1].Int() != 1 || res.Rows[1][2].Int() != 9 {
		t.Fatalf("distinct aggs g=2: %v", res.Rows)
	}
}

// TestNaNsFormOneGroup: a FLOAT column holding two NaNs of different bits —
// strconv's, parsed from 'NaN', and the one x86 computes for inf - inf —
// holds one value, since every NaN compares equal: one group, one distinct
// value.
func TestNaNsFormOneGroup(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (f FLOAT, v INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES ('NaN', 1)")
	mustExec(t, e, ctx, "INSERT INTO t VALUES (?, 2)", types.NewFloat(math.Float64frombits(0xfff8000000000000)))
	mustExec(t, e, ctx, "INSERT INTO t VALUES (1.5, 3)")
	if res := mustExec(t, e, ctx, "SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f"); len(res.Rows) != 2 || res.Rows[0][1].Int() != 2 {
		t.Fatalf("GROUP BY over two NaNs and 1.5: %v", res.Rows)
	}
	if res := mustExec(t, e, ctx, "SELECT DISTINCT f FROM t"); len(res.Rows) != 2 {
		t.Fatalf("DISTINCT over two NaNs and 1.5: %v", res.Rows)
	}
	if res := mustExec(t, e, ctx, "SELECT COUNT(DISTINCT f) FROM t"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("COUNT(DISTINCT) over two NaNs and 1.5: %v", res.Rows)
	}
}

func TestInsertColumnSubsetAppliesDefaults(t *testing.T) {
	e := newTestEngine(t, `CREATE TABLE t (
		id INT PRIMARY KEY, a BIGINT DEFAULT 7, b VARCHAR, c BOOLEAN DEFAULT TRUE)`)
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t (id) VALUES (1)")
	mustExec(t, e, ctx, "INSERT INTO t (id, b) VALUES (2, 'x')")
	res := mustExec(t, e, ctx, "SELECT a, b, c FROM t WHERE id = 1")
	r := res.Rows[0]
	if r[0].Int() != 7 || !r[1].IsNull() || !r[2].Bool() {
		t.Fatalf("defaults: %v", r)
	}
}

func TestStringConcatAndCaseOperand(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (a VARCHAR, b INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES ('x', 1), ('y', 2), ('z', 3)")
	res := mustExec(t, e, ctx, "SELECT a || '-' || a FROM t WHERE b = 1")
	if res.Rows[0][0].Str() != "x-x" {
		t.Fatalf("concat: %v", res.Rows)
	}
	// Simple (operand) CASE form.
	res = mustExec(t, e, ctx,
		"SELECT CASE b WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END FROM t ORDER BY b")
	if res.Rows[0][0].Str() != "one" || res.Rows[1][0].Str() != "two" || res.Rows[2][0].Str() != "many" {
		t.Fatalf("case operand: %v", res.Rows)
	}
}

func TestOrderByExpressionAndMultiKey(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (a INT, b INT)")
	ctx := freshCtx()
	for _, p := range [][2]int64{{1, 3}, {1, 1}, {2, 2}, {2, 9}} {
		mustExec(t, e, ctx, "INSERT INTO t VALUES (?, ?)", types.NewInt(p[0]), types.NewInt(p[1]))
	}
	res := mustExec(t, e, ctx, "SELECT a, b FROM t ORDER BY a DESC, b * -1")
	want := [][2]int64{{2, 9}, {2, 2}, {1, 3}, {1, 1}}
	for i, w := range want {
		if res.Rows[i][0].Int() != w[0] || res.Rows[i][1].Int() != w[1] {
			t.Fatalf("multi-key order: %v", res.Rows)
		}
	}
}

func TestLikeEdgeCases(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (s VARCHAR)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES (''), ('a'), ('ab'), ('ba'), ('aXb')")
	cases := []struct {
		pat  string
		want int64
	}{
		{"%", 5}, {"", 1}, {"a%", 3}, {"%b", 2}, {"a_b", 1}, {"_", 1}, {"%a%", 4},
	}
	for _, c := range cases {
		res := mustExec(t, e, ctx, "SELECT COUNT(*) FROM t WHERE s LIKE '"+c.pat+"'")
		if got := res.Rows[0][0].Int(); got != c.want {
			t.Errorf("LIKE %q = %d, want %d", c.pat, got, c.want)
		}
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE n (id INT PRIMARY KEY, parent INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO n VALUES (1, NULL), (2, 1), (3, 1), (4, 2)")
	res := mustExec(t, e, ctx, `
		SELECT child.id, parent.id FROM n child
		JOIN n parent ON parent.id = child.parent
		ORDER BY child.id`)
	if len(res.Rows) != 3 || res.Rows[2][0].Int() != 4 || res.Rows[2][1].Int() != 2 {
		t.Fatalf("self join: %v", res.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newTestEngine(t, `
		CREATE TABLE a (id INT PRIMARY KEY);
		CREATE TABLE b (id INT PRIMARY KEY, aid INT);
		CREATE TABLE c (id INT PRIMARY KEY, bid INT);
	`)
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, e, ctx, "INSERT INTO b VALUES (10, 1), (20, 2)")
	mustExec(t, e, ctx, "INSERT INTO c VALUES (100, 10), (200, 20), (300, 10)")
	res := mustExec(t, e, ctx, `
		SELECT a.id, c.id FROM a
		JOIN b ON b.aid = a.id
		JOIN c ON c.bid = b.id
		WHERE a.id = 1 ORDER BY c.id`)
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 100 || res.Rows[1][1].Int() != 300 {
		t.Fatalf("three-way join: %v", res.Rows)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	e := newTestEngine(t, `
		CREATE TABLE x (v INT);
		CREATE TABLE y (v INT);
	`)
	_, err := e.Prepare("SELECT v FROM x JOIN y ON x.v = y.v", nil)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column: %v", err)
	}
}

func TestUpdateViaIndexPath(t *testing.T) {
	e := newTestEngine(t, demoSchema)
	ctx := freshCtx()
	seedDemo(t, e, ctx)
	p, err := e.Prepare("UPDATE votes SET ts = 0 WHERE phone = ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.upd.access.index == nil {
		t.Fatal("update should probe the pk index")
	}
	res, err := e.Execute(ctx, p, types.NewInt(105))
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
}

func TestCoerceOnInsertAndParams(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (a BIGINT, b FLOAT, c VARCHAR)")
	ctx := freshCtx()
	// Strings coerce to declared types.
	mustExec(t, e, ctx, "INSERT INTO t VALUES ('42', '2.5', 99)")
	res := mustExec(t, e, ctx, "SELECT a, b, c FROM t")
	r := res.Rows[0]
	if r[0].Int() != 42 || r[1].Float() != 2.5 || r[2].Str() != "99" {
		t.Fatalf("coercions: %v", r)
	}
	if _, err := e.ExecSQL(ctx, "INSERT INTO t VALUES ('nope', 0, '')"); err == nil {
		t.Fatal("bad coercion accepted")
	}
}

func TestLimitZeroAndNegative(t *testing.T) {
	e := newTestEngine(t, "CREATE TABLE t (v INT)")
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO t VALUES (1), (2)")
	if n := len(mustExec(t, e, ctx, "SELECT v FROM t LIMIT 0").Rows); n != 0 {
		t.Fatalf("limit 0: %d rows", n)
	}
	if _, err := e.ExecSQL(ctx, "SELECT v FROM t LIMIT ?", types.NewInt(-1)); err == nil {
		t.Fatal("negative limit accepted")
	}
	if n := len(mustExec(t, e, ctx, "SELECT v FROM t OFFSET 5").Rows); n != 0 {
		t.Fatalf("offset beyond end: %d rows", n)
	}
}
