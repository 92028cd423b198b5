package sql

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func mustParse(t *testing.T, s string) Statement {
	t.Helper()
	stmt, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return stmt
}

func TestParseSelectFull(t *testing.T) {
	stmt := mustParse(t, `
		SELECT c.id, COUNT(*) AS n, SUM(v.weight) total
		FROM contestants c
		JOIN votes v ON v.candidate = c.id
		WHERE c.active = TRUE AND v.ts BETWEEN 1 AND 100
		GROUP BY c.id
		HAVING COUNT(*) > 2
		ORDER BY n DESC, c.id
		LIMIT 3 OFFSET 1;`)
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("not a Select: %T", stmt)
	}
	if len(sel.Items) != 3 || sel.Items[1].Alias != "n" || sel.Items[2].Alias != "total" {
		t.Errorf("items: %+v", sel.Items)
	}
	if sel.From.Name != "contestants" || sel.From.Alias != "c" {
		t.Errorf("from: %+v", sel.From)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Table.Alias != "v" || sel.Joins[0].Left {
		t.Errorf("joins: %+v", sel.Joins)
	}
	if sel.Where == nil || sel.Having == nil || len(sel.GroupBy) != 1 {
		t.Error("missing clauses")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order: %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset lost")
	}
}

func TestParseSelectStarAndDistinct(t *testing.T) {
	sel := mustParse(t, "SELECT DISTINCT * FROM t").(*Select)
	if !sel.Distinct || !sel.Items[0].Star {
		t.Errorf("%+v", sel)
	}
	sel = mustParse(t, "SELECT t.* FROM t").(*Select)
	if !sel.Items[0].Star || sel.Items[0].Table != "t" {
		t.Errorf("%+v", sel.Items[0])
	}
	sel = mustParse(t, "SELECT a FROM x LEFT JOIN y ON x.id = y.id").(*Select)
	if len(sel.Joins) != 1 || !sel.Joins[0].Left {
		t.Errorf("left join: %+v", sel.Joins)
	}
	sel = mustParse(t, "SELECT a FROM x INNER JOIN y ON x.id = y.id").(*Select)
	if len(sel.Joins) != 1 || sel.Joins[0].Left {
		t.Errorf("inner join: %+v", sel.Joins)
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, "INSERT INTO votes (phone, candidate) VALUES (?, ?), (3, 4)").(*Insert)
	if ins.Table != "votes" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if p, ok := ins.Rows[0][0].(*Param); !ok || p.Index != 0 {
		t.Errorf("first param: %+v", ins.Rows[0][0])
	}
	if p, ok := ins.Rows[0][1].(*Param); !ok || p.Index != 1 {
		t.Errorf("second param: %+v", ins.Rows[0][1])
	}
	ins = mustParse(t, "INSERT INTO t SELECT a, b FROM s WHERE a > 0").(*Insert)
	if ins.Query == nil || ins.Rows != nil {
		t.Errorf("insert-select: %+v", ins)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := mustParse(t, "UPDATE contestants SET votes = votes + 1, name = ? WHERE id = ?").(*Update)
	if upd.Table != "contestants" || len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("%+v", upd)
	}
	del := mustParse(t, "DELETE FROM votes WHERE candidate = 3").(*Delete)
	if del.Table != "votes" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
	del = mustParse(t, "DELETE FROM votes").(*Delete)
	if del.Where != nil {
		t.Fatal("phantom where")
	}
}

func TestParseCreateTable(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE contestants (
		id INT PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		votes BIGINT DEFAULT 0,
		score FLOAT
	)`).(*CreateTable)
	if ct.Name != "contestants" || len(ct.Columns) != 4 {
		t.Fatalf("%+v", ct)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Errorf("pk: %v", ct.PrimaryKey)
	}
	if !ct.Columns[0].NotNull { // inline PRIMARY KEY implies NOT NULL
		t.Error("pk column should be NOT NULL")
	}
	if ct.Columns[2].Default == nil {
		t.Error("default lost")
	}
	ct = mustParse(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").(*CreateTable)
	if len(ct.PrimaryKey) != 2 {
		t.Errorf("composite pk: %v", ct.PrimaryKey)
	}
	ct = mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT)").(*CreateTable)
	if !ct.IfNotExists {
		t.Error("IF NOT EXISTS lost")
	}
}

func TestParseCreateStreamAndWindow(t *testing.T) {
	cs := mustParse(t, "CREATE STREAM votes_s (phone BIGINT, candidate INT, ts TIMESTAMP)").(*CreateStream)
	if cs.Name != "votes_s" || len(cs.Columns) != 3 {
		t.Fatalf("%+v", cs)
	}
	if _, err := Parse("CREATE STREAM s (a INT PRIMARY KEY)"); err == nil {
		t.Error("stream with pk accepted")
	}
	cw := mustParse(t, "CREATE WINDOW trending ON votes_s ROWS 100 SLIDE 1").(*CreateWindow)
	if !cw.Spec.Rows || cw.Spec.Size != 100 || cw.Spec.Slide != 1 {
		t.Fatalf("%+v", cw.Spec)
	}
	cw = mustParse(t, "CREATE WINDOW speed ON gps RANGE 60000000 SLIDE 1000000 TIMESTAMP ts").(*CreateWindow)
	if cw.Spec.Rows || cw.Spec.Size != 60000000 || cw.Spec.TimeCol != "ts" {
		t.Fatalf("%+v", cw.Spec)
	}
	if _, err := Parse("CREATE WINDOW w ON s ROWS 0"); err == nil {
		t.Error("zero-size window accepted")
	}
}

func TestParseCreateIndexTriggerDrop(t *testing.T) {
	ci := mustParse(t, "CREATE UNIQUE INDEX ux ON t (a, b)").(*CreateIndex)
	if !ci.Unique || ci.Table != "t" || len(ci.Columns) != 2 {
		t.Fatalf("%+v", ci)
	}
	// A trigger is declared only inside DEPLOY DATAFLOW.
	if _, err := Parse("CREATE TRIGGER t1 ON votes_s EXECUTE PROCEDURE count_votes"); err == nil ||
		!strings.Contains(err.Error(), "after CREATE") {
		t.Fatalf("CREATE TRIGGER ... EXECUTE PROCEDURE: err = %v", err)
	}
	dr := mustParse(t, "DROP TABLE IF EXISTS t").(*Drop)
	if dr.Kind != "TABLE" || !dr.IfExists {
		t.Fatalf("%+v", dr)
	}
	if dr := mustParse(t, "DROP TRIGGER t1").(*Drop); dr.Kind != "TRIGGER" || dr.Name != "t1" {
		t.Fatalf("%+v", dr)
	}
}

func TestParseExpressions(t *testing.T) {
	sel := mustParse(t, `SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END,
		a + b * c, -a, x IS NOT NULL, y IN (1, 2, 3), z NOT LIKE 'a%',
		COUNT(DISTINCT q) FROM t`).(*Select)
	if len(sel.Items) != 7 {
		t.Fatalf("%d items", len(sel.Items))
	}
	// precedence: a + (b*c)
	bin := sel.Items[1].Expr.(*Binary)
	if bin.Op != "+" {
		t.Errorf("precedence: %+v", bin)
	}
	if _, ok := bin.R.(*Binary); !ok {
		t.Errorf("b*c not nested: %+v", bin.R)
	}
	if u, ok := sel.Items[2].Expr.(*ColumnRef); ok {
		t.Errorf("-a should not be plain column: %+v", u)
	}
	isn := sel.Items[3].Expr.(*IsNull)
	if !isn.Negate {
		t.Error("IS NOT NULL lost negate")
	}
	in := sel.Items[4].Expr.(*InList)
	if len(in.List) != 3 || in.Negate {
		t.Errorf("%+v", in)
	}
	lk := sel.Items[5].Expr.(*Like)
	if !lk.Negate {
		t.Error("NOT LIKE lost negate")
	}
	fc := sel.Items[6].Expr.(*FuncCall)
	if !fc.Distinct || fc.Name != "COUNT" {
		t.Errorf("%+v", fc)
	}
}

func TestParseNegativeLiteralFolding(t *testing.T) {
	sel := mustParse(t, "SELECT -5, -2.5 FROM t").(*Select)
	if l := sel.Items[0].Expr.(*Literal); l.Value.Int() != -5 {
		t.Errorf("%+v", l)
	}
	if l := sel.Items[1].Expr.(*Literal); l.Value.Float() != -2.5 {
		t.Errorf("%+v", l)
	}
}

func TestParamNumbering(t *testing.T) {
	upd := mustParse(t, "UPDATE t SET a = ?, b = ? WHERE c = ?").(*Update)
	if upd.Set[0].Value.(*Param).Index != 0 ||
		upd.Set[1].Value.(*Param).Index != 1 ||
		upd.Where.(*Binary).R.(*Param).Index != 2 {
		t.Error("params misnumbered")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT FROM t", "SELECT a FROM", "FOO BAR",
		"INSERT votes VALUES (1)", "CREATE TABLE t", "SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP", "CREATE WINDOW w ON s", "SELECT a FROM t extra stuff ,",
		"UPDATE t SET", "DELETE FROM", "CREATE INDEX i ON t", "SELECT CASE END FROM t",
		"CREATE WINDOW w ON s RANGE 10", // missing TIMESTAMP col
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE a (x INT);
		CREATE STREAM s (y INT);
		INSERT INTO a VALUES (1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("%d statements", len(stmts))
	}
	if _, err := ParseScript("SELECT a FROM t SELECT b FROM t"); err == nil {
		t.Error("missing semicolon accepted")
	}
}

func TestWalkAndAggregateDetection(t *testing.T) {
	sel := mustParse(t, "SELECT a + SUM(b), c FROM t").(*Select)
	if !ContainsAggregate(sel.Items[0].Expr) {
		t.Error("aggregate not detected")
	}
	if ContainsAggregate(sel.Items[1].Expr) {
		t.Error("false aggregate")
	}
	n := 0
	WalkExpr(sel.Items[0].Expr, func(Expr) { n++ })
	if n != 4 { // binary, colref a, funccall, colref b
		t.Errorf("walk visited %d nodes", n)
	}
	if !IsAggregate("count") || IsAggregate("ABS") {
		t.Error("IsAggregate")
	}
}

func TestLiteralTypes(t *testing.T) {
	sel := mustParse(t, "SELECT NULL, TRUE, FALSE, 'x' FROM t").(*Select)
	wants := []types.Type{types.TypeNull, types.TypeBool, types.TypeBool, types.TypeString}
	for i, w := range wants {
		if got := sel.Items[i].Expr.(*Literal).Value.Type(); got != w {
			t.Errorf("item %d: %v want %v", i, got, w)
		}
	}
}

func TestParseDeployDataflow(t *testing.T) {
	stmt := mustParse(t, `
		DEPLOY DATAFLOW pipeline (
			NODE ingest INPUT ticks BATCH 10 EMITS (clean, rejects),
			NODE report INPUT clean BATCH 1,
			NODE oltp_entry,
			TRIGGER audit ON clean AS ('INSERT INTO log SELECT * FROM new', 'DELETE FROM scratch')
		);`)
	df, ok := stmt.(*DeployDataflow)
	if !ok {
		t.Fatalf("not a DeployDataflow: %T", stmt)
	}
	if df.Name != "pipeline" || len(df.Nodes) != 3 || len(df.Triggers) != 1 {
		t.Fatalf("graph shape: %+v", df)
	}
	n0 := df.Nodes[0]
	if n0.Proc != "ingest" || n0.Input != "ticks" || n0.Batch != 10 ||
		len(n0.Emits) != 2 || n0.Emits[0] != "clean" || n0.Emits[1] != "rejects" {
		t.Errorf("node 0: %+v", n0)
	}
	if n1 := df.Nodes[1]; n1.Proc != "report" || n1.Input != "clean" || n1.Batch != 1 || n1.Emits != nil {
		t.Errorf("node 1: %+v", n1)
	}
	if n2 := df.Nodes[2]; n2.Proc != "oltp_entry" || n2.Input != "" || n2.Batch != 0 {
		t.Errorf("node 2: %+v", n2)
	}
	tg := df.Triggers[0]
	if tg.Name != "audit" || tg.Relation != "clean" || len(tg.Bodies) != 2 ||
		tg.Bodies[0] != "INSERT INTO log SELECT * FROM new" || tg.Bodies[1] != "DELETE FROM scratch" {
		t.Errorf("trigger: %+v", tg)
	}

	// Soft keywords: lowercase statement parses, and the words stay usable
	// as plain identifiers elsewhere.
	lower := mustParse(t, "deploy dataflow g (node p input s batch 2)").(*DeployDataflow)
	if lower.Name != "g" || lower.Nodes[0].Batch != 2 {
		t.Errorf("lowercase form: %+v", lower)
	}
	sel := mustParse(t, "SELECT deploy, node, batch FROM dataflow WHERE input = emits").(*Select)
	if len(sel.Items) != 3 || sel.From.Name != "dataflow" {
		t.Errorf("soft keywords as identifiers: %+v", sel)
	}
}

func TestParseDeployDataflowErrors(t *testing.T) {
	bad := []string{
		"DEPLOY",
		"DEPLOY DATAFLOW",
		"DEPLOY DATAFLOW g",
		"DEPLOY DATAFLOW g ()",
		"DEPLOY DATAFLOW g (NODE)",
		"DEPLOY DATAFLOW g (NODE p INPUT s)",
		"DEPLOY DATAFLOW g (NODE p INPUT s BATCH)",
		"DEPLOY DATAFLOW g (NODE p INPUT s BATCH x)",
		"DEPLOY DATAFLOW g (NODE p EMITS ())",
		"DEPLOY DATAFLOW g (NODE p INPUT s BATCH 2,)",
		"DEPLOY DATAFLOW g (TRIGGER t ON r AS ())",
		"DEPLOY DATAFLOW g (TRIGGER t ON r AS ('x') extra)",
		"DEPLOY DATAFLOW g (TRIGGER t r AS ('x'))",
		"DEPLOY DATAFLOW g (WIDGET x)",
		"DEPLOY DATAFLOW g (NODE p) trailing",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}
