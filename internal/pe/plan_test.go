package pe

import (
	"testing"

	"repro/internal/types"
)

// TestProcedurePlanReplannedAfterDDL pins that a procedure's statements
// live in the partition's one plan cache, which DDL clears: after t is
// dropped and recreated with its columns in another order, the procedure's
// SELECT a must read a, not whatever column sits at a's old position.
func TestProcedurePlanReplannedAfterDDL(t *testing.T) {
	e := newTestPE(t, Config{}, `CREATE TABLE t (id INT PRIMARY KEY, a BIGINT, b BIGINT);`)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "get_a",
		Handler: func(ctx *ProcCtx) error {
			res, err := ctx.Exec("SELECT a FROM t WHERE id = ?", ctx.Params[0])
			ctx.SetResult(res)
			return err
		},
	}))
	must(t, e.Start())
	defer e.Stop()
	getA := func() int64 {
		t.Helper()
		res, err := e.Call("get_a", types.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		return res.Rows[0][0].Int()
	}

	if _, err := e.Exec("INSERT INTO t (id, a, b) VALUES (1, 10, 20)"); err != nil {
		t.Fatal(err)
	}
	if got := getA(); got != 10 {
		t.Fatalf("a = %d, want 10", got)
	}
	must(t, e.RunExclusive(func() error {
		return e.EE().ExecScript(`DROP TABLE t; CREATE TABLE t (id INT PRIMARY KEY, b BIGINT, a BIGINT);`)
	}))
	if _, err := e.Exec("INSERT INTO t (id, a, b) VALUES (1, 10, 20)"); err != nil {
		t.Fatal(err)
	}
	if got := getA(); got != 10 {
		t.Fatalf("a = %d after the table was recreated, want 10 (a plan from before the DDL read column b)", got)
	}
}
