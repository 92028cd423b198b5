package pe

import (
	"fmt"
	"testing"

	"repro/internal/ee"
	"repro/internal/types"
)

// Lifetime tests for the worker's TE-scoped memory (DESIGN.md §1.6.3):
// whatever leaves the worker is copied out at a door, so it reads the same
// after the worker has reused the memory it came from. Each test makes the
// reuse happen (further TEs run, the worker drained) before it looks, so
// the verdict does not depend on timing; under -race a read of memory the
// worker still owns is reported as well.

const lifetimeDDL = `
	CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR);
	CREATE TABLE sink (k INT PRIMARY KEY, v VARCHAR);
	CREATE STREAM in_s (k INT, v VARCHAR);
	CREATE STREAM mid_s (k INT, v VARCHAR);
	CREATE STREAM noise_s (k INT, v VARCHAR);
`

func lifetimeEngine(t *testing.T, cfg Config, logger Logger) *Engine {
	t.Helper()
	e := newTestPE(t, cfg, lifetimeDDL)
	if logger != nil {
		e.SetLogger(logger, LogBorderOnly)
	}
	// read returns the result of its own query: rows in the TE's memory.
	must(t, e.RegisterProcedure(&Procedure{Name: "read", Handler: func(ctx *ProcCtx) error {
		res, err := ctx.Query("SELECT k, v FROM t WHERE k <= ? ORDER BY k", ctx.Params[0])
		ctx.SetResult(res)
		return err
	}}))
	// churn fills the TE's memory with other rows, other results and an
	// emission of its own.
	must(t, e.RegisterProcedure(&Procedure{Name: "churn", Handler: func(ctx *ProcCtx) error {
		for i := 0; i < 4; i++ {
			if _, err := ctx.Query("SELECT v, k FROM t WHERE k >= 100 ORDER BY k DESC"); err != nil {
				return err
			}
		}
		return ctx.Emit("noise_s", types.Row{types.NewInt(-1), types.NewString("noise")}, types.Row{types.NewInt(-2), types.NewString("noise")})
	}}))
	// flood emits 10 000 tuples in one TE.
	must(t, e.RegisterProcedure(&Procedure{Name: "flood", Handler: func(ctx *ProcCtx) error {
		rows := make([]types.Row, 10_000)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("x")}
		}
		return ctx.Emit("noise_s", rows...)
	}}))
	must(t, e.RegisterProcedure(&Procedure{Name: "sp_noise", Handler: func(*ProcCtx) error { return nil }}))
	must(t, e.RegisterProcedure(&Procedure{Name: "sp_in", Handler: func(ctx *ProcCtx) error {
		return ctx.Emit("mid_s", ctx.Batch...)
	}}))
	// sp_mid records the batch it was handed.
	must(t, e.RegisterProcedure(&Procedure{Name: "sp_mid", Handler: func(ctx *ProcCtx) error {
		for _, r := range ctx.Batch {
			if _, err := ctx.Exec("INSERT INTO sink VALUES (?, ?)", r[0], r[1]); err != nil {
				return err
			}
		}
		return nil
	}}))
	// Three graphs, so a pause of g catches sp_in's chain at sp_mid while
	// everything else keeps running.
	must(t, e.BindStream("src", "in_s", "sp_in", 2))
	must(t, e.BindStream("g", "mid_s", "sp_mid", 2))
	must(t, e.BindStream("noise", "noise_s", "sp_noise", 2))
	// Seeded before Start, straight into storage: an ad-hoc Exec is a logged
	// commit, and a held logger would never acknowledge it.
	var seed []types.Row
	for k := int64(1); k <= 3; k++ {
		seed = append(seed, types.Row{types.NewInt(k), types.NewString(fmt.Sprintf("row-%d", k))})
	}
	for k := int64(100); k < 140; k++ {
		seed = append(seed, types.Row{types.NewInt(k), types.NewString("other")})
	}
	_, err := e.ee.InsertRows(&ee.ExecCtx{}, "t", seed)
	must(t, err)
	must(t, e.Start())
	t.Cleanup(e.Stop)
	return e
}

func exec(t *testing.T, e *Engine, q string, params ...types.Value) *Result {
	t.Helper()
	res, err := e.Exec(q, params...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func rowsString(rows []types.Row) string { return fmt.Sprint(rows) }

const wantRead = "[(1, row-1) (2, row-2) (3, row-3)]"

// TestSetResultSurvivesLaterTEs: a procedure hands SetResult the *Result of
// its own query; under group commit the ack is released only after further
// TEs have committed on the same worker (the logger holds every future:
// what wal's sync hook does to an fsync), and the caller still reads the
// rows the procedure selected.
func TestSetResultSurvivesLaterTEs(t *testing.T) {
	logger := &heldLogger{}
	e := lifetimeEngine(t, Config{}, logger)

	first := e.CallAsync("read", types.NewInt(3))
	var later []<-chan CallResult
	for i := 0; i < 8; i++ {
		later = append(later, e.CallAsync("churn"))
	}
	e.Drain() // all nine have executed and committed; none is acknowledged
	select {
	case cr := <-first:
		t.Fatalf("acknowledged before its commit future resolved: %+v", cr)
	default:
	}
	must(t, logger.SyncCommits())
	cr := <-first
	if cr.Err != nil {
		t.Fatal(cr.Err)
	}
	if got := rowsString(cr.Result.Rows); got != wantRead {
		t.Fatalf("rows after 8 later TEs: %s\nwant %s", got, wantRead)
	}
	for _, ch := range later {
		if cr := <-ch; cr.Err != nil {
			t.Fatal(cr.Err)
		}
	}
}

// TestAdHocExecResultSurvivesLaterTEs: the response of an ad-hoc Exec, of a
// SELECT and of an UPDATE, is the caller's: it reads the same after the
// worker has run a burst of border batches through the memory it was built
// in, and concurrently with one.
func TestAdHocExecResultSurvivesLaterTEs(t *testing.T) {
	e := lifetimeEngine(t, Config{}, nil)
	burst := func(base int64) {
		for i := int64(0); i < 64; i++ {
			must(t, e.Ingest("in_s", types.Row{types.NewInt(base + i), types.NewString("burst")}))
		}
	}
	sel := exec(t, e, "SELECT k, v FROM t WHERE k <= 3 ORDER BY k")
	upd := exec(t, e, "UPDATE t SET v = v WHERE k <= 3")
	burst(1000)
	e.Drain()
	if got := rowsString(sel.Rows); got != wantRead || upd.RowsAffected != 3 {
		t.Fatalf("after a burst: SELECT reads %s, UPDATE affected %d\nwant %s and 3", got, upd.RowsAffected, wantRead)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		burst(2000)
	}()
	for i := 0; i < 50; i++ {
		if got := rowsString(exec(t, e, "SELECT k, v FROM t WHERE k <= 3 ORDER BY k").Rows); got != wantRead {
			t.Errorf("during a burst: SELECT reads %s", got)
		}
		if n := exec(t, e, "UPDATE t SET v = v WHERE k <= 3").RowsAffected; n != 3 {
			t.Errorf("during a burst: UPDATE affected %d", n)
		}
	}
	<-done
	e.Drain()
}

// TestEmittedBatchSurvivesInterveningTE: the pause gate defers the
// consumer of an emitted batch, and unrelated TEs — with emissions and
// triggered executions of their own, on requests the worker recycles — run
// before resume lets it execute. The consumer still gets the rows that were
// emitted, and the ids it garbage-collects are still theirs.
func TestEmittedBatchSurvivesInterveningTE(t *testing.T) {
	e := lifetimeEngine(t, Config{}, nil)
	e.PauseGraph("g")
	must(t, e.Ingest("in_s",
		types.Row{types.NewInt(7), types.NewString("seven")},
		types.Row{types.NewInt(8), types.NewString("eight")}))
	for i := 0; i < 8; i++ {
		if _, err := e.Call("churn"); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if _, deferred := e.Held("g"); deferred != 1 {
		t.Fatalf("%d executions deferred, want sp_mid's one", deferred)
	}
	if got := rowsString(exec(t, e, "SELECT k, v FROM sink ORDER BY k").Rows); got != "[]" {
		t.Fatalf("sp_mid ran behind a closed gate: sink holds %s", got)
	}
	must(t, e.ResumeGraph("g"))
	e.Drain()
	if got := rowsString(exec(t, e, "SELECT k, v FROM sink ORDER BY k").Rows); got != "[(7, seven) (8, eight)]" {
		t.Fatalf("sp_mid was handed %s", got)
	}
	for _, stream := range []string{"in_s", "mid_s", "noise_s"} {
		res, err := e.Query("SELECT COUNT(*) FROM " + stream)
		must(t, err)
		if n := res.Rows[0][0].Int(); n != 0 {
			t.Fatalf("%d consumed tuples left in %s: the ids to collect were not the batch's", n, stream)
		}
	}
}

// TestWorkerBuffersShedABulkTE: after one TE that emits 10 000 tuples (and
// the TE that consumes them), the buffers the worker reuses from TE to TE
// are back under their cap, and the executions after it still work.
func TestWorkerBuffersShedABulkTE(t *testing.T) {
	e := lifetimeEngine(t, Config{}, nil)
	if _, err := e.Call("flood"); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if _, err := e.Call("churn"); err != nil { // the next TE's reset sheds what flood left
		t.Fatal(err)
	}
	e.Drain()
	must(t, e.RunExclusive(func() error {
		for _, em := range e.emits[:cap(e.emits)] {
			if cap(em.rows) > teRetain || cap(em.ids) > teRetain {
				return fmt.Errorf("an emission buffer keeps %d rows / %d ids, cap %d", cap(em.rows), cap(em.ids), teRetain)
			}
		}
		if len(e.freeReqs) == 0 {
			return fmt.Errorf("no triggered request was recycled")
		}
		for _, r := range e.freeReqs {
			if cap(r.batch) > teRetain || cap(r.gcIDs) > teRetain || len(r.batch) != 0 {
				return fmt.Errorf("a recycled request keeps a batch of %d (len %d) / %d ids, cap %d", cap(r.batch), len(r.batch), cap(r.gcIDs), teRetain)
			}
		}
		return nil
	}))
	res, err := e.Query("SELECT COUNT(*) FROM noise_s")
	must(t, err)
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("%d tuples left in noise_s", n)
	}
}
