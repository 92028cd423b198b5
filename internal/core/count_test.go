package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ee"
	"repro/internal/pe"
	"repro/internal/types"
)

// countPair is a count access and its oracle: the same count under a WHERE
// every row passes, which the planner folds row by row instead.
type countPair struct {
	count, oracle string
	params        []types.Value
}

// countPairs are the shapes a count access takes over rel: the bare count,
// and the count under HAVING, a second output column, LIMIT 0 and OFFSET 1.
func countPairs(rel string) []countPair {
	both := func(tail string, params ...types.Value) countPair {
		return countPair{
			count:  fmt.Sprintf("SELECT COUNT(*) FROM %s%s", rel, tail),
			oracle: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE 1 = 1%s", rel, tail),
			params: params,
		}
	}
	return []countPair{
		both(""),
		{count: fmt.Sprintf("SELECT COUNT(*) * 2, COUNT(*) FROM %s", rel),
			oracle: fmt.Sprintf("SELECT COUNT(*) * 2, COUNT(*) FROM %s WHERE 1 = 1", rel)},
		both(" HAVING COUNT(*) > ?", types.NewInt(3)),
		both(" HAVING COUNT(*) > ?", types.NewInt(1000)),
		both(" LIMIT 0"),
		both(" LIMIT 5 OFFSET 1"),
		both(" ORDER BY 1 OFFSET 0"),
	}
}

// registerCountProbe registers "countprobe", a procedure routed by its
// first parameter that runs a count access and its oracle in the writer's
// view of the key's owner and fails unless they agree; it returns the
// count's rows.
func registerCountProbe(t *testing.T, st *Store) {
	t.Helper()
	must(t, st.RegisterProcedure(&pe.Procedure{
		Name: "countprobe", PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			got, err := probeInProc(ctx, ctx.Params[1].Str(), ctx.Params[2].Str(), ctx.Params[3:]...)
			ctx.SetResult(got)
			return err
		},
	}))
}

// probeInProc runs count and oracle in the procedure's execution and
// fails unless they agree; it returns the count's result.
func probeInProc(ctx *pe.ProcCtx, count, oracle string, params ...types.Value) (*ee.Result, error) {
	got, err := ctx.Exec(count, params...)
	if err != nil {
		return nil, err
	}
	gotRows := fmt.Sprint(got.Rows)
	want, err := ctx.Exec(oracle, params...)
	if err != nil {
		return nil, err
	}
	if wantRows := fmt.Sprint(want.Rows); gotRows != wantRows {
		return nil, fmt.Errorf("%s reads %s in the writer's view, %s reads %s", count, gotRows, oracle, wantRows)
	}
	return got, nil
}

// probeCounts runs every pair over rel through countprobe on key's owner.
func probeCounts(t *testing.T, st *Store, key int64, rel string) {
	t.Helper()
	for _, c := range countPairs(rel) {
		args := append([]types.Value{types.NewInt(key), types.NewString(c.count), types.NewString(c.oracle)}, c.params...)
		if _, err := st.Call("countprobe", args...); err != nil {
			t.Errorf("key %d's owner: %v", key, err)
		}
	}
}

// checkCounts runs every pair over rel through query and fails unless the
// count access reads what its oracle reads; it returns the bare count.
func checkCounts(t *testing.T, door string, query func(string, ...types.Value) (*pe.Result, error), rel string) int64 {
	t.Helper()
	var n int64 = -1
	for _, c := range countPairs(rel) {
		got, err := query(c.count, c.params...)
		if err != nil {
			t.Fatalf("%s: %s: %v", door, c.count, err)
		}
		want, err := query(c.oracle, c.params...)
		if err != nil {
			t.Fatalf("%s: %s: %v", door, c.oracle, err)
		}
		if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
			t.Errorf("%s: %s reads %s, %s reads %s", door, c.count, g, c.oracle, w)
		}
		if n < 0 {
			n = got.Rows[0][0].Int()
		}
	}
	return n
}

// TestCountAccessMatchesFold: a SELECT whose aggregates are all COUNT(*)
// over one relation with no WHERE is answered by storage's count, not by
// folding rows, and reads what the fold reads, on 1, 2 and 4 partitions:
// at a held pin while the worker writes, in a procedure's writer view
// after its own insert and delete and after an aborted one, while a
// rebalance has rows staged, on an anti-cached table without faulting a
// row in, on a stream, a window, a replicated table and a trigger's
// INSERTED, and under HAVING, LIMIT 0 and OFFSET 1.
func TestCountAccessMatchesFold(t *testing.T) {
	for _, parts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			t.Run("writes", func(t *testing.T) { countUnderWrites(t, parts) })
			t.Run("cold", func(t *testing.T) { countCold(t, parts) })
		})
	}
}

func countUnderWrites(t *testing.T, parts int) {
	st := Open(Config{Partitions: parts})
	must(t, st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE TABLE rep (id BIGINT PRIMARY KEY, label VARCHAR);
		CREATE STREAM s (g BIGINT, tag BIGINT);
		CREATE WINDOW sw ON s ROWS 5 SLIDE 1;
		CREATE STREAM feed (a BIGINT);
		CREATE TABLE seen (tag BIGINT, n BIGINT);`))
	registerCountProbe(t, st)
	// mutate inserts key k, deletes it again and, when asked, aborts; after
	// each write the count in its writer view must equal the fold's and
	// move by the row it wrote.
	must(t, st.RegisterProcedure(&pe.Procedure{
		Name: "mutate", WriteSet: []string{"kv"}, PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			const count, oracle = "SELECT COUNT(*) FROM kv", "SELECT COUNT(*) FROM kv WHERE 1 = 1"
			counted := func() (int64, error) {
				res, err := probeInProc(ctx, count, oracle)
				if err != nil {
					return 0, err
				}
				return res.Rows[0][0].Int(), nil
			}
			before, err := counted()
			if err != nil {
				return err
			}
			if _, err := ctx.Exec("INSERT INTO kv VALUES (?, 0)", ctx.Params[0]); err != nil {
				return err
			}
			if n, err := counted(); err != nil || n != before+1 {
				return fmt.Errorf("after its own insert the count reads %d (%v), want %d", n, err, before+1)
			}
			if _, err := ctx.Exec("DELETE FROM kv WHERE k = ?", ctx.Params[0]); err != nil {
				return err
			}
			if n, err := counted(); err != nil || n != before {
				return fmt.Errorf("after its own delete the count reads %d (%v), want %d", n, err, before)
			}
			if ctx.Params[1].Int() != 0 {
				if _, err := ctx.Exec("INSERT INTO kv VALUES (?, 0)", ctx.Params[0]); err != nil {
					return err
				}
				return ctx.Abort("asked to")
			}
			return nil
		},
	}))
	// push inserts a batch into feed, whose trigger records what a count of
	// INSERTED and of the stream itself read beside their folds.
	must(t, st.RegisterProcedure(&pe.Procedure{
		Name: "push", WriteSet: []string{"feed", "seen"},
		Handler: func(ctx *pe.ProcCtx) error {
			if _, err := ctx.Exec("INSERT INTO feed VALUES (0)"); err != nil {
				return err
			}
			_, err := ctx.Exec("INSERT INTO feed VALUES (1), (2), (3)")
			return err
		},
	}))
	must(t, st.Deploy(&Dataflow{Name: "tally", Triggers: []DataflowTrigger{{
		Name: "tally", Relation: "feed", Bodies: []string{
			"INSERT INTO seen SELECT 1, COUNT(*) FROM inserted",
			"INSERT INTO seen SELECT 2, COUNT(*) FROM inserted WHERE 1 = 1",
			"INSERT INTO seen SELECT 3, COUNT(*) FROM feed",
			"INSERT INTO seen SELECT 4, COUNT(*) FROM feed WHERE 1 = 1",
		}}}}))
	must(t, st.Start())
	defer st.Stop()

	exec := func(q string, params ...types.Value) {
		t.Helper()
		if _, err := st.Exec(q, params...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for k := int64(0); k < 40; k++ {
		exec("INSERT INTO kv VALUES (?, ?)", types.NewInt(k), types.NewInt(k))
	}
	for i := int64(0); i < 6; i++ {
		exec("INSERT INTO rep VALUES (?, 'r')", types.NewInt(i))
	}
	for i := int64(0); i < 12; i++ {
		exec("INSERT INTO s VALUES (?, ?)", types.NewInt(i%3), types.NewInt(i))
	}
	t.Run("pin", func(t *testing.T) {
		plan, err := st.Explain("SELECT COUNT(*) FROM kv")
		must(t, err)
		if !strings.Contains(plan, "count: kv") {
			t.Fatalf("SELECT COUNT(*) FROM kv is not a count access:\n%s", plan)
		}
		if plan, _ := st.Explain("SELECT COUNT(*) FROM kv WHERE 1 = 1"); strings.Contains(plan, "count: ") {
			t.Fatalf("the oracle is a count access too:\n%s", plan)
		}
		pin := st.PinSnapshot()
		defer pin.Release()
		pinned := func(q string, p ...types.Value) (*pe.Result, error) { return st.QueryPinned(pin, q, p...) }
		if n := checkCounts(t, "pin", pinned, "kv"); n != 40 {
			t.Fatalf("pinned count reads %d, want 40", n)
		}
		for k := int64(40); k < 50; k++ {
			exec("INSERT INTO kv VALUES (?, ?)", types.NewInt(k), types.NewInt(k))
		}
		exec("DELETE FROM kv WHERE k < ?", types.NewInt(5))
		exec("UPDATE kv SET v = v + 1 WHERE k >= ?", types.NewInt(20))
		if n := checkCounts(t, "pin after writes", pinned, "kv"); n != 40 {
			t.Errorf("pinned count reads %d after the worker wrote, want 40", n)
		}
		later := st.PinSnapshot()
		defer later.Release()
		if n := checkCounts(t, "later pin", func(q string, p ...types.Value) (*pe.Result, error) {
			return st.QueryPinned(later, q, p...)
		}, "kv"); n != 45 {
			t.Errorf("a later pin counts %d, want 45", n)
		}
		if n := checkCounts(t, "Store.Query", st.Query, "kv"); n != 45 {
			t.Errorf("Store.Query counts %d, want 45", n)
		}
	})

	t.Run("procedure", func(t *testing.T) {
		for k := int64(100); k < 104; k++ {
			if _, err := st.Call("mutate", types.NewInt(k), types.NewInt(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Call("mutate", types.NewInt(k), types.NewInt(1)); err == nil || !strings.Contains(err.Error(), "asked to") {
				t.Fatalf("mutate(%d) asked to abort returned %v", k, err)
			}
			probeCounts(t, st, k, "kv")
		}
		if n := checkCounts(t, "after the abort", st.Query, "kv"); n != 45 {
			t.Errorf("after an aborted insert the count reads %d, want 45", n)
		}
	})

	t.Run("relations", func(t *testing.T) {
		for _, rel := range []string{"rep", "s", "sw"} {
			checkCounts(t, rel, st.Query, rel)
		}
		if n := checkCounts(t, "sw", st.Query, "sw"); n != 5 {
			t.Errorf("the window counts %d rows, want 5", n)
		}
		probeCounts(t, st, 0, "rep")
		if _, err := st.Call("push"); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query("SELECT tag, n FROM seen")
		must(t, err)
		// Two firings: one row, then three.
		want := "[(1, 1) (2, 1) (3, 1) (4, 1) (1, 3) (2, 3) (3, 3) (4, 3)]"
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("trigger counts read %s, want %s", got, want)
		}
	})

	t.Run("rebalance", func(t *testing.T) {
		pin := st.PinSnapshot()
		defer pin.Release()
		pinned := func(q string, p ...types.Value) (*pe.Result, error) { return st.QueryPinned(pin, q, p...) }
		staged := 0
		testHookAfterCopy = func(int) error {
			for _, p := range st.partList() {
				rel, err := p.cat.MustRelation("kv")
				if err != nil {
					return err
				}
				staged += rel.Table.StagedCount()
			}
			if n := checkCounts(t, "mid-rebalance", st.Query, "kv"); n != 45 {
				return fmt.Errorf("mid-rebalance count reads %d, want 45", n)
			}
			if n := checkCounts(t, "mid-rebalance pin", pinned, "kv"); n != 45 {
				return fmt.Errorf("mid-rebalance pinned count reads %d, want 45", n)
			}
			probeCounts(t, st, 7, "kv")
			return nil
		}
		err := st.Rebalance(parts + 1)
		testHookAfterCopy = nil
		must(t, err)
		if staged == 0 {
			t.Fatal("no rows were staged when the counts ran")
		}
		if n := checkCounts(t, "after rebalance", st.Query, "kv"); n != 45 {
			t.Errorf("after the rebalance the count reads %d, want 45", n)
		}
		checkCounts(t, "old pin after rebalance", pinned, "kv")
	})
}

// countCold counts an anti-cached table whose rows are mostly evicted: the
// count reads what the fold reads and faults no row in.
func countCold(t *testing.T, parts int) {
	st := buildPadKV(t, Config{Partitions: parts, MemoryBudget: padBudget})
	registerCountProbe(t, st)
	must(t, st.Start())
	defer st.Stop()
	const n = 300
	putPadRows(t, st, 0, n)
	pin := st.PinSnapshot()
	defer pin.Release()
	for k := int64(0); k < n; k += 3 {
		if _, err := st.Call("padbump", types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	forceEvict(t, st)
	cold := func() (versions int, faults uint64) {
		for _, p := range st.partList() {
			rel, err := p.cat.MustRelation("kvpad")
			must(t, err)
			v, _, f := rel.Table.ColdStats()
			versions += v
			faults += f
		}
		return versions, faults
	}
	if v, _ := cold(); v == 0 {
		t.Fatal("no version was evicted despite the budget")
	}
	const count = "SELECT COUNT(*) FROM kvpad"
	_, before := cold()
	for _, read := range []func() (*pe.Result, error){
		func() (*pe.Result, error) { return st.Query(count) },
		func() (*pe.Result, error) { return st.QueryPinned(pin, count) },
		func() (*pe.Result, error) {
			return st.Call("countprobe", types.NewInt(1), types.NewString(count), types.NewString(count))
		},
	} {
		res, err := read()
		must(t, err)
		if res.Rows[0][0].Int() == 0 {
			t.Fatalf("%s reads %v", count, res.Rows)
		}
	}
	if _, after := cold(); after != before {
		t.Errorf("counting an evicted table faulted %d rows in", after-before)
	}
	if got := checkCounts(t, "cold", st.Query, "kvpad"); got != n {
		t.Errorf("cold count reads %d, want %d", got, n)
	}
	if _, after := cold(); after == before {
		t.Fatal("the fold faulted no row in either: no row was cold")
	}
	if got := checkCounts(t, "cold pin", func(q string, p ...types.Value) (*pe.Result, error) {
		return st.QueryPinned(pin, q, p...)
	}, "kvpad"); got != n {
		t.Errorf("cold pinned count reads %d, want %d", got, n)
	}
	probeCounts(t, st, 2, "kvpad")
}
