package ee

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// scanTable builds t (k INT PRIMARY KEY, g INT, n INT) with the given
// number of rows, n = k and g = k % 100 under a non-unique index, commits
// them and pins the result. The pin is released when the test ends.
func scanTable(tb testing.TB, rows int) (*Engine, *ExecCtx) {
	tb.Helper()
	e := newTestEngine(tb, "CREATE TABLE t (k INT PRIMARY KEY, g INT, n INT); CREATE INDEX t_g ON t (g);")
	batch := make([]types.Row, rows)
	for k := range batch {
		batch[k] = types.Row{types.NewInt(int64(k)), types.NewInt(int64(k % 100)), types.NewInt(int64(k))}
	}
	if _, err := e.InsertRows(&ExecCtx{}, "t", batch); err != nil {
		tb.Fatal(err)
	}
	clock := e.Catalog().Clock()
	clock.Publish()
	pin := clock.AcquireSnapshot()
	tb.Cleanup(func() { clock.ReleaseSnapshot(pin) })
	return e, &ExecCtx{ReadOnly: true, Snapshot: true, SnapshotSeq: pin.Seq()}
}

// TestScanFoldAllocsIndependentOfRows: a statement whose answer is small
// allocates the same whether it reads a thousand rows or a hundred
// thousand, in either view: rows pass through, none is collected. The
// ORDER BY meets its best rows first, so all later ones are turned away.
func TestScanFoldAllocsIndependentOfRows(t *testing.T) {
	small, smallSnap := scanTable(t, 1_000)
	large, largeSnap := scanTable(t, 100_000)
	for _, q := range []string{
		"SELECT COUNT(*), SUM(n) FROM t",
		"SELECT k FROM t WHERE n >= 0 LIMIT 5",
		"SELECT k FROM t ORDER BY n LIMIT 3 OFFSET 2",
	} {
		for _, view := range []string{"snapshot", "writer"} {
			allocs := func(e *Engine, snap *ExecCtx) float64 {
				ctx := snap
				if view == "writer" {
					ctx = &ExecCtx{ReadOnly: true}
				}
				p, err := e.PrepareCached(q)
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := e.Execute(ctx, p); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(small, smallSnap), allocs(large, largeSnap)
			if b-a > 2 {
				t.Errorf("%s, %s view: %.0f allocations over 1k rows, %.0f over 100k", q, view, a, b)
			}
		}
	}
	res := mustExec(t, large, largeSnap, "SELECT k FROM t ORDER BY n LIMIT 3 OFFSET 2")
	if got := fmt.Sprint(res.Rows); got != "[(2) (3) (4)]" {
		t.Fatalf("ORDER BY n LIMIT 3 OFFSET 2 = %s", got)
	}
}

// TestEarlyStopLeavesNoGuard: a LIMIT without ORDER BY stops the producer
// after the rows it needs, wherever the stop lands: in the middle of a scan
// chunk, inside the inner scan of a join, in an index group or a range. No
// epoch guard is left behind, so the epoch still advances.
func TestEarlyStopLeavesNoGuard(t *testing.T) {
	e, snap := scanTable(t, 100_000)
	epochs := e.Catalog().Clock().Epochs()
	for _, c := range []struct {
		q        string
		examined int64
	}{
		{"SELECT k FROM t LIMIT 1", 1},
		{"SELECT k FROM t WHERE n >= 300 LIMIT 1", 301},
		{"SELECT a.k FROM t a JOIN t b ON b.n = a.n + 5 LIMIT 1", 1 + 6}, // one outer row, the inner scan up to n = 5
		{"SELECT k FROM t WHERE g = 7 LIMIT 3", 3},
		{"SELECT k FROM t WHERE k BETWEEN 10 AND 90000 LIMIT 4", 4},
	} {
		for _, ctx := range []*ExecCtx{snap, {ReadOnly: true}} {
			before := e.RowsExamined()
			res := mustExec(t, e, ctx, c.q)
			after := e.RowsExamined()
			if len(res.Rows) == 0 || after-before != c.examined {
				t.Errorf("%s (snapshot %v): %d rows, %d examined, want %d examined", c.q, ctx.Snapshot, len(res.Rows), after-before, c.examined)
			}
			if n := epochs.ActiveReaders(); n != 0 {
				t.Fatalf("%s: %d epoch guards still held", c.q, n)
			}
			if start := epochs.Epoch(); !epochs.Advance() || !epochs.Advance() || epochs.Epoch() != start+2 {
				t.Fatalf("%s: epoch does not advance", c.q)
			}
		}
	}
}

// TestExplainNamesTheArmThatRuns: for every access arm, SELECT, UPDATE and
// DELETE print the same plan line and examine the same number of rows: the
// arm EXPLAIN names is the arm that runs, for DML ranges too.
func TestExplainNamesTheArmThatRuns(t *testing.T) {
	e := newTestEngine(t, `
		CREATE TABLE kv (k INT PRIMARY KEY, g INT, v INT);
		CREATE INDEX kv_g ON kv (g);
		CREATE TABLE d (g INT);`)
	load := freshCtx()
	for k := int64(0); k < 100; k++ {
		mustExec(t, e, load, "INSERT INTO kv VALUES (?, ?, ?)", types.NewInt(k), types.NewInt(k%10), types.NewInt(k))
	}
	mustExec(t, e, load, "INSERT INTO d VALUES (3), (4)")
	for _, arm := range []struct {
		where, plan string
		examined    int64
	}{
		{"k = 7", "kv via index kv_pkey (equality probe)", 1},
		{"g = 7", "kv via index kv_g (equality probe)", 10},
		{"k BETWEEN 10 AND 19", "kv via index kv_pkey (bounded range)", 10},
		{"k > 94", "kv via index kv_pkey (lower-bounded range)", 5},
		{"g IN (SELECT g FROM d)", "kv via index kv_g (probe from subquery 0)", 2 + 20},
		{"v >= 50", "kv (full scan)", 100},
	} {
		for _, verb := range []string{"SELECT k FROM kv", "UPDATE kv SET v = v + 1", "DELETE FROM kv"} {
			q := verb + " WHERE " + arm.where
			plan, err := e.ExplainSQL(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "scan: "+arm.plan+"\n") {
				t.Errorf("EXPLAIN %s does not name %q:\n%s", q, arm.plan, plan)
			}
			ctx := freshCtx()
			before := e.RowsExamined()
			mustExec(t, e, ctx, q)
			after := e.RowsExamined()
			ctx.Undo.Rollback()
			if after-before != arm.examined {
				t.Errorf("%s examined %d rows, its plan %q reads %d", q, after-before, arm.plan, arm.examined)
			}
		}
	}
}

// The executor benchmarks CI runs once per push: a fold, a count and a
// bounded projection over a pinned 100k-row table. allocs/op is the point: neither
// depends on the table.

func benchStatement(b *testing.B, q string) {
	e, snap := scanTable(b, 100_000)
	p, err := e.PrepareCached(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(snap, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFold(b *testing.B) { benchStatement(b, "SELECT COUNT(*), SUM(n) FROM t") }

// BenchmarkScanCount is the count access: storage tallies the visible
// versions at the pin and no row reaches the executor.
func BenchmarkScanCount(b *testing.B) { benchStatement(b, "SELECT COUNT(*) FROM t") }

func BenchmarkScanFoldGrouped(b *testing.B) {
	benchStatement(b, "SELECT g, COUNT(*), SUM(n) FROM t GROUP BY g")
}

func BenchmarkSelectLimit(b *testing.B) { benchStatement(b, "SELECT k FROM t WHERE n >= 300 LIMIT 5") }

func BenchmarkSelectLimitOrdered(b *testing.B) {
	benchStatement(b, "SELECT k FROM t ORDER BY g DESC, k LIMIT 5")
}

// TestFilterLeavesTheDeltaAlone: a trigger body that filters INSERTED does
// not disturb it for the next body. (The slice executor compacted the
// transient's rows in place.)
func TestFilterLeavesTheDeltaAlone(t *testing.T) {
	e := newTestEngine(t, `
		CREATE STREAM s (v INT, ts BIGINT);
		CREATE TABLE some (v INT);
		CREATE TABLE every (v INT);`)
	if err := e.CreateTrigger("tr", "s",
		"INSERT INTO some SELECT v FROM inserted WHERE v > 1",
		"INSERT INTO every SELECT v FROM inserted"); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx()
	pushVals(t, e, ctx, "s", 1, 2, 3)
	if got := fmt.Sprint(mustExec(t, e, ctx, "SELECT v FROM every").Rows); got != "[(1) (2) (3)]" {
		t.Fatalf("second body read %s from INSERTED, want all three rows", got)
	}
}
