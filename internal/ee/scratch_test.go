package ee

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

const budgetSchema = `
	CREATE TABLE kv (k INT PRIMARY KEY, n BIGINT);
	CREATE TABLE trending (contestant INT PRIMARY KEY, n BIGINT);
	CREATE STREAM validated (phone BIGINT, contestant INT, ts BIGINT);
	CREATE WINDOW w_trend ON validated ROWS 100 SLIDE 1;
`

// teCtx is a context used the way the partition worker uses its own: one
// for every TE, reset at the top of each.
type teCtx struct {
	ExecCtx
	undo  *storage.UndoLog
	clock *storage.PartitionClock
}

func newTECtx(e *Engine) *teCtx {
	return &teCtx{undo: storage.NewUndoLog(), clock: e.Catalog().Clock()}
}

// te runs fn as one committed transaction execution.
func (c *teCtx) te(fn func(ctx *ExecCtx)) {
	c.undo.Release()
	c.Reset()
	c.Undo, c.ProcName = c.undo, "sp"
	fn(&c.ExecCtx)
	c.clock.Publish()
}

// TestStatementAllocBudgets pins what the fixed statements of the vote path
// allocate inside a reused TE context: what storage keeps of what they
// write (a validated copy of the row, a slot and now and then an index node
// or a pooled version the pools have run out of), and for a read nothing. A statement that goes back to allocating its
// parameters, its Result, its match list or its new row image fails here
// on any host, not in a benchmark on a quiet one.
func TestStatementAllocBudgets(t *testing.T) {
	e := newTestEngine(t, budgetSchema)
	if err := e.CreateTrigger("trend_maintain", "w_trend",
		"UPDATE trending SET n = n + 1 WHERE contestant IN (SELECT contestant FROM inserted)",
		"UPDATE trending SET n = n - 1 WHERE contestant IN (SELECT contestant FROM expired)"); err != nil {
		t.Fatal(err)
	}
	c := newTECtx(e)
	c.te(func(ctx *ExecCtx) {
		for k := int64(0); k < 1000; k++ {
			mustExec(t, e, ctx, "INSERT INTO kv VALUES (?, 0)", types.NewInt(k))
		}
		for id := int64(0); id < 25; id++ {
			mustExec(t, e, ctx, "INSERT INTO trending VALUES (?, 0)", types.NewInt(id))
		}
	})
	prep := func(q string) *Prepared {
		p, err := e.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sel, upd, ins := prep("SELECT k, n FROM kv WHERE k = ?"), prep("UPDATE kv SET n = n + 1 WHERE k = ?"), prep("INSERT INTO kv VALUES (?, ?)")
	next := int64(1000)
	vote := int64(0)
	for _, b := range []struct {
		name   string
		budget float64
		run    func(ctx *ExecCtx) error
	}{
		{"point SELECT", 0, func(ctx *ExecCtx) error {
			res, err := e.Execute(ctx, sel, types.NewInt(7))
			if err == nil && len(res.Rows) != 1 {
				err = fmt.Errorf("%d rows", len(res.Rows))
			}
			return err
		}},
		// The validated new image and its version (nothing here advances the
		// epoch, so the version and node pools stay dry).
		{"one-row UPDATE", 2, func(ctx *ExecCtx) error {
			_, err := e.Execute(ctx, upd, types.NewInt(7))
			return err
		}},
		// The validated row, its version, its slot and its index node; the
		// directory grows amortized, under one a TE.
		{"one-row INSERT", 4, func(ctx *ExecCtx) error {
			next++
			_, err := e.Execute(ctx, ins, types.NewInt(next), types.NewInt(0))
			return err
		}},
		// A stream insert (3), the slide's insert into the window (3), the two
		// trigger bodies' UPDATEs (2 each) and the closure that undoes the
		// slide bookkeeping.
		{"validated row through the ROWS 100 slide and both trigger bodies", 11, func(ctx *ExecCtx) error {
			vote++
			_, err := e.InsertRows(ctx, "validated", []types.Row{{types.NewInt(vote), types.NewInt(vote % 25), types.NewInt(vote)}})
			return err
		}},
	} {
		run := func() {
			c.te(func(ctx *ExecCtx) {
				if err := b.run(ctx); err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
			})
		}
		for i := 0; i < 300; i++ { // fills the window and settles the scratch
			run()
		}
		if got := testing.AllocsPerRun(200, run); got != b.budget {
			t.Errorf("%s: %.0f allocations per TE, pinned at %.0f", b.name, got, b.budget)
		}
	}
	if got := fmt.Sprint(mustExec(t, e, freshCtx(), "SELECT SUM(n) FROM trending").Rows); got != "[(100)]" {
		t.Fatalf("trending counts %s votes in a full window of 100", got)
	}
}

// TestResetCostsWhatTheTEUsed: reset clears what the TE handed out, not
// what an earlier TE grew the scratch to, and lets go of a chunk past the
// cap. (The first scratch cleared by capacity: after voter_reset's DELETE
// FROM votes every vote paid for an 8 192-slot match buffer.)
func TestResetCostsWhatTheTEUsed(t *testing.T) {
	e := newTestEngine(t, budgetSchema)
	c := newTECtx(e)
	load := func(lo, hi int64) {
		c.te(func(ctx *ExecCtx) {
			rows := make([]types.Row, 0, hi-lo)
			for k := lo; k < hi; k++ {
				rows = append(rows, types.Row{types.NewInt(k), types.NewInt(0)})
			}
			if _, err := e.InsertRows(ctx, "kv", rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	used := func() int {
		m := &c.mem
		return len(m.vals.buf) + len(m.rows.buf) + len(m.ids.buf) + len(m.results.buf) + len(m.subs.buf)
	}
	retainedMax := func() int {
		m := &c.mem
		return max(cap(m.vals.buf), cap(m.rows.buf), cap(m.ids.buf), cap(m.results.buf), cap(m.subs.buf))
	}

	// A TE that deletes 10 000 rows: its match list is far past the cap.
	load(0, 10_000)
	c.te(func(ctx *ExecCtx) {
		if res := mustExec(t, e, ctx, "DELETE FROM kv"); res.RowsAffected != 10_000 {
			t.Fatalf("deleted %d rows", res.RowsAffected)
		}
		if used() < 10_000 {
			t.Fatalf("a 10 000-row delete took %d scratch elements", used())
		}
	})
	c.Reset()
	if got := retainedMax(); got > scratchRetain {
		t.Fatalf("after a 10 000-row delete the scratch retains a chunk of %d elements, cap %d", got, scratchRetain)
	}

	// A TE that grows a chunk to just under the cap, which is then kept;
	// the point read after it uses, and its reset clears, a handful.
	load(0, 1500)
	c.te(func(ctx *ExecCtx) { mustExec(t, e, ctx, "DELETE FROM kv WHERE k >= 100") })
	c.te(func(ctx *ExecCtx) {
		if kept := retainedMax(); kept < 1024 || kept > scratchRetain {
			t.Fatalf("a 1 400-row delete left a chunk of %d elements", kept)
		}
		res := mustExec(t, e, ctx, "SELECT k, n FROM kv WHERE k = ?", types.NewInt(7))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
			t.Fatalf("point read: %v", res.Rows)
		}
		if n := used(); n > 8 {
			t.Fatalf("a point read used %d scratch elements: that is what its reset clears", n)
		}
	})
}
