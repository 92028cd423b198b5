package ee

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

// The subquery-probe arm must be invisible except in cost. Every test here
// is differential: the same statements over the same data on an engine
// whose target has the single-column indexes the arm needs ("probe") and on
// one that never had them ("scan", the planner's forced fallback), with
// identical rows affected and identical table contents required.

const probeTables = `
	CREATE TABLE target (id INT PRIMARY KEY, c INT, f FLOAT, tag VARCHAR, n BIGINT);
	CREATE TABLE delta (k INT PRIMARY KEY, c BIGINT, f FLOAT, s VARCHAR);
`

const probeIndexes = `
	CREATE INDEX target_c ON target (c);
	CREATE INDEX target_f ON target (f);
	CREATE INDEX target_tag_n ON target (tag, n);
`

type probePair struct {
	t           *testing.T
	probe, scan *Engine
	pctx, sctx  *ExecCtx
}

func newProbePair(t *testing.T) *probePair {
	t.Helper()
	pp := &probePair{
		t:     t,
		probe: newTestEngine(t, probeTables+probeIndexes),
		scan:  newTestEngine(t, probeTables),
		pctx:  freshCtx(),
		sctx:  freshCtx(),
	}
	// 40 rows: c cycles 0..6 with NULL on every 10th id; f cycles 0..4,
	// non-integral on every 4th id and NULL on every 9th.
	for id := int64(1); id <= 40; id++ {
		c, f := types.NewInt(id%7), types.NewFloat(float64(id%5))
		if id%10 == 0 {
			c = types.Null
		}
		if id%4 == 0 {
			f = types.NewFloat(float64(id%5) + 0.5)
		}
		if id%9 == 0 {
			f = types.Null
		}
		pp.both("INSERT INTO target VALUES (?, ?, ?, ?, 0)",
			types.NewInt(id), c, f, types.NewString(fmt.Sprintf("t%d", id%3)))
	}
	return pp
}

// both runs one statement on both engines and requires the same outcome:
// both succeed with equal rows affected and equal rows (in order), or both
// fail.
func (pp *probePair) both(q string, params ...types.Value) *Result {
	pp.t.Helper()
	pr, perr := pp.probe.ExecSQL(pp.pctx, q, params...)
	sr, serr := pp.scan.ExecSQL(pp.sctx, q, params...)
	if (perr == nil) != (serr == nil) {
		pp.t.Fatalf("%s: probe err %v, scan err %v", q, perr, serr)
	}
	if perr != nil {
		return nil
	}
	if pr.RowsAffected != sr.RowsAffected {
		pp.t.Fatalf("%s: rows affected probe %d, scan %d", q, pr.RowsAffected, sr.RowsAffected)
	}
	if got, want := fmt.Sprint(pr.Rows), fmt.Sprint(sr.Rows); got != want {
		pp.t.Fatalf("%s:\nprobe %s\nscan  %s", q, got, want)
	}
	return pr
}

// setDelta replaces delta's rows; each row is (c, f, s) with nil for NULL.
func (pp *probePair) setDelta(rows ...[3]any) {
	pp.t.Helper()
	pp.both("DELETE FROM delta")
	for k, r := range rows {
		vals := []types.Value{types.NewInt(int64(k))}
		for _, x := range r {
			switch v := x.(type) {
			case nil:
				vals = append(vals, types.Null)
			case int:
				vals = append(vals, types.NewInt(int64(v)))
			case float64:
				vals = append(vals, types.NewFloat(v))
			case string:
				vals = append(vals, types.NewString(v))
			}
		}
		pp.both("INSERT INTO delta VALUES (?, ?, ?, ?)", vals...)
	}
}

// sameTarget compares the full contents of target across the two engines.
func (pp *probePair) sameTarget() {
	pp.t.Helper()
	pp.both("SELECT id, c, f, tag, n FROM target ORDER BY id")
}

// plans asserts what the probe engine planned for q (the scan engine,
// lacking the indexes, must never plan the arm).
func (pp *probePair) plans(q, want string) {
	pp.t.Helper()
	got, err := pp.probe.ExplainSQL(q, 1)
	if err != nil {
		pp.t.Fatalf("explain %s: %v", q, err)
	}
	if !strings.Contains(got, want) {
		pp.t.Fatalf("probe engine planned %q without %q:\n%s", q, want, got)
	}
	got, err = pp.scan.ExplainSQL(q, 1)
	if err != nil {
		pp.t.Fatalf("explain %s: %v", q, err)
	}
	if strings.Contains(got, "probe from subquery") {
		pp.t.Fatalf("scan engine probed for %q:\n%s", q, got)
	}
}

const (
	viaC = "target via index target_c (probe from subquery 0)"
	viaF = "target via index target_f (probe from subquery 0)"
)

func TestSubqueryProbeMatchesScan(t *testing.T) {
	cases := []struct {
		name  string
		delta [][3]any // (c, f, s)
		stmt  string
		plan  string
		// affected, when >= 0, pins the row count so the test does not
		// pass on two engines that are wrong together.
		affected int
	}{
		{"duplicates in the delta update a row once",
			[][3]any{{3, nil, nil}, {3, nil, nil}, {5, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta)", viaC, 10},
		{"NULL in the delta and NULL in the column match nothing",
			[][3]any{{3, nil, nil}, {nil, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta)", viaC, 5},
		{"NOT IN stays on the scan",
			[][3]any{{3, nil, nil}, {4, nil, nil}},
			"UPDATE target SET n = n + 10 WHERE c NOT IN (SELECT c FROM delta)",
			"target (full scan), not driven from its IN-subquery: NOT IN cannot drive a probe", 27},
		{"NOT IN over a set with NULL selects nothing",
			[][3]any{{3, nil, nil}, {nil, nil, nil}},
			"UPDATE target SET n = n + 10 WHERE c NOT IN (SELECT c FROM delta)", "target (full scan)", 0},
		{"INT column, FLOAT set: integral matches, non-integral and NULL do not",
			[][3]any{{nil, 3.0, nil}, {nil, 2.5, nil}, {nil, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT f FROM delta)", viaC, 5},
		{"FLOAT column, BIGINT set",
			[][3]any{{2, nil, nil}, {4, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE f IN (SELECT c FROM delta)", viaF, 10},
		{"FLOAT column, non-integral FLOAT set",
			[][3]any{{nil, 0.5, nil}, {nil, 3.5, nil}},
			"UPDATE target SET n = n + 1 WHERE f IN (SELECT f FROM delta)", viaF, -1},
		{"VARCHAR set against an INT column compares unequal",
			[][3]any{{nil, nil, "3"}, {nil, nil, "x"}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT s FROM delta)", viaC, 0},
		// 2^53 as a FLOAT equals both 2^53 and 2^53+1 as BIGINT: no single
		// key reaches every match, so this execution scans.
		{"a FLOAT of 2^53 against an INT column falls back to the scan",
			[][3]any{{nil, 9007199254740992.0, nil}, {nil, 3.0, nil}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT f FROM delta)", viaC, 7},
		{"a BIGINT beyond 2^53 against a FLOAT column falls back to the scan",
			[][3]any{{9007199254740993, nil, nil}, {9007199254740992, nil, nil}, {2, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE f IN (SELECT c FROM delta)", viaF, 6},
		{"empty delta",
			nil,
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta)", viaC, 0},
		{"a residual conjunct beside the IN is still applied",
			[][3]any{{1, nil, nil}, {2, nil, nil}, {6, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE id > 10 AND c IN (SELECT c FROM delta) AND tag = 't1'", viaC, -1},
		{"the subquery's own filter",
			[][3]any{{1, 1.0, nil}, {2, 9.0, nil}},
			"UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta WHERE f < 5.0)", viaC, 6},
		{"a composite index is ineligible",
			[][3]any{{nil, nil, "t1"}},
			"UPDATE target SET n = n + 1 WHERE tag IN (SELECT s FROM delta)",
			"target (full scan), not driven from its IN-subquery: no single-column index on tag", 14},
		{"an equality probe on the key still wins",
			[][3]any{{3, nil, nil}},
			"UPDATE target SET n = n + 1 WHERE id = 3 AND c IN (SELECT c FROM delta)",
			"target via index target_pkey (equality probe)", 1},
		{"the update moves rows within the driving index",
			[][3]any{{3, nil, nil}, {4, nil, nil}},
			"UPDATE target SET c = c + 1 WHERE c IN (SELECT c FROM delta)", viaC, 11},
		{"DELETE form",
			[][3]any{{0, nil, nil}, {6, nil, nil}},
			"DELETE FROM target WHERE c IN (SELECT c FROM delta) AND id < 30", viaC, -1},
		{"DELETE with a multi-row delta and duplicates",
			[][3]any{{1, nil, nil}, {1, nil, nil}, {2, nil, nil}, {nil, nil, nil}},
			"DELETE FROM target WHERE c IN (SELECT c FROM delta)", viaC, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pp := newProbePair(t)
			pp.both("INSERT INTO target VALUES (41, 9007199254740992, 9007199254740992.0, 'big', 0)")
			pp.both("INSERT INTO target VALUES (42, 9007199254740993, NULL, 'big', 0)")
			pp.setDelta(tc.delta...)
			pp.plans(tc.stmt, tc.plan)
			res := pp.both(tc.stmt)
			if tc.affected >= 0 && res.RowsAffected != tc.affected {
				t.Fatalf("%s affected %d rows, want %d", tc.stmt, res.RowsAffected, tc.affected)
			}
			pp.sameTarget()
		})
	}
}

func TestSubqueryProbeSelectForms(t *testing.T) {
	pp := newProbePair(t)
	pp.setDelta([3]any{5, 2.0, nil}, [3]any{3, 2.0, nil}, [3]any{5, nil, nil}, [3]any{nil, 0.5, nil})
	for _, q := range []string{
		// No ORDER BY: the writer view returns candidates in row-id order,
		// the order the scan meets them, so even the order must agree.
		"SELECT id, c FROM target WHERE c IN (SELECT c FROM delta)",
		"SELECT id FROM target WHERE c IN (SELECT c FROM delta) AND n = 0 ORDER BY id DESC LIMIT 3",
		"SELECT c, COUNT(*) FROM target WHERE c IN (SELECT c FROM delta) GROUP BY c ORDER BY c",
		"SELECT id, f FROM target WHERE f IN (SELECT f FROM delta) ORDER BY id",
		"SELECT t.id, d.k FROM target t JOIN delta d ON d.c = t.c WHERE t.c IN (SELECT c FROM delta WHERE k > 0) ORDER BY t.id, d.k",
		// The arm on the inner side of a join, from the ON clause.
		"SELECT d.k, t.id FROM delta d JOIN target t ON t.c IN (SELECT c FROM delta WHERE k = 1) AND t.id < 20 ORDER BY d.k, t.id",
		"SELECT d.k, t.id FROM delta d LEFT JOIN target t ON t.c IN (SELECT c FROM delta WHERE k > 7) ORDER BY d.k, t.id",
		// Two IN-subqueries on indexed columns: one drives, both filter.
		"SELECT id FROM target WHERE c IN (SELECT c FROM delta) AND f IN (SELECT f FROM delta) ORDER BY id",
		// A set no smaller than the table is scanned in both engines.
		"SELECT id FROM target WHERE id < 4 AND c IN (SELECT id FROM target) ORDER BY id",
		"INSERT INTO delta SELECT id + 100, c, f, tag FROM target WHERE c IN (SELECT c FROM delta)",
		"SELECT k, c FROM delta ORDER BY k",
	} {
		if res := pp.both(q); strings.HasPrefix(q, "SELECT id, c FROM") && len(res.Rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", q, len(res.Rows))
		}
	}
	pp.plans("SELECT id, c FROM target WHERE c IN (SELECT c FROM delta)", viaC)
	pp.plans("SELECT d.k FROM delta d JOIN target t ON t.c IN (SELECT c FROM delta WHERE k = 1)",
		"join: target via index target_c (probe from subquery 0)")
}

// TestSubqueryProbeIndexDroppedAfterPrepare holds a prepared statement
// across the loss of its index (the table is dropped and re-created without
// it; prepared trigger bodies outlive DDL the same way): the statement keeps
// its plan and falls back to the scan inside the same access function.
func TestSubqueryProbeIndexDroppedAfterPrepare(t *testing.T) {
	pp := newProbePair(t)
	pp.setDelta([3]any{3, nil, nil}, [3]any{6, nil, nil})
	const upd = "UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta)"
	const sel = "SELECT id FROM target WHERE c IN (SELECT c FROM delta)"
	pu, err := pp.probe.Prepare(upd, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pp.probe.Prepare(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pu.Explain(1), viaC) || !strings.Contains(ps.Explain(1), viaC) {
		t.Fatalf("not planned as a probe:\n%s%s", pu.Explain(1), ps.Explain(1))
	}
	rows := mustExec(t, pp.probe, pp.pctx, "SELECT id, c, f, tag, n FROM target ORDER BY id").Rows
	if err := pp.probe.ExecScript("DROP TABLE target; " +
		"CREATE TABLE target (id INT PRIMARY KEY, c INT, f FLOAT, tag VARCHAR, n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pp.probe.InsertRows(pp.pctx, "target", rows); err != nil {
		t.Fatal(err)
	}
	got, err := pp.probe.Execute(pp.pctx, pu)
	if err != nil {
		t.Fatal(err)
	}
	want := mustExec(t, pp.scan, pp.sctx, upd)
	if got.RowsAffected != want.RowsAffected || got.RowsAffected != 9 {
		t.Fatalf("after index loss: affected %d, scan %d, want 9", got.RowsAffected, want.RowsAffected)
	}
	gotSel, err := pp.probe.Execute(pp.pctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(gotSel.Rows), fmt.Sprint(mustExec(t, pp.scan, pp.sctx, sel).Rows); g != w {
		t.Fatalf("after index loss:\nprobe %s\nscan  %s", g, w)
	}
	pp.sameTarget()
}

// TestSubqueryProbeSnapshotFromAnotherGoroutine runs the probe arm's
// snapshot view on reader goroutines while the writer updates the same
// rows through the same arm: every read sees exactly the pinned state.
func TestSubqueryProbeSnapshotFromAnotherGoroutine(t *testing.T) {
	pp := newProbePair(t)
	pp.setDelta([3]any{3, 1.0, nil}, [3]any{5, 2.5, nil}, [3]any{nil, nil, nil}, [3]any{5, 1.0, nil})
	const q = "SELECT id, n FROM target WHERE c IN (SELECT c FROM delta) AND f IN (SELECT f FROM delta) ORDER BY id"
	want := fmt.Sprint(pp.both(q).Rows)

	clock := pp.probe.Catalog().Clock()
	clock.Publish() // commit the load
	pin := clock.AcquireSnapshot()
	defer clock.ReleaseSnapshot(pin)

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx := &ExecCtx{ReadOnly: true, Snapshot: true, SnapshotSeq: pin.Seq()}
				res, err := pp.probe.ExecSQL(ctx, q)
				if err != nil {
					t.Errorf("snapshot read: %v", err)
					return
				}
				if got := fmt.Sprint(res.Rows); got != want {
					t.Errorf("snapshot read %d:\ngot  %s\nwant %s", i, got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		mustExec(t, pp.probe, pp.pctx, "UPDATE target SET n = n + 1 WHERE c IN (SELECT c FROM delta)")
		mustExec(t, pp.probe, pp.pctx, "DELETE FROM delta WHERE k = 3")
		mustExec(t, pp.probe, pp.pctx, "INSERT INTO delta VALUES (3, 5, 1.0, NULL)")
		clock.Publish()
	}
	wg.Wait()
	// The snapshot view without ORDER BY returns the same rows as the scan.
	ctx := &ExecCtx{ReadOnly: true, Snapshot: true, SnapshotSeq: pin.Seq()}
	res := mustExec(t, pp.probe, ctx, "SELECT id FROM target WHERE c IN (SELECT c FROM delta)")
	ref := mustExec(t, pp.scan, pp.sctx, "SELECT id FROM target WHERE c IN (SELECT c FROM delta)")
	seen := map[int64]int{}
	for _, r := range res.Rows {
		seen[r[0].Int()]++
	}
	for _, r := range ref.Rows {
		seen[r[0].Int()]--
	}
	for id, d := range seen {
		if d != 0 {
			t.Fatalf("snapshot probe and scan disagree on id %d (%+d)", id, d)
		}
	}
}

// ---------- the trigger shape: window deltas driving a maintained table ----------

// trendPair is a stream, a window over it and a trend table maintained by
// an EE trigger from the window's deltas. On the probe engine trend is
// keyed by c (the voter / leaderboard shape); on the scan engine it has no
// index at all, so the same bodies scan.
type trendPair struct {
	t           *testing.T
	probe, scan *Engine
}

var trendBodies = []string{
	"UPDATE trend SET n = n + 1 WHERE c IN (SELECT c FROM inserted)",
	"UPDATE trend SET n = n - 1 WHERE c IN (SELECT c FROM expired)",
	"DELETE FROM seen WHERE c IN (SELECT c FROM expired) AND c > 100",
}

func newTrendPair(t *testing.T, window string) *trendPair {
	t.Helper()
	ddl := func(key string) string {
		return `CREATE STREAM s (c INT, ts BIGINT);
			CREATE WINDOW w ON s ` + window + `;
			CREATE TABLE trend (c INT` + key + `, n BIGINT);
			CREATE TABLE seen (c INT` + key + `);`
	}
	tp := &trendPair{t: t, probe: newTestEngine(t, ddl(" PRIMARY KEY")), scan: newTestEngine(t, ddl(""))}
	for _, e := range []*Engine{tp.probe, tp.scan} {
		if err := e.CreateTrigger("maintain", "w", trendBodies...); err != nil {
			t.Fatal(err)
		}
		ctx := freshCtx()
		for c := int64(0); c < 8; c++ {
			mustExec(t, e, ctx, "INSERT INTO trend VALUES (?, 0)", types.NewInt(c))
		}
		mustExec(t, e, ctx, "INSERT INTO seen VALUES (101), (102), (3)")
	}
	plan, err := tp.probe.ExplainSQL(trendBodies[0], 1)
	if err != nil || !strings.Contains(plan, "trend via index trend_pkey (probe from subquery 0)") {
		t.Fatalf("probe engine's trigger body: %v\n%s", err, plan)
	}
	plan, err = tp.scan.ExplainSQL(trendBodies[0], 1)
	if err != nil || !strings.Contains(plan, "trend (full scan), not driven from its IN-subquery: no single-column index on c") {
		t.Fatalf("scan engine's trigger body: %v\n%s", err, plan)
	}
	return tp
}

func dump(t *testing.T, e *Engine, q string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, e, &ExecCtx{}, q).Rows)
}

// feed pushes one batch into the stream on both engines, each inside its
// own TE, and compares the maintained tables and the window. abort rolls
// the TE back instead of keeping it.
func (tp *trendPair) feed(abort bool, batch ...[2]int64) string {
	tp.t.Helper()
	rows := make([]types.Row, len(batch))
	for i, b := range batch {
		c := types.NewInt(b[0])
		if b[0] < 0 {
			c = types.Null
		}
		rows[i] = types.Row{c, types.NewInt(b[1])}
	}
	var states [2]string
	for i, e := range []*Engine{tp.probe, tp.scan} {
		ctx := freshCtx()
		if _, err := e.InsertRows(ctx, "s", rows); err != nil {
			tp.t.Fatalf("insert: %v", err)
		}
		if abort {
			ctx.Undo.Rollback()
		}
		states[i] = dump(tp.t, e, "SELECT c, n FROM trend ORDER BY c") +
			dump(tp.t, e, "SELECT c FROM seen ORDER BY c") +
			dump(tp.t, e, "SELECT c, ts FROM w ORDER BY ts, c")
	}
	if states[0] != states[1] {
		tp.t.Fatalf("after batch %v:\nprobe %s\nscan  %s", batch, states[0], states[1])
	}
	return states[0]
}

func TestWindowTriggerProbeMatchesScan(t *testing.T) {
	t.Run("ROWS window, SLIDE 2, multi-row batches", func(t *testing.T) {
		tp := newTrendPair(t, "ROWS 4 SLIDE 2")
		tp.feed(false, [2]int64{1, 1})                                    // filling: EXPIRED is empty
		tp.feed(false, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{1, 4})    // duplicates in INSERTED
		tp.feed(false, [2]int64{3, 5}, [2]int64{-1, 6}, [2]int64{101, 7}) // NULL in the delta; one slide of two
		// Two slides in one batch are one firing: INSERTED and EXPIRED hold
		// four rows each, c = 3 twice.
		tp.feed(false, [2]int64{3, 8}, [2]int64{3, 9}, [2]int64{7, 10}, [2]int64{0, 11})
		before := tp.feed(false, [2]int64{99, 12})                                 // expires c = 101: the DELETE body finds its row
		const want = "[(0, 1) (1, 0) (2, 0) (3, 0) (4, 0) (5, 0) (6, 0) (7, 1)]" + // trend
			"[(3) (102)]" + // seen
			"[(3, 9) (7, 10) (0, 11) (99, 12)]" // w
		if before != want {
			t.Fatalf("state %s\nwant  %s", before, want)
		}
		// An aborted TE (one slide, rows staged either side of it): the
		// undo log restores the target, the window and its slide
		// bookkeeping, on both engines alike.
		if after := tp.feed(true, [2]int64{5, 13}, [2]int64{5, 14}, [2]int64{6, 15}); after != before {
			t.Fatalf("abort left a trace:\nbefore %s\nafter  %s", before, after)
		}
		// Staged only: no slide, no firing.
		if after := tp.feed(false, [2]int64{5, 13}); after != before {
			t.Fatalf("a staged tuple fired the trigger:\nbefore %s\nafter  %s", before, after)
		}
	})
	t.Run("RANGE window evicting several rows at once", func(t *testing.T) {
		tp := newTrendPair(t, "RANGE 10 SLIDE 5 TIMESTAMP ts")
		tp.feed(false, [2]int64{1, 1}, [2]int64{2, 2}, [2]int64{2, 3}, [2]int64{102, 4})
		tp.feed(false, [2]int64{3, 9})
		got := tp.feed(false, [2]int64{4, 21}) // watermark 20: all five earlier rows expire together
		if want := "[(0, 0) (1, 0) (2, 0) (3, 0) (4, 1) (5, 0) (6, 0) (7, 0)][(3) (101)][(4, 21)]"; got != want {
			t.Fatalf("after mass eviction %s, want %s", got, want)
		}
		before := got
		if after := tp.feed(true, [2]int64{6, 40}, [2]int64{6, 41}); after != before {
			t.Fatalf("abort left a trace:\nbefore %s\nafter  %s", before, after)
		}
	})
}

// TestTriggerNewMaterializedOnlyWhenRead: a body that reads NEW gets the
// whole post-slide window; a window whose trigger bodies read only the
// deltas never has it materialized.
func TestTriggerNewMaterializedOnlyWhenRead(t *testing.T) {
	e := newTestEngine(t, `
		CREATE STREAM s (v BIGINT);
		CREATE WINDOW w ON s ROWS 3 SLIDE 1;
		CREATE WINDOW d ON s ROWS 3 SLIDE 1;
		CREATE TABLE total (id INT PRIMARY KEY, sum_v BIGINT, cnt BIGINT);
		CREATE TABLE tally (id INT PRIMARY KEY, n BIGINT);
	`)
	if err := e.CreateTrigger("sum_new", "w",
		"DELETE FROM total",
		"INSERT INTO total SELECT 0, SUM(v), COUNT(*) FROM NEW"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTrigger("count_delta", "d",
		"UPDATE tally SET n = n + 1 WHERE id IN (SELECT 0 FROM inserted)"); err != nil {
		t.Fatal(err)
	}
	if tr := e.triggers[e.cat.Relation("w")][0]; !tr.usesNew {
		t.Fatal("trigger reading NEW not marked")
	}
	if tr := e.triggers[e.cat.Relation("d")][0]; tr.usesNew {
		t.Fatal("delta-only trigger marked as reading NEW")
	}
	ctx := freshCtx()
	mustExec(t, e, ctx, "INSERT INTO tally VALUES (0, 0)")
	for v := int64(1); v <= 5; v++ {
		if _, err := e.InsertRows(ctx, "s", []types.Row{{types.NewInt(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Window holds 3, 4, 5.
	if got := dump(t, e, "SELECT sum_v, cnt FROM total"); got != "[(12, 3)]" {
		t.Fatalf("NEW did not hold the window contents: %s", got)
	}
	if got := dump(t, e, "SELECT n FROM tally"); got != "[(5)]" {
		t.Fatalf("delta-only trigger: %s", got)
	}
}
