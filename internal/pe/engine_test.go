package pe

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/types"
)

func newTestPE(t testing.TB, cfg Config, ddl string) *Engine {
	t.Helper()
	ex := ee.New(catalog.New(), &metrics.Metrics{})
	if err := ex.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	return New(ex, cfg)
}

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

const counterDDL = `
	CREATE TABLE counter (id INT PRIMARY KEY, n BIGINT DEFAULT 0);
	CREATE STREAM in_s (v BIGINT);
	CREATE STREAM mid_s (v BIGINT);
	CREATE TABLE log_t (stage VARCHAR, v BIGINT, seq BIGINT);
`

// registerChain wires in_s -> sp_a -> mid_s -> sp_b, where each stage
// appends (stage, value, seq) to log_t using a shared sequence counter.
func registerChain(t testing.TB, e *Engine, batchSize int) {
	t.Helper()
	registerChainWith(t, e, batchSize, nil)
}

// registerChainWith is registerChain with a hook sp_a calls first.
func registerChainWith(t testing.TB, e *Engine, batchSize int, hook func(*ProcCtx)) {
	t.Helper()
	appendLog := func(ctx *ProcCtx, stage string) error {
		for _, row := range ctx.Batch {
			res, err := ctx.Exec("SELECT n FROM counter WHERE id = 0")
			if err != nil {
				return err
			}
			seq := int64(0)
			if len(res.Rows) == 0 {
				if _, err := ctx.Exec("INSERT INTO counter (id, n) VALUES (0, 0)"); err != nil {
					return err
				}
			} else {
				seq = res.Rows[0][0].Int()
			}
			if _, err := ctx.Exec("UPDATE counter SET n = n + 1 WHERE id = 0"); err != nil {
				return err
			}
			if _, err := ctx.Exec("INSERT INTO log_t VALUES (?, ?, ?)",
				types.NewString(stage), row[0], types.NewInt(seq)); err != nil {
				return err
			}
		}
		return nil
	}
	must(t, e.RegisterProcedure(&Procedure{
		Name:     "sp_a",
		ReadSet:  []string{"counter"},
		WriteSet: []string{"counter", "log_t"},
		Handler: func(ctx *ProcCtx) error {
			if hook != nil {
				hook(ctx)
			}
			if err := appendLog(ctx, "a"); err != nil {
				return err
			}
			return ctx.Emit("mid_s", ctx.Batch...)
		},
	}))
	must(t, e.RegisterProcedure(&Procedure{
		Name:     "sp_b",
		ReadSet:  []string{"counter"},
		WriteSet: []string{"counter", "log_t"},
		Handler: func(ctx *ProcCtx) error {
			return appendLog(ctx, "b")
		},
	}))
	must(t, e.BindStream("g", "in_s", "sp_a", batchSize))
	must(t, e.BindStream("g", "mid_s", "sp_b", 1))
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowChainOrdering(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	registerChain(t, e, 1)
	must(t, e.Start())
	defer e.Stop()
	for v := int64(1); v <= 5; v++ {
		must(t, e.Ingest("in_s", intRow(v)))
	}
	e.Drain()
	// Workflow order: a(1) b(1) a(2) b(2) ... strictly interleaved.
	checkStages(t, e, "a1 b1 a2 b2 a3 b3 a4 b4 a5 b5")
	// Stream tuples consumed by sp_b must be garbage collected.
	if n, _ := e.Query("SELECT COUNT(*) FROM mid_s"); n.Rows[0][0].Int() != 0 {
		t.Error("mid_s not GC'd")
	}
	if n, _ := e.Query("SELECT COUNT(*) FROM in_s"); n.Rows[0][0].Int() != 0 {
		t.Error("in_s retained rows (border batches are not stored)")
	}
	m := e.Metrics().Snapshot()
	if m[metrics.BatchesBorder] != 5 || m[metrics.TriggeredTxns] != 5 {
		t.Errorf("border=%d triggered=%d", m[metrics.BatchesBorder], m[metrics.TriggeredTxns])
	}
}

// checkStages compares the chain's execution order, as log_t recorded it,
// with want ("a1 b1 ...").
func checkStages(t *testing.T, e *Engine, want string) {
	t.Helper()
	res, err := e.Query("SELECT stage, v FROM log_t ORDER BY seq")
	must(t, err)
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%s%d", r[0].Str(), r[1].Int()))
	}
	if strings.Join(got, " ") != want {
		t.Fatalf("stages ran as %s, want %s", strings.Join(got, " "), want)
	}
}

// TestPauseKeepsWorkflowOrder: a pause that catches a chain between its
// stages defers the rest of the chain and the batch queued behind it, and
// resume runs them in that order, so batch 1's chain still ends before
// batch 2 starts. sp_a(1) is parked inside its execution while batch 2 is
// admitted and the gate closes.
func TestPauseKeepsWorkflowOrder(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	entered, release := make(chan struct{}), make(chan struct{})
	registerChainWith(t, e, 1, func(ctx *ProcCtx) {
		if ctx.Batch[0][0].Int() == 1 {
			close(entered)
			<-release
		}
	})
	must(t, e.Start())
	defer e.Stop()
	must(t, e.Ingest("in_s", intRow(1)))
	<-entered
	must(t, e.Ingest("in_s", intRow(2))) // sp_a(2) queued behind sp_a(1)
	e.PauseGraph("g")
	close(release)
	e.WaitGraphIdle("g")
	if tuples, deferred := e.Held("g"); tuples != 0 || deferred != 2 {
		t.Fatalf("gate holds %d tuples and %d executions, want 0 and 2 (sp_b(1), sp_a(2))", tuples, deferred)
	}
	checkStages(t, e, "a1")
	must(t, e.ResumeGraph("g"))
	e.Drain()
	checkStages(t, e, "a1 b1 a2 b2")
}

func TestBatchSizeGrouping(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	registerChain(t, e, 3)
	must(t, e.Start())
	defer e.Stop()
	for v := int64(1); v <= 7; v++ { // 7 tuples: two full batches + partial
		must(t, e.Ingest("in_s", intRow(v)))
	}
	e.Drain()
	if got := e.Metrics().Load(metrics.BatchesBorder); got != 2 {
		t.Fatalf("border batches = %d, want 2 (partial must wait)", got)
	}
	e.FlushBatches()
	e.Drain()
	if got := e.Metrics().Load(metrics.BatchesBorder); got != 3 {
		t.Fatalf("after flush: %d", got)
	}
	res, _ := e.Query("SELECT COUNT(*) FROM log_t WHERE stage = 'a'")
	if res.Rows[0][0].Int() != 7 {
		t.Fatalf("processed %d tuples", res.Rows[0][0].Int())
	}
}

func TestNaturalOrderPreserved(t *testing.T) {
	// Natural order: TEs of the same procedure execute in batch order even
	// when ingested from multiple goroutines (arrival order is admission
	// order).
	e := newTestPE(t, Config{}, counterDDL)
	registerChain(t, e, 1)
	must(t, e.Start())
	defer e.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = e.Ingest("in_s", intRow(int64(g*100+i)))
			}
		}(g)
	}
	wg.Wait()
	e.Drain()
	// Per-source monotonicity: for each goroutine g, its values must appear
	// in its submission order within stage a.
	res, _ := e.Query("SELECT v FROM log_t WHERE stage = 'a' ORDER BY seq")
	lastPer := map[int64]int64{}
	for _, r := range res.Rows {
		v := r[0].Int()
		g := v / 100
		if prev, ok := lastPer[g]; ok && v <= prev {
			t.Fatalf("source %d went backwards: %d after %d", g, v, prev)
		}
		lastPer[g] = v
	}
	if len(res.Rows) != 100 {
		t.Fatalf("lost tuples: %d", len(res.Rows))
	}
}

func TestOLTPCall(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "bump",
		Handler: func(ctx *ProcCtx) error {
			if len(ctx.Params) != 1 {
				return fmt.Errorf("want 1 param")
			}
			if _, err := ctx.Exec("INSERT INTO counter (id, n) VALUES (?, 1)", ctx.Params[0]); err != nil {
				// exists: bump
				_, err = ctx.Exec("UPDATE counter SET n = n + 1 WHERE id = ?", ctx.Params[0])
				return err
			}
			return nil
		},
	}))
	must(t, e.Start())
	defer e.Stop()
	for i := 0; i < 5; i++ {
		if _, err := e.Call("bump", types.NewInt(7)); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := e.Query("SELECT n FROM counter WHERE id = 7")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("n = %v", res.Rows)
	}
	if _, err := e.Call("nosuch"); err == nil {
		t.Error("unknown procedure accepted")
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "half",
		Handler: func(ctx *ProcCtx) error {
			if _, err := ctx.Exec("INSERT INTO counter (id, n) VALUES (1, 1)"); err != nil {
				return err
			}
			if err := ctx.Emit("mid_s", intRow(42)); err != nil {
				return err
			}
			return ctx.Abort("changed my mind")
		},
	}))
	must(t, e.RegisterProcedure(&Procedure{
		Name:    "sink",
		Handler: func(ctx *ProcCtx) error { return nil },
	}))
	must(t, e.BindStream("g", "mid_s", "sink", 1))
	must(t, e.Start())
	defer e.Stop()
	if _, err := e.Call("half"); err == nil || !strings.Contains(err.Error(), "changed my mind") {
		t.Fatalf("err = %v", err)
	}
	res, _ := e.Query("SELECT COUNT(*) FROM counter")
	if res.Rows[0][0].Int() != 0 {
		t.Error("aborted insert visible")
	}
	res, _ = e.Query("SELECT COUNT(*) FROM mid_s")
	if res.Rows[0][0].Int() != 0 {
		t.Error("aborted emission visible")
	}
	e.Drain()
	// Crucially: no downstream TE fired for the aborted emission.
	if got := e.Metrics().Load(metrics.TriggeredTxns); got != 0 {
		t.Errorf("aborted TE triggered %d downstream txns", got)
	}
	if e.Metrics().Load(metrics.TxnAborted) != 1 {
		t.Error("abort not counted")
	}
}

func TestPanicBecomesAbort(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "boom",
		Handler: func(ctx *ProcCtx) error {
			_, _ = ctx.Exec("INSERT INTO counter (id, n) VALUES (9, 9)")
			panic("kaboom")
		},
	}))
	must(t, e.Start())
	defer e.Stop()
	if _, err := e.Call("boom"); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
	res, _ := e.Query("SELECT COUNT(*) FROM counter")
	if res.Rows[0][0].Int() != 0 {
		t.Error("panic left partial state")
	}
	// Engine still works.
	if _, err := e.Query("SELECT COUNT(*) FROM counter"); err != nil {
		t.Fatal(err)
	}
}

func TestBatchVisibleToSQL(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "sql_batch",
		Handler: func(ctx *ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO log_t SELECT 'x', v, 0 FROM batch WHERE v % 2 = 0")
			return err
		},
	}))
	must(t, e.BindStream("g", "in_s", "sql_batch", 4))
	must(t, e.Start())
	defer e.Stop()
	must(t, e.Ingest("in_s", intRow(1), intRow(2), intRow(3), intRow(4)))
	e.Drain()
	res, _ := e.Query("SELECT v FROM log_t ORDER BY v")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("batch SQL: %v", res.Rows)
	}
}

func TestHStoreModeRejectsBindings(t *testing.T) {
	e := newTestPE(t, Config{HStoreMode: true}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{Name: "p", Handler: func(*ProcCtx) error { return nil }}))
	if err := e.BindStream("g", "in_s", "p", 1); err == nil {
		t.Fatal("H-Store mode accepted a PE trigger binding")
	}
}

func TestIngestUnboundStreamFails(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.Start())
	defer e.Stop()
	if err := e.Ingest("in_s", intRow(1)); err == nil {
		t.Fatal("ingest into unbound stream accepted")
	}
}

func TestRegistrationErrors(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	if err := e.RegisterProcedure(&Procedure{Name: ""}); err == nil {
		t.Error("empty procedure accepted")
	}
	must(t, e.RegisterProcedure(&Procedure{Name: "p", Handler: func(*ProcCtx) error { return nil }}))
	if err := e.RegisterProcedure(&Procedure{Name: "P", Handler: func(*ProcCtx) error { return nil }}); err == nil {
		t.Error("duplicate (case-insensitive) accepted")
	}
	if err := e.BindStream("g", "nosuch", "p", 1); err == nil {
		t.Error("binding unknown stream accepted")
	}
	if err := e.BindStream("g", "in_s", "nosuch", 1); err == nil {
		t.Error("binding unknown proc accepted")
	}
	must(t, e.BindStream("g", "in_s", "p", 1))
	if err := e.BindStream("g", "in_s", "p", 1); err == nil {
		t.Error("double binding accepted")
	}
}

// TestBatchSizeValidation pins what an edge needs: a dataflow graph to
// belong to and a batch size of at least 1. A rejected bind leaves the
// stream unbound.
func TestBatchSizeValidation(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{Name: "p", Handler: func(*ProcCtx) error { return nil }}))
	if err := e.BindStream("g", "in_s", "p", 0); err == nil ||
		!strings.Contains(err.Error(), "batch size 0") {
		t.Fatalf("bind accepted batch size 0: %v", err)
	}
	if err := e.BindStream("g", "in_s", "p", -5); err == nil {
		t.Fatal("bind accepted a negative batch size")
	}
	if err := e.BindStream("", "in_s", "p", 1); err == nil ||
		!strings.Contains(err.Error(), "needs a dataflow graph") {
		t.Fatalf("bind accepted an edge with no graph: %v", err)
	}
	if _, ok := e.BoundGraph("in_s"); ok {
		t.Fatal("a rejected bind left the stream bound")
	}
	must(t, e.BindStream("g", "in_s", "p", 3))
	if g, ok := e.BoundGraph("in_s"); !ok || g != "g" {
		t.Fatalf("bind recorded graph %q, ok=%v", g, ok)
	}
	e.UnbindStream("in_s")
	if _, ok := e.BoundGraph("in_s"); ok {
		t.Fatal("unbind left the stream bound")
	}
}

func TestReplayRebuildState(t *testing.T) {
	// Execute a workflow live with an in-memory logger, then replay the
	// records into a fresh engine and compare final states.
	var records []*LogRecord
	logger := loggerFunc(func(rec *LogRecord) error {
		records = append(records, cloneRecord(rec))
		return nil
	})

	build := func() *Engine {
		e := newTestPE(t, Config{}, counterDDL)
		registerChain(t, e, 2)
		return e
	}
	live := build()
	live.SetLogger(logger, LogBorderOnly)
	must(t, live.Start())
	for v := int64(1); v <= 6; v++ {
		must(t, live.Ingest("in_s", intRow(v)))
	}
	live.Drain()
	wantLog, _ := live.Query("SELECT stage, v, seq FROM log_t ORDER BY seq")
	live.Stop()

	// Only border records should be logged in upstream-backup mode.
	for _, r := range records {
		if r.Kind != RecBorder {
			t.Fatalf("unexpected record kind %d in LogBorderOnly", r.Kind)
		}
	}
	if len(records) != 3 {
		t.Fatalf("%d border records, want 3", len(records))
	}

	re := build()
	for _, rec := range records {
		must(t, re.Replay(rec))
	}
	gotLog, err := queryStopped(re, "SELECT stage, v, seq FROM log_t ORDER BY seq")
	must(t, err)
	if len(gotLog.Rows) != len(wantLog.Rows) {
		t.Fatalf("replayed %d rows want %d", len(gotLog.Rows), len(wantLog.Rows))
	}
	for i := range gotLog.Rows {
		if !gotLog.Rows[i].Equal(wantLog.Rows[i]) {
			t.Fatalf("row %d: %v want %v", i, gotLog.Rows[i], wantLog.Rows[i])
		}
	}
	if re.NextBatchID() != 3 {
		t.Errorf("batch counter not restored: %d", re.NextBatchID())
	}
}

// TestReplayOfDownstreamAbort: under upstream backup a border record's
// re-derived interior TE that aborted live aborts again in replay — that
// TE's abort, not a failed recovery — and the replayed store matches the
// live one: the committed stage's rows, the aborted batches' tuples left
// in the stream, and the abort count.
func TestReplayOfDownstreamAbort(t *testing.T) {
	var records []*LogRecord
	logger := loggerFunc(func(rec *LogRecord) error {
		records = append(records, cloneRecord(rec))
		return nil
	})
	live := newTestPE(t, Config{}, counterDDL)
	registerFlaky(t, live)
	live.SetLogger(logger, LogBorderOnly)
	must(t, live.Start())
	for v := int64(1); v <= 6; v++ {
		must(t, live.Ingest("in_s", intRow(v)))
	}
	live.Drain()
	state := func(e *Engine) string {
		var out []string
		for _, q := range []string{"SELECT v FROM log_t ORDER BY v", "SELECT v FROM mid_s ORDER BY v"} {
			res, err := queryStopped(e, q)
			must(t, err)
			out = append(out, rowsString(res.Rows))
		}
		return fmt.Sprintf("%s aborts=%d", strings.Join(out, " "), e.Metrics().Load(metrics.TxnAborted))
	}
	live.Stop()
	want := state(live)
	if want != "[(1) (3) (5)] [(2) (4) (6)] aborts=3" {
		t.Fatalf("live run: %s", want)
	}

	re := newTestPE(t, Config{}, counterDDL)
	registerFlaky(t, re)
	for _, rec := range records {
		must(t, re.Replay(rec))
	}
	if got := state(re); got != want {
		t.Fatalf("replayed state %s, want %s", got, want)
	}
}

// TestReplayAllTEsMode replays a LogAllTEs log, whole and with its last
// triggered record lost, to the live run's end state.
func TestReplayAllTEsMode(t *testing.T) {
	var records []*LogRecord
	logger := loggerFunc(func(rec *LogRecord) error {
		records = append(records, cloneRecord(rec))
		return nil
	})
	build := func() *Engine {
		e := newTestPE(t, Config{}, counterDDL)
		registerChain(t, e, 1)
		return e
	}
	live := build()
	live.SetLogger(logger, LogAllTEs)
	must(t, live.Start())
	for v := int64(1); v <= 4; v++ {
		must(t, live.Ingest("in_s", intRow(v)))
	}
	live.Drain()
	want, _ := live.Query("SELECT stage, v, seq FROM log_t ORDER BY seq")
	live.Stop()

	// Both border and triggered records present.
	kinds := map[RecordKind]int{}
	for _, r := range records {
		kinds[r.Kind]++
	}
	if kinds[RecBorder] != 4 || kinds[RecTriggered] != 4 {
		t.Fatalf("kinds = %v", kinds)
	}

	// replay replays recs, then finishes with finishLog installed, and
	// checks the end state against the live run's.
	replay := func(recs []*LogRecord, finishLog Logger) {
		t.Helper()
		re := build()
		re.SetLogger(nil, LogAllTEs) // mode matters for replay semantics
		for _, rec := range recs {
			must(t, re.Replay(rec))
		}
		re.SetLogger(finishLog, LogAllTEs)
		re.FinishReplay()
		got, err := queryStopped(re, "SELECT stage, v, seq FROM log_t ORDER BY seq")
		must(t, err)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("replayed %d rows want %d", len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if !got.Rows[i].Equal(want.Rows[i]) {
				t.Fatalf("row %d: %v want %v", i, got.Rows[i], want.Rows[i])
			}
		}
		if left, err := queryStopped(re, "SELECT v FROM mid_s"); err != nil || len(left.Rows) != 0 {
			t.Fatalf("mid_s after replay = %v, %v; want empty", left, err)
		}
	}
	replay(records, nil)

	// The last triggered record lost, as a torn log tail loses it: its
	// execution is re-derived from its border record, runs when replay
	// finishes, and is logged again.
	last := records[len(records)-1]
	if last.Kind != RecTriggered {
		t.Fatalf("last record is kind %d, want RecTriggered", last.Kind)
	}
	var relogged []*LogRecord
	replay(records[:len(records)-1], loggerFunc(func(rec *LogRecord) error {
		relogged = append(relogged, cloneRecord(rec))
		return nil
	}))
	if len(relogged) != 1 || relogged[0].Kind != RecTriggered || relogged[0].Proc != last.Proc ||
		relogged[0].BatchID != last.BatchID || !slices.EqualFunc(relogged[0].Batch, last.Batch, types.Row.Equal) {
		t.Fatalf("finishing replay logged %+v, want the lost record %+v", relogged, last)
	}
}

// queryStopped runs a read-only query directly against a stopped engine.
func queryStopped(e *Engine, sqlText string) (*ee.Result, error) {
	return e.ee.ExecSQL(&ee.ExecCtx{ReadOnly: true}, sqlText)
}

// loggerFunc is a Logger whose records are durable once appended, as under
// SyncNever and SyncEveryRecord: every future it hands out is resolved.
type loggerFunc func(rec *LogRecord) error

func (f loggerFunc) Append(rec *LogRecord, waited bool) (<-chan error, error) {
	if err := f(rec); err != nil || !waited {
		return nil, err
	}
	ack := make(chan error, 1)
	ack <- nil
	return ack, nil
}

func (f loggerFunc) SyncCommits() error { return nil }

func (f loggerFunc) LogFailed(error) {}

func cloneRecord(rec *LogRecord) *LogRecord {
	c := *rec
	c.Params = append([]types.Value(nil), rec.Params...)
	c.Batch = make([]types.Row, len(rec.Batch))
	for i, r := range rec.Batch {
		c.Batch[i] = r.Clone()
	}
	return &c
}

// heldLogger is a Logger whose futures resolve only when the test (or
// SyncCommits) says so, as under SyncGroupCommit with the fsync held open,
// recording whether each record was waited on.
type heldLogger struct {
	mu       sync.Mutex
	waited   []RecordKind // records that took a future, in order
	unwaited []RecordKind // records appended with nobody waiting
	futures  []chan error
	syncs    int
}

func (l *heldLogger) Append(rec *LogRecord, waited bool) (<-chan error, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !waited {
		l.unwaited = append(l.unwaited, rec.Kind)
		return nil, nil
	}
	ch := make(chan error, 1)
	l.waited = append(l.waited, rec.Kind)
	l.futures = append(l.futures, ch)
	return ch, nil
}

func (l *heldLogger) LogFailed(error) {}

func (l *heldLogger) SyncCommits() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncs++
	for _, ch := range l.futures {
		ch <- nil
	}
	l.futures = nil
	return nil
}

// TestUnwaitedCommitsSkipTheAckPipeline pins who waits on the log: a
// request with no responder (border and triggered batches) is appended
// un-waited — no future, no acker slot, latency observed at commit — while
// a Call takes a future and is acknowledged only once it resolves; the
// checkpoint barrier's SyncCommits covers both.
func TestUnwaitedCommitsSkipTheAckPipeline(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	registerChain(t, e, 1)
	must(t, e.RegisterProcedure(&Procedure{Name: "noop", Handler: func(*ProcCtx) error { return nil }}))
	logger := &heldLogger{}
	e.SetLogger(logger, LogAllTEs)
	must(t, e.Start())
	defer e.Stop()

	const batches = 4
	for v := int64(1); v <= batches; v++ {
		must(t, e.Ingest("in_s", intRow(v)))
	}
	e.Drain()
	logger.mu.Lock()
	nWaited, nUnwaited := len(logger.waited), len(logger.unwaited)
	logger.mu.Unlock()
	if nWaited != 0 || nUnwaited != 2*batches {
		t.Fatalf("%d border+triggered records took a future, %d went un-waited; want 0 and %d",
			nWaited, nUnwaited, 2*batches)
	}
	e.ackMu.Lock()
	queued := e.ackPending
	e.ackMu.Unlock()
	if queued != 0 {
		t.Fatalf("%d responder-less commits crossed the acker", queued)
	}
	if n := e.met.Snapshot()[metrics.LatencyCount]; n != 2*batches {
		t.Fatalf("latency observed for %d of %d commits nobody acks", n, 2*batches)
	}

	// A Call has a responder: future taken, no ack while it is unresolved.
	done := e.CallAsync("noop")
	e.Drain()
	select {
	case cr := <-done:
		t.Fatalf("call acknowledged before its commit future resolved: %+v", cr)
	default:
	}
	logger.mu.Lock()
	nWaited = len(logger.waited)
	logger.mu.Unlock()
	if nWaited != 1 {
		t.Fatalf("%d futures taken for one call", nWaited)
	}
	// The barrier drains the pipeline through SyncCommits before fn runs.
	must(t, e.RunExclusive(func() error {
		select {
		case cr := <-done:
			return cr.Err
		default:
			return fmt.Errorf("barrier ran with the call still unacknowledged")
		}
	}))
	if logger.syncs == 0 {
		t.Fatal("barrier never called SyncCommits")
	}
}

// TestResolvedFuturesAckInCommitOrder: a logger whose futures are resolved
// on append (SyncNever, SyncEveryRecord) takes the same path as group
// commit. Calls are appended in commit order and acknowledged in that order
// by the acker, each with the state its own execution saw; border batches
// append un-waited and never cross the acker; and a barrier finds nothing
// pending.
func TestResolvedFuturesAckInCommitOrder(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	registerChain(t, e, 1)
	must(t, e.RegisterProcedure(&Procedure{Name: "bump", Handler: func(ctx *ProcCtx) error {
		if _, err := ctx.Exec("UPDATE counter SET n = n + 1 WHERE id = 1"); err != nil {
			return err
		}
		res, err := ctx.Query("SELECT n FROM counter WHERE id = 1")
		ctx.SetResult(res)
		return err
	}}))
	var mu sync.Mutex
	var kinds []RecordKind
	e.SetLogger(loggerFunc(func(rec *LogRecord) error {
		mu.Lock()
		kinds = append(kinds, rec.Kind)
		mu.Unlock()
		return nil
	}), LogBorderOnly)
	must(t, e.Start())
	defer e.Stop()
	exec(t, e, "INSERT INTO counter VALUES (1, 0)")

	const calls = 64
	var done []<-chan CallResult
	for i := 0; i < calls; i++ {
		done = append(done, e.CallAsync("bump"))
		if i%8 == 0 {
			must(t, e.Ingest("in_s", intRow(int64(i))))
		}
	}
	// The acker delivers in queue order: once the last call is answered,
	// every earlier one already is.
	last := <-done[calls-1]
	if last.Err != nil {
		t.Fatal(last.Err)
	}
	for i, ch := range done[:calls-1] {
		select {
		case cr := <-ch:
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			if got := cr.Result.Rows[0][0].Int(); got != int64(i+1) {
				t.Fatalf("call %d was answered with n = %d", i, got)
			}
		default:
			t.Fatalf("call %d unanswered after call %d was acknowledged", i, calls-1)
		}
	}
	if got := last.Result.Rows[0][0].Int(); got != calls {
		t.Fatalf("last call answered with n = %d, want %d", got, calls)
	}
	must(t, e.RunExclusive(func() error {
		e.ackMu.Lock()
		defer e.ackMu.Unlock()
		if e.ackPending != 0 {
			return fmt.Errorf("barrier ran with %d acks pending", e.ackPending)
		}
		return nil
	}))
	mu.Lock()
	defer mu.Unlock()
	nCalls, nBorders := 0, 0
	for _, k := range kinds {
		switch k {
		case RecCall:
			nCalls++
		case RecBorder:
			nBorders++
		default:
			t.Fatalf("record kind %d logged under upstream backup", k)
		}
	}
	// The seeding INSERT is an ad-hoc write, logged as a call of AdHocProc.
	if nCalls != calls+1 || nBorders != calls/8 {
		t.Fatalf("%d call and %d border records, want %d and %d", nCalls, nBorders, calls+1, calls/8)
	}
}
