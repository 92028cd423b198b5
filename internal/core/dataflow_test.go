package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

const dfDDL = `
	CREATE TABLE sink (k INT PRIMARY KEY, n BIGINT DEFAULT 0) PARTITION BY k;
	CREATE STREAM feed (k INT, amt BIGINT) PARTITION BY k;
	CREATE STREAM mid (k INT, amt BIGINT) PARTITION BY k;
`

// dfStore builds a store with a two-stage absorb pipeline's schema and
// procedures registered but nothing deployed.
func dfStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	st := Open(cfg)
	if err := st.ExecScript(dfDDL); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "df_stage1",
		WriteSet: []string{"mid"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if err := ctx.Emit("mid", r); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "df_stage2",
		WriteSet: []string{"sink"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				res, err := ctx.Exec("UPDATE sink SET n = n + ? WHERE k = ?", r[1], r[0])
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					if _, err := ctx.Exec("INSERT INTO sink VALUES (?, ?)", r[0], r[1]); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

func pipelineDF() *Dataflow {
	return &Dataflow{
		Name: "pipeline",
		Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 2, Emits: []string{"mid"}},
			{Proc: "df_stage2", Input: "mid", Batch: 1},
		},
	}
}

// TestDeployValidation drives every whole-graph check and then proves the
// rejected deploys left no partition partially wired: after all the
// failures, ingest still reports the stream unbound on every partition and
// the corrected graph deploys cleanly.
func TestDeployValidation(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	bad := []struct {
		name string
		df   *Dataflow
		want string
	}{
		{"no name", &Dataflow{}, "needs a name"},
		{"empty graph", &Dataflow{Name: "empty"}, "at least one node"},
		{"unknown proc", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "nosuch", Input: "feed", Batch: 1}}}, "unknown procedure"},
		{"unknown stream", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "nosuch", Batch: 1}}}, "unknown stream"},
		{"table as input", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "sink", Batch: 1}}}, "is a TABLE"},
		{"bad batch", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 0}}}, "batch size 0"},
		{"negative batch", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: -3}}}, "batch size -3"},
		{"batch without input", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Batch: 4}}}, "no input stream but declares batch size"},
		{"double consumer", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 1},
			{Proc: "df_stage2", Input: "feed", Batch: 1}}}, "already has a consumer in the graph"},
		{"duplicate node proc", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 1},
			{Proc: "df_stage1", Input: "mid", Batch: 1}}}, "more than one node"},
		{"unknown emit", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 1, Emits: []string{"nosuch"}}}}, "unknown stream"},
		{"cycle", &Dataflow{Name: "g", Nodes: []DataflowNode{
			{Proc: "df_stage1", Input: "feed", Batch: 1, Emits: []string{"mid"}},
			{Proc: "df_stage2", Input: "mid", Batch: 1, Emits: []string{"feed"}}}}, "cycle"},
		{"unknown trigger relation", &Dataflow{Name: "g", Triggers: []DataflowTrigger{
			{Name: "tg", Relation: "nosuch", Bodies: []string{"DELETE FROM sink"}}}}, "does not exist"},
		{"trigger without body", &Dataflow{Name: "g", Triggers: []DataflowTrigger{
			{Name: "tg", Relation: "feed"}}}, "at least one body"},
		{"bad trigger body", &Dataflow{Name: "g", Triggers: []DataflowTrigger{
			{Name: "tg", Relation: "feed", Bodies: []string{"INSERT INTO nosuch SELECT * FROM new"}}}}, "body"},
	}
	for _, tc := range bad {
		err := st.Deploy(tc.df)
		if err == nil {
			t.Fatalf("%s: deploy succeeded, want error containing %q", tc.name, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// Nothing was wired by any failed attempt, on any partition.
	for i := 0; i < st.NumPartitions(); i++ {
		for _, stream := range []string{"feed", "mid"} {
			if err := st.PEAt(i).Ingest(stream, types.Row{types.NewInt(1), types.NewInt(1)}); err == nil ||
				!strings.Contains(err.Error(), "no bound procedure") {
				t.Fatalf("partition %d: stream %s unexpectedly wired after failed deploys: %v", i, stream, err)
			}
		}
	}
	if got := len(st.Dataflows()); got != 0 {
		t.Fatalf("failed deploys left %d dataflows registered", got)
	}
	// The corrected graph deploys cleanly over the same names.
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatalf("corrected deploy: %v", err)
	}
	if err := st.Deploy(pipelineDF()); err == nil || !strings.Contains(err.Error(), "already deployed") {
		t.Fatalf("duplicate graph name not rejected: %v", err)
	}
	// Streams consumed by a deployed graph cannot be claimed again.
	err := st.Deploy(&Dataflow{Name: "rival", Nodes: []DataflowNode{
		{Proc: "df_stage2", Input: "feed", Batch: 1}}})
	if err == nil || !strings.Contains(err.Error(), `in dataflow "pipeline"`) {
		t.Fatalf("cross-graph double consumer not rejected: %v", err)
	}
}

// TestDeployRunsEndToEnd deploys the two-stage pipeline on a partitioned
// store and checks the per-graph counters and catalog introspection.
func TestDeployRunsEndToEnd(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for i := 0; i < 10; i++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	res, err := st.Query("SELECT SUM(n) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 10 {
		t.Fatalf("sink sum = %d, want 10", got)
	}
	gs := st.Metrics().Graph("pipeline")
	if gs.Batches.Load() == 0 || gs.Triggered.Load() == 0 {
		t.Fatalf("graph counters not maintained: batches=%d triggered=%d",
			gs.Batches.Load(), gs.Triggered.Load())
	}
	if gs.Latency.Count() == 0 {
		t.Fatal("graph latency histogram empty")
	}

	// SHOW DATAFLOWS through the ad-hoc query path.
	show, err := st.Query("SHOW DATAFLOWS")
	if err != nil {
		t.Fatal(err)
	}
	if len(show.Rows) != 1 || show.Rows[0][0].Str() != "pipeline" {
		t.Fatalf("SHOW DATAFLOWS rows: %v", show.Rows)
	}
	if state := show.Rows[0][1].Str(); state != "running" {
		t.Fatalf("state = %q, want running", state)
	}

	// EXPLAIN DATAFLOW renders nodes, classification, and constraints.
	exp, err := st.Query("EXPLAIN DATAFLOW pipeline")
	if err != nil {
		t.Fatal(err)
	}
	text := exp.Rows[0][0].Str()
	for _, want := range []string{
		"df_stage1", "<- feed [batch 2] (border)",
		"df_stage2", "<- mid [batch 1] (interior, from df_stage1)",
		"border streams  : feed",
		"interior streams: mid",
		"natural order",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
}

// TestDeploySerialConstraintReport checks the deploy-time shared-writable
// report and its line in EXPLAIN DATAFLOW.
func TestDeploySerialConstraintReport(t *testing.T) {
	st := Open(Config{})
	if err := st.ExecScript(`
		CREATE TABLE shared (k INT PRIMARY KEY, n BIGINT DEFAULT 0);
		CREATE STREAM a (k INT);
		CREATE STREAM b (k INT);
	`); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w1", "w2"} {
		if err := st.RegisterProcedure(&pe.Procedure{
			Name:     name,
			WriteSet: []string{"shared"},
			Handler:  func(ctx *pe.ProcCtx) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Deploy(&Dataflow{Name: "g", Nodes: []DataflowNode{
		{Proc: "w1", Input: "a", Batch: 1, Emits: []string{"b"}},
		{Proc: "w2", Input: "b", Batch: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	df := st.Dataflows()[0]
	if len(df.SerialTables) != 1 || df.SerialTables[0] != "shared" {
		t.Fatalf("SerialTables = %v, want [shared]", df.SerialTables)
	}
	text, err := st.ExplainDataflow("g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "serial execution forced") || !strings.Contains(text, "shared") {
		t.Fatalf("explain missing serial constraint:\n%s", text)
	}
}

// TestPauseResumeLosesNoBatches hammers a paused/resumed graph with
// concurrent ingest and checks every tuple is eventually processed exactly
// once (run under -race in CI).
func TestPauseResumeLosesNoBatches(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	const (
		writers  = 4
		perWrite = 200
	)
	var sent atomic.Int64
	var writerWG, pauserWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWrite; i++ {
				k := int64(w*perWrite + i)
				if err := st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				sent.Add(1)
			}
		}(w)
	}
	// Pause/resume concurrently with the writers.
	pauserWG.Add(1)
	go func() {
		defer pauserWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.PauseDataflow("pipeline"); err != nil {
				t.Errorf("pause: %v", err)
				return
			}
			if err := st.ResumeDataflow("pipeline"); err != nil {
				t.Errorf("resume: %v", err)
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	pauserWG.Wait()
	if err := st.ResumeDataflow("pipeline"); err != nil { // lift any final pause
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	res, err := st.Query("SELECT SUM(n), COUNT(*) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != sent.Load() {
		t.Fatalf("sink sum = %d, want %d (batches lost or duplicated across pause/resume)", got, sent.Load())
	}
}

// TestPauseQueuesIngestAndDrains checks the drain semantics: pause cuts
// the graph at its stream edges (admitted executions finish; a chain
// caught mid-flight defers its downstream stage), subsequent ingest
// queues without executing, the graph's state is frozen while paused,
// EXPLAIN DATAFLOW shows what the gate holds, and resume dispatches the
// deferred work plus the backlog with nothing lost.
func TestPauseQueuesIngestAndDrains(t *testing.T) {
	st := dfStore(t, Config{})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for i := 0; i < 4; i++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PauseDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	// Pause returned once the admitted executions finished; depending on
	// where the gate caught the chain, 0..4 rows reached the sink. From
	// here on the count must not move until resume.
	res, _ := st.Query("SELECT COUNT(*) FROM sink")
	frozen := res.Rows[0][0].Int()
	if frozen > 4 {
		t.Fatalf("after pause: %d rows, want at most 4", frozen)
	}
	// Ingest while paused queues; nothing executes.
	for i := 4; i < 8; i++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	res, _ = st.Query("SELECT COUNT(*) FROM sink")
	if got := res.Rows[0][0].Int(); got != frozen {
		t.Fatalf("paused graph kept executing: %d rows, want %d", got, frozen)
	}
	show, _ := st.Query("SHOW DATAFLOWS")
	if state := show.Rows[0][1].Str(); state != "paused" {
		t.Fatalf("state = %q, want paused", state)
	}
	// The gate holds the four tuples ingested while paused, and every chain
	// of the first two batches (two tuples each) that has not reached the
	// sink as one deferred execution.
	var tuples, deferred int64
	text := explainDataflow(t, st, "pipeline")
	if _, err := fmt.Sscanf(text[strings.Index(text, "  held:"):],
		"  held: partition 0: %d tuples queued at ingest, %d executions deferred", &tuples, &deferred); err != nil {
		t.Fatalf("no held line (%v):\n%s", err, text)
	}
	if tuples != 4 || frozen+2*deferred != 4 {
		t.Fatalf("gate holds %d tuples and %d executions with %d rows in sink, want 4 and %d",
			tuples, deferred, frozen, (4-frozen)/2)
	}
	if err := st.ResumeDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	res, _ = st.Query("SELECT COUNT(*) FROM sink")
	if got := res.Rows[0][0].Int(); got != 8 {
		t.Fatalf("after resume: %d rows, want 8 (deferred + queued batches must dispatch)", got)
	}
	if text := explainDataflow(t, st, "pipeline"); strings.Contains(text, "held:") {
		t.Fatalf("a running graph reports held work:\n%s", text)
	}
}

// explainDataflow renders EXPLAIN DATAFLOW through the query path.
func explainDataflow(t *testing.T, st *Store, name string) string {
	t.Helper()
	res, err := st.Query("EXPLAIN DATAFLOW " + name)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Str()
}

// TestDataflowsSurviveRecovery checks the acceptance flow: a durable store
// whose graph is re-deployed by setup code is introspectable by name after
// a crash/recovery cycle, and replay ran through the graph's wiring.
func TestDataflowsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	build := func() *Store {
		st := dfStore(t, Config{Dir: dir, Partitions: 2})
		if err := st.Deploy(pipelineDF()); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := build()
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	if err := st.Stop(); err != nil { // crash: state lives only in the log
		t.Fatal(err)
	}

	st2 := build()
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	show, err := st2.Query("SHOW DATAFLOWS")
	if err != nil {
		t.Fatal(err)
	}
	if len(show.Rows) != 1 || show.Rows[0][0].Str() != "pipeline" ||
		show.Rows[0][1].Str() != "running" {
		t.Fatalf("SHOW DATAFLOWS after recovery: %v", show.Rows)
	}
	res, err := st2.Query("SELECT SUM(n) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 10 {
		t.Fatalf("recovered sink sum = %d, want 10", got)
	}
	// The recovered graph still processes new input.
	if err := st2.Ingest("feed",
		types.Row{types.NewInt(100), types.NewInt(1)},
		types.Row{types.NewInt(101), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st2.FlushBatches()
	st2.Drain()
	res, _ = st2.Query("SELECT SUM(n) FROM sink")
	if got := res.Rows[0][0].Int(); got != 12 {
		t.Fatalf("post-recovery ingest: sum = %d, want 12", got)
	}
}

// TestCheckpointKeepsLoggedPauseState: a pause or resume is acknowledged
// once its record is durable and its state published. A Checkpoint that
// starts between the two waits for the publication, so the paused graphs
// its cut writes into partition 0's snapshot are the acknowledged state.
func TestCheckpointKeepsLoggedPauseState(t *testing.T) {
	for _, pause := range []bool{true, false} {
		t.Run(map[bool]string{true: "pause", false: "resume"}[pause], func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 2}
			st := buildPartApp(t, cfg)
			must(t, st.Start())
			op := st.ResumeDataflow
			if pause {
				op = st.PauseDataflow
			} else {
				must(t, st.PauseDataflow("events"))
			}
			checkpointed := make(chan error, 1)
			testHookAfterPauseLogged = func() {
				testHookAfterPauseLogged = nil
				go func() { checkpointed <- st.Checkpoint() }()
			}
			err := op("events")
			testHookAfterPauseLogged = nil
			must(t, err)
			must(t, <-checkpointed)
			must(t, st.Stop())
			re := buildPartApp(t, cfg)
			must(t, re.Recover())
			defer re.Stop()
			if got := re.schema.Load().Dataflow("events").Paused; got != pause {
				t.Fatalf("recovered paused = %v after an acknowledged %s", got, t.Name())
			}
		})
	}
}

// TestDropTriggerBelongsToItsDataflow: a trigger deployed with a graph is
// removed only with the graph. A DDL script's DROP TRIGGER is refused, with
// or without IF EXISTS, so the graph keeps listing what every partition
// runs and growth (which syncs newcomers to the Schema and redeploys its
// graphs) builds partitions that carry the trigger like the old ones.
func TestDropTriggerBelongsToItsDataflow(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.ExecScript("CREATE TABLE audit (k INT, amt BIGINT) PARTITION BY k;"); err != nil {
		t.Fatal(err)
	}
	df := pipelineDF()
	df.Triggers = []DataflowTrigger{{Name: "audit_feed", Relation: "feed",
		Bodies: []string{"INSERT INTO audit SELECT k, amt FROM new"}}}
	if err := st.Deploy(df); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{"DROP TRIGGER audit_feed", "DROP TRIGGER IF EXISTS audit_feed"} {
		if err := st.ExecScript(ddl); err == nil || !strings.Contains(err.Error(), "UndeployDataflow") {
			t.Fatalf("%s: err = %v, want a refusal naming UndeployDataflow", ddl, err)
		}
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	const keys = 32
	for k := int64(0); k < keys; k++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	for _, q := range []string{"SELECT COUNT(*) FROM audit", "SELECT SUM(n) FROM sink"} {
		res, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != keys {
			t.Fatalf("%s = %d, want %d", q, got, keys)
		}
	}
	for i := 0; i < st.NumPartitions(); i++ {
		res, err := st.PEAt(i).Query("SELECT COUNT(*) FROM audit")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() == 0 {
			t.Errorf("partition %d audited nothing: its feed carries no trigger", i)
		}
	}
	if rows := st.DataflowsResult().Rows; len(rows) != 1 || rows[0][4].Int() != 1 {
		t.Fatalf("SHOW DATAFLOWS = %v, want the pipeline with its one trigger", rows)
	}
}

// TestPausedBacklogBound checks the queue-or-reject semantics: a paused
// graph queues a bounded backlog and then rejects further ingest.
func TestPausedBacklogBound(t *testing.T) {
	st := dfStore(t, Config{})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.PauseDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 1<<16)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(1)}
	}
	if err := st.Ingest("feed", rows...); err != nil {
		t.Fatalf("backlog within bound rejected: %v", err)
	}
	err := st.Ingest("feed", types.Row{types.NewInt(0), types.NewInt(1)})
	if err == nil || !strings.Contains(err.Error(), "backlog") {
		t.Fatalf("over-bound ingest not rejected: %v", err)
	}
	if err := st.ResumeDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	res, qerr := st.Query("SELECT COUNT(*) FROM sink")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got := res.Rows[0][0].Int(); got != 1<<16 {
		t.Fatalf("resumed backlog processed %d rows, want %d", got, 1<<16)
	}
}

// TestPauseGatesOLTPEntryEmissions checks that a paused graph's interior
// edges are gated too: an OLTP entry node's emission while paused defers
// the downstream execution until resume (nothing runs, nothing is lost).
func TestPauseGatesOLTPEntryEmissions(t *testing.T) {
	st := Open(Config{})
	if err := st.ExecScript(`
		CREATE TABLE sunk (k INT PRIMARY KEY, n BIGINT DEFAULT 0);
		CREATE STREAM events (k INT);
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name: "entry",
		Handler: func(ctx *pe.ProcCtx) error {
			return ctx.Emit("events", types.Row{ctx.Params[0]})
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "absorb",
		WriteSet: []string{"sunk"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if _, err := ctx.Exec("INSERT INTO sunk (k) VALUES (?)", r[0]); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(&Dataflow{Name: "g", Nodes: []DataflowNode{
		{Proc: "entry", Emits: []string{"events"}},
		{Proc: "absorb", Input: "events", Batch: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.PauseDataflow("g"); err != nil {
		t.Fatal(err)
	}
	// OLTP calls keep working while the graph is paused...
	for i := 0; i < 3; i++ {
		if _, err := st.Call("entry", types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	// ...but their emissions must not execute the paused graph's stages.
	res, err := st.Query("SELECT COUNT(*) FROM sunk")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 0 {
		t.Fatalf("paused graph executed %d triggered TEs from OLTP emissions", got)
	}
	if err := st.ResumeDataflow("g"); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	res, err = st.Query("SELECT COUNT(*) FROM sunk")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 3 {
		t.Fatalf("deferred emissions after resume: %d rows, want 3", got)
	}
}

// TestPauseScopedToGraph checks that pausing one graph does not block the
// pause call behind another graph's traffic, and the untouched graph
// keeps processing while the first is paused.
func TestPauseScopedToGraph(t *testing.T) {
	st := dfStore(t, Config{})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	// A second, independent graph over its own stream.
	if err := st.ExecScript(`CREATE STREAM feed2 (k INT, amt BIGINT);`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "df_other",
		WriteSet: []string{"sink"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				res, err := ctx.Exec("UPDATE sink SET n = n + ? WHERE k = ?", r[1], r[0])
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					if _, err := ctx.Exec("INSERT INTO sink VALUES (?, ?)", r[0], r[1]); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(&Dataflow{Name: "other", Nodes: []DataflowNode{
		{Proc: "df_other", Input: "feed2", Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.PauseDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	// The untouched graph keeps running while "pipeline" is paused.
	if err := st.Ingest("feed2", types.Row{types.NewInt(1000), types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	res, err := st.Query("SELECT n FROM sink WHERE k = 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("other graph blocked by pause: %v", res.Rows)
	}
	if err := st.ResumeDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
}

// TestUndeployDataflow removes graphs live: in-flight work drains, the
// wiring and catalog entries disappear on every partition, a producer
// cannot be removed out from under a downstream consumer graph, and the
// freed streams are immediately redeployable.
func TestUndeployDataflow(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	// Two chained graphs: producer feeds mid, consumer drains mid to sink.
	producer := &Dataflow{Name: "producer", Nodes: []DataflowNode{
		{Proc: "df_stage1", Input: "feed", Batch: 1, Emits: []string{"mid"}}}}
	consumer := &Dataflow{Name: "consumer", Nodes: []DataflowNode{
		{Proc: "df_stage2", Input: "mid", Batch: 1}}}
	if err := st.Deploy(producer); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(consumer); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	if err := st.UndeployDataflow("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "unknown dataflow") {
		t.Fatalf("unknown undeploy err = %v", err)
	}
	// The producer cannot go while the consumer reads its interior stream.
	if err := st.UndeployDataflow("producer"); err == nil ||
		!strings.Contains(err.Error(), `dataflow "consumer" consumes its stream "mid"`) {
		t.Fatalf("producer undeploy err = %v", err)
	}

	for k := 0; k < 8; k++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(k)), types.NewInt(5)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	// Consumer first, then producer: both drain and unwind cleanly.
	if err := st.UndeployDataflow("consumer"); err != nil {
		t.Fatal(err)
	}
	if err := st.UndeployDataflow("producer"); err != nil {
		t.Fatal(err)
	}
	if got := len(st.Dataflows()); got != 0 {
		t.Fatalf("%d dataflows still registered", got)
	}
	// Everything admitted before the undeploy landed in sink.
	res, err := st.Query("SELECT COUNT(*), SUM(n) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 8 || res.Rows[0][1].Int() != 40 {
		t.Fatalf("sink after undeploy: %v", res.Rows)
	}
	// The streams are unbound again on every partition...
	for i := 0; i < st.NumPartitions(); i++ {
		for _, stream := range []string{"feed", "mid"} {
			if err := st.PEAt(i).Ingest(stream, types.Row{types.NewInt(1), types.NewInt(1)}); err == nil ||
				!strings.Contains(err.Error(), "no bound procedure") {
				t.Fatalf("partition %d: stream %s still wired after undeploy: %v", i, stream, err)
			}
		}
	}
	// ...so the full pipeline redeploys over the same names and runs.
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest("feed", types.Row{types.NewInt(100), types.NewInt(1)},
		types.Row{types.NewInt(101), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	res, err = st.Query("SELECT COUNT(*) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("sink after redeploy: %v", res.Rows)
	}
}

// TestUndeployPausedDataflow undeploys a graph that is already paused with
// backlog queued behind the gate: the backlog is discarded with the graph
// and the store stays consistent.
func TestUndeployPausedDataflow(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.Ingest("feed", types.Row{types.NewInt(1), types.NewInt(1)},
		types.Row{types.NewInt(2), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	if err := st.PauseDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	// Queue backlog behind the gate; it is dropped with the graph.
	if err := st.Ingest("feed", types.Row{types.NewInt(3), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := st.UndeployDataflow("pipeline"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("SELECT COUNT(*) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("sink after paused undeploy: %v", res.Rows)
	}
	// The freed stream accepts a new deployment and ingest flows again.
	if err := st.Deploy(pipelineDF()); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest("feed", types.Row{types.NewInt(4), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	res, err = st.Query("SELECT COUNT(*) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("sink after redeploy: %v", res.Rows)
	}
}

// TestDeployDataflowStatement deploys the two-stage pipeline through the
// textual DDL form — the path a wire client like sstorecli uses — and
// checks the graph runs end to end, including an EE trigger declared
// inline, and that parser and validator errors both surface through the
// statement.
func TestDeployDataflowStatement(t *testing.T) {
	st := dfStore(t, Config{Partitions: 2})
	if err := st.ExecScript(`CREATE TABLE audit (k INT PRIMARY KEY, amt BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(`DEPLOY DATAFLOW pipeline (
		NODE df_stage1 INPUT feed BATCH 2 EMITS (mid),
		NODE df_stage2 INPUT mid BATCH 1,
		TRIGGER audit_feed ON feed AS ('INSERT INTO audit SELECT k, amt FROM new')
	);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "pipeline" {
		t.Fatalf("deploy result: %+v", res)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for i := 0; i < 10; i++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	sum, err := st.Query("SELECT SUM(n) FROM sink")
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Rows[0][0].Int(); got != 10 {
		t.Fatalf("sink sum = %d, want 10", got)
	}
	aud, err := st.Query("SELECT COUNT(*) FROM audit")
	if err != nil {
		t.Fatal(err)
	}
	if got := aud.Rows[0][0].Int(); got != 10 {
		t.Fatalf("audit rows = %d, want 10 (EE trigger from the text form)", got)
	}
	show, err := st.Query("SHOW DATAFLOWS")
	if err != nil {
		t.Fatal(err)
	}
	if len(show.Rows) != 1 || show.Rows[0][0].Str() != "pipeline" {
		t.Fatalf("SHOW DATAFLOWS after text deploy: %v", show.Rows)
	}

	// The Query path accepts the statement too, and runs the same
	// whole-graph validation as the Go API.
	if _, err := st.Query("DEPLOY DATAFLOW pipeline (NODE df_stage2 INPUT mid BATCH 1)"); err == nil ||
		!strings.Contains(err.Error(), "already deployed") {
		t.Fatalf("duplicate name through text form: %v", err)
	}
	if _, err := st.Query("DEPLOY DATAFLOW g2 (NODE nosuch INPUT feed BATCH 1)"); err == nil ||
		!strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("validator bypassed by text form: %v", err)
	}
	if _, err := st.Query("DEPLOY DATAFLOW broken (NODE df_stage1 INPUT feed)"); err == nil ||
		!strings.Contains(err.Error(), "BATCH") {
		t.Fatalf("parse error not surfaced: %v", err)
	}
	if got := len(st.Dataflows()); got != 1 {
		t.Fatalf("failed text deploys left %d dataflows", got)
	}
}
