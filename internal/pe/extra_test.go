package pe

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/types"
)

func TestRunExclusiveSerializesWithTxns(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{
		Name: "ins",
		Handler: func(ctx *ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO counter (id, n) VALUES (?, 0)", ctx.Params[0])
			return err
		},
	}))
	must(t, e.Start())
	defer e.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = e.Call("ins", types.NewInt(int64(i)))
		}(i)
	}
	// The exclusive function must observe a consistent count (no txn mid-
	// flight) every time it runs.
	sawConsistent := true
	for k := 0; k < 10; k++ {
		err := e.RunExclusive(func() error {
			res, err := e.ee.ExecSQL(&ee.ExecCtx{ReadOnly: true}, "SELECT COUNT(*) FROM counter")
			if err != nil {
				return err
			}
			if res.Rows[0][0].Int() < 0 {
				sawConsistent = false
			}
			return nil
		})
		must(t, err)
	}
	wg.Wait()
	e.Drain()
	if !sawConsistent {
		t.Fatal("exclusive saw inconsistent state")
	}
}

func TestNotStartedGuards(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{Name: "p", Handler: func(*ProcCtx) error { return nil }}))
	if _, err := e.Call("p"); err == nil || !strings.Contains(err.Error(), "not started") {
		t.Fatalf("Call before Start: %v", err)
	}
	if _, err := e.Query("SELECT 1 FROM counter"); err == nil {
		t.Fatal("Query before Start accepted")
	}
	if _, err := e.Exec("DELETE FROM counter"); err == nil {
		t.Fatal("Exec before Start accepted")
	}
	if err := e.RunExclusive(func() error { return nil }); err == nil {
		t.Fatal("RunExclusive before Start accepted")
	}
	must(t, e.Start())
	defer e.Stop()
	if _, err := e.Call("p"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestLatencyObserved(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.RegisterProcedure(&Procedure{Name: "p", Handler: func(*ProcCtx) error { return nil }}))
	must(t, e.Start())
	defer e.Stop()
	for i := 0; i < 20; i++ {
		if _, err := e.Call("p"); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Metrics().Snapshot()
	if s[metrics.LatencyCount] != 20 {
		t.Fatalf("latency samples = %d", s[metrics.LatencyCount])
	}
}

// registerFlaky wires in_s -> producer -> mid_s -> flaky, whose TE aborts
// on an even value and records an odd one in log_t.
func registerFlaky(t testing.TB, e *Engine) {
	t.Helper()
	must(t, e.RegisterProcedure(&Procedure{
		Name: "producer",
		Handler: func(ctx *ProcCtx) error {
			return ctx.Emit("mid_s", ctx.Batch...)
		},
	}))
	must(t, e.RegisterProcedure(&Procedure{
		Name: "flaky",
		Handler: func(ctx *ProcCtx) error {
			if ctx.Batch[0][0].Int()%2 == 0 {
				return fmt.Errorf("rejecting even value")
			}
			_, err := ctx.Exec("INSERT INTO log_t VALUES ('ok', ?, 0)", ctx.Batch[0][0])
			return err
		},
	}))
	must(t, e.BindStream("g", "in_s", "producer", 1))
	must(t, e.BindStream("g", "mid_s", "flaky", 1))
}

func TestDownstreamAbortDropsBatchOnly(t *testing.T) {
	// A failing interior stage must not corrupt upstream state: the
	// upstream commit stands, the downstream batch is dropped, and the
	// engine keeps running.
	e := newTestPE(t, Config{}, counterDDL)
	registerFlaky(t, e)
	must(t, e.Start())
	defer e.Stop()
	for v := int64(1); v <= 6; v++ {
		must(t, e.Ingest("in_s", intRow(v)))
	}
	e.Drain()
	res, err := e.Query("SELECT COUNT(*) FROM log_t")
	must(t, err)
	if res.Rows[0][0].Int() != 3 { // odd values only
		t.Fatalf("flaky stage processed %v", res.Rows)
	}
	if got := e.Metrics().Load(metrics.TxnAborted); got != 3 {
		t.Fatalf("aborts = %d", got)
	}
	// Aborted batches' stream tuples leak only until their TE aborts: the
	// GC happens inside the TE, which rolled back, so the tuples remain in
	// the stream (at-least-once semantics for a retry policy to consume).
	res, err = e.Query("SELECT COUNT(*) FROM mid_s")
	must(t, err)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("aborted batches in stream: %v", res.Rows)
	}
}
