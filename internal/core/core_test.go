package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

const testDDL = `
	CREATE TABLE totals (k INT PRIMARY KEY, n BIGINT DEFAULT 0);
	CREATE STREAM events (k INT, amt BIGINT);
	CREATE STREAM derived (k INT, amt BIGINT);
`

// buildApp wires a tiny two-stage workflow: events -> ingest -> derived ->
// apply. ingest doubles the amount; apply folds it into totals.
func buildApp(t testing.TB, cfg Config) *Store {
	t.Helper()
	st := Open(cfg)
	if err := st.ExecScript(testDDL); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "ingest",
		WriteSet: []string{"derived"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if err := ctx.Emit("derived", types.Row{r[0], types.NewInt(r[1].Int() * 2)}); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "apply",
		ReadSet:  []string{"totals"},
		WriteSet: []string{"totals"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				row, err := ctx.QueryRow("SELECT n FROM totals WHERE k = ?", r[0])
				if err != nil {
					return err
				}
				if row == nil {
					if _, err := ctx.Exec("INSERT INTO totals (k, n) VALUES (?, ?)", r[0], r[1]); err != nil {
						return err
					}
				} else if _, err := ctx.Exec("UPDATE totals SET n = n + ? WHERE k = ?", r[1], r[0]); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(eventsDF()); err != nil {
		t.Fatal(err)
	}
	return st
}

// eventsDF is the graph buildApp and buildPartApp deploy.
func eventsDF() *Dataflow {
	return &Dataflow{Name: "events", Nodes: []DataflowNode{
		{Proc: "ingest", Input: "events", Batch: 2, Emits: []string{"derived"}},
		{Proc: "apply", Input: "derived", Batch: 1},
	}}
}

func ingestN(t testing.TB, st *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Ingest("events", types.Row{types.NewInt(int64(i % 3)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
}

func totals(t testing.TB, st *Store) map[int64]int64 {
	t.Helper()
	res, err := st.Query("SELECT k, n FROM totals ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]int64{}
	for _, r := range res.Rows {
		out[r[0].Int()] = r[1].Int()
	}
	return out
}

func TestStoreEndToEnd(t *testing.T) {
	st := buildApp(t, Config{})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestN(t, st, 9)
	got := totals(t, st)
	// 9 events: k=0 gets 3 events*2, k=1 gets 3*2, k=2 gets 3*2
	want := map[int64]int64{0: 6, 1: 6, 2: 6}
	if len(got) != len(want) {
		t.Fatalf("totals = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("totals = %v want %v", got, want)
		}
	}
}

func TestRecoveryFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 10)
	want := totals(t, st)
	st.Stop() // simulated crash point: log persisted, no snapshot

	st2 := buildApp(t, Config{Dir: dir})
	if err := st2.Start(); err != nil { // Start triggers Recover
		t.Fatal(err)
	}
	defer st2.Stop()
	got := totals(t, st2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v want %v", got, want)
	}
	// The recovered engine keeps working and batch ids continue.
	ingestN(t, st2, 2)
	if totals(t, st2)[0] < want[0] {
		t.Fatal("post-recovery ingest lost")
	}
}

func TestRecoveryFromSnapshotPlusLog(t *testing.T) {
	dir := t.TempDir()
	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 6)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 4) // post-snapshot work lives only in the log
	want := totals(t, st)
	st.Stop()

	st2 := buildApp(t, Config{Dir: dir})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	got := totals(t, st2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v want %v", got, want)
	}
}

func TestRecoveryLogAllTEs(t *testing.T) {
	dir := t.TempDir()
	st := buildApp(t, Config{Dir: dir, LogMode: pe.LogAllTEs})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 8)
	want := totals(t, st)
	borderOnlyBytes := st.Metrics().Load(metrics.LogBytes)
	st.Stop()

	st2 := buildApp(t, Config{Dir: dir, LogMode: pe.LogAllTEs})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v want %v", got, want)
	}

	// Sanity: LogAllTEs writes more bytes than upstream backup would.
	dir2 := t.TempDir()
	stUB := buildApp(t, Config{Dir: dir2, LogMode: pe.LogBorderOnly})
	if err := stUB.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, stUB, 8)
	ubBytes := stUB.Metrics().Load(metrics.LogBytes)
	stUB.Stop()
	if ubBytes >= borderOnlyBytes {
		t.Errorf("upstream backup (%d B) should log less than per-TE logging (%d B)", ubBytes, borderOnlyBytes)
	}
}

func TestRecoveryIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 4)
	st.Stop()

	// Tear the log tail: recovery must still come up with a prefix.
	logPath := wal.LogPath(dir)
	data, err := readFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(logPath, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	st2 := buildApp(t, Config{Dir: dir})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	got := totals(t, st2)
	var sum int64
	for _, v := range got {
		sum += v
	}
	// 4 events = 2 border batches, each contributing 4; the torn tail
	// drops exactly the last record.
	if sum != 4 {
		t.Fatalf("torn-tail recovery sum = %d (totals %v)", sum, got)
	}
}

func TestCheckpointWithoutDirFails(t *testing.T) {
	st := buildApp(t, Config{})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.Checkpoint(); err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("err = %v", err)
	}
}

func readFile(p string) ([]byte, error)  { return os.ReadFile(p) }
func writeFile(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
