package pe

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

const kvDDL = `CREATE TABLE kv (k INT PRIMARY KEY, v BIGINT);`

// TestQueryRunsOffTheWorker proves the headline property of the MVCC read
// path: an ad-hoc SELECT completes while the partition worker is stuck
// inside a long-running procedure — the old path would queue behind it.
func TestQueryRunsOffTheWorker(t *testing.T) {
	e := newTestPE(t, Config{}, kvDDL)
	block := make(chan struct{})
	entered := make(chan struct{})
	if err := e.RegisterProcedure(&Procedure{
		Name: "stall",
		Handler: func(*ProcCtx) error {
			close(entered)
			<-block
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}

	done := e.CallAsync("stall")
	<-entered // the worker is now parked inside the procedure

	res, err := e.Query("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Fatalf("snapshot read under a stalled worker: %v", res.Rows)
	}
	if got := e.Metrics().Load(metrics.SnapshotReads); got == 0 {
		t.Fatal("snapshot-read counter not bumped")
	}
	close(block)
	if cr := <-done; cr.Err != nil {
		t.Fatal(cr.Err)
	}
}

// TestSnapshotPinSurvivesDeleteTruncateCheckpointGC pins a sequence, then
// deletes the row, truncates the table, runs the checkpoint barrier (which
// sweeps versions), and still reads the pinned view; after release the
// sweep reclaims it.
func TestSnapshotPinSurvivesDeleteTruncateCheckpointGC(t *testing.T) {
	e := newTestPE(t, Config{}, kvDDL)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := int64(1); i <= 4; i++ {
		if _, err := e.Exec("INSERT INTO kv VALUES (?, ?)", types.NewInt(i), types.NewInt(i*10)); err != nil {
			t.Fatal(err)
		}
	}

	pin := e.AcquireSnapshot()
	seq := pin.Seq()
	if _, err := e.Exec("DELETE FROM kv WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("DELETE FROM kv"); err != nil { // truncate the rest
		t.Fatal(err)
	}
	// Checkpoint-style barrier: drains commits and runs the version sweep.
	if err := e.RunExclusive(func() error { return nil }); err != nil {
		t.Fatal(err)
	}

	res, err := e.QueryAtSeq(seq, "SELECT v FROM kv WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("reader opened before delete lost the row: %v", res.Rows)
	}
	res, err = e.QueryAtSeq(seq, "SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("pinned snapshot count = %v", res.Rows)
	}
	// The live view is empty.
	if res, err = e.Query("SELECT COUNT(*) FROM kv"); err != nil || res.Rows[0][0].Int() != 0 {
		t.Fatalf("live count: %v %v", res, err)
	}
	e.ReleaseSnapshot(pin)

	// With the pin gone the barrier sweep reclaims every dead version.
	if err := e.RunExclusive(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	rel := e.EE().Catalog().Relation("kv")
	if versions, dead := rel.Table.VersionStats(); versions != 0 || dead != 0 {
		t.Fatalf("after release+GC: versions=%d dead=%d", versions, dead)
	}
	if got := e.Metrics().Load(metrics.GCRuns); got < 2 {
		t.Fatalf("GCRuns = %d", got)
	}
}

// TestQueryRejectsNonSelect: DML pushed through Query fails in the read-only
// context and changes nothing.
func TestQueryRejectsNonSelect(t *testing.T) {
	e := newTestPE(t, Config{}, kvDDL)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.Query("INSERT INTO kv VALUES (1, 1)"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("INSERT through Query must fail read-only, got %v", err)
	}
	// And it must not have left a row behind.
	res, err := e.Query("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].Int() != 0 {
		t.Fatalf("count after rejected insert: %v %v", res, err)
	}
}

// TestSnapshotSeesOnlyCommittedProcedureState verifies a concurrent reader
// cannot observe a procedure's intermediate writes: it sees the counter
// before or after the whole transaction, never mid-flight.
func TestSnapshotSeesOnlyCommittedProcedureState(t *testing.T) {
	e := newTestPE(t, Config{}, kvDDL)
	if err := e.RegisterProcedure(&Procedure{
		Name: "twostep",
		Handler: func(ctx *ProcCtx) error {
			if _, err := ctx.Exec("UPDATE kv SET v = v + 1 WHERE k = 1"); err != nil {
				return err
			}
			time.Sleep(200 * time.Microsecond) // widen the mid-txn window
			_, err := ctx.Exec("UPDATE kv SET v = v + 1 WHERE k = 2")
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.Exec("INSERT INTO kv VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("INSERT INTO kv VALUES (2, 0)"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	fail := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := e.Query("SELECT SUM(v) FROM kv")
			if err != nil {
				fail <- err.Error()
				return
			}
			if s := res.Rows[0][0].Int(); s%2 != 0 {
				fail <- "observed a half-applied transaction (odd sum)"
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := e.Call("twostep"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
