package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// An ad-hoc write is a logged one-statement transaction: a call of the
// built-in pe.AdHocProc on one partition, or a coordinated transaction whose
// legs name it. The tests below recover a store from its log alone (no
// checkpoint after the writes) and check that what the clients were
// acknowledged is there.

// TestAdHocWriteReadByCallRecovers: a logged Call that read an ad-hoc
// written row replays against the same state, so recovery ends with the
// totals the live store showed. With one partition the keyed UPDATE and
// DELETE run on that partition alone.
func TestAdHocWriteReadByCallRecovers(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: parts, Sync: wal.SyncEveryRecord}
			st := buildPartApp(t, cfg)
			if err := st.Start(); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"INSERT INTO totals (k, n) VALUES (1, 1)",
				"INSERT INTO totals (k, n) VALUES (2, 2)",
				"UPDATE totals SET n = n + 10 WHERE k = 1",
				"DELETE FROM totals WHERE k = 2",
			} {
				if _, err := st.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			res, err := st.Call("bump", types.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsAffected != 1 {
				t.Fatalf("bump read no ad-hoc row: %d rows affected", res.RowsAffected)
			}
			want := totals(t, st)
			if fmt.Sprint(want) != "map[1:111]" {
				t.Fatalf("live totals = %v, want map[1:111]", want)
			}
			if err := st.Stop(); err != nil {
				t.Fatal(err)
			}
			re := buildPartApp(t, cfg)
			if err := re.Recover(); err != nil {
				t.Fatal(err)
			}
			defer re.Stop()
			if got := totalsOf(re); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered totals = %v, want %v", got, want)
			}
		})
	}
}

// buildPinnedApp is buildApp (a pinned events stream bound to ingest, which
// feeds apply) on a partitioned store with a partitioned source table.
func buildPinnedApp(t *testing.T, cfg Config) *Store {
	t.Helper()
	st := buildApp(t, cfg)
	if err := st.ExecScript("CREATE TABLE src (k INT PRIMARY KEY, amt BIGINT) PARTITION BY k;"); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdHocStreamInsertFiresNoTrigger: an ad-hoc INSERT into a stream with a
// bound PE trigger stores the tuple and fires nothing, live and at replay,
// whether it runs on the stream's one partition or as the write leg of an
// INSERT ... SELECT from a partitioned source. The recovered store equals
// the live one.
func TestAdHocStreamInsertFiresNoTrigger(t *testing.T) {
	for _, lm := range []struct {
		name string
		mode pe.LogMode
	}{{"border", pe.LogBorderOnly}, {"all", pe.LogAllTEs}} {
		t.Run(lm.name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncEveryRecord, LogMode: lm.mode}
			st := buildPinnedApp(t, cfg)
			if err := st.Start(); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"INSERT INTO src VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
				"INSERT INTO events VALUES (9, 5)",
				"INSERT INTO events SELECT k, amt FROM src",
			} {
				if _, err := st.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			st.Drain()
			res, err := st.Query("SELECT COUNT(*) FROM events")
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int(); n != 5 {
				t.Fatalf("events holds %d tuples, want the 5 inserted", n)
			}
			if got := totals(t, st); len(got) != 0 {
				t.Fatalf("an ad-hoc insert fired the events trigger: totals = %v", got)
			}
			if n := st.Metrics().Load(metrics.TriggeredTxns); n != 0 {
				t.Fatalf("%d triggered executions ran", n)
			}
			if err := st.Stop(); err != nil {
				t.Fatal(err)
			}
			live := storeState(st)

			re := buildPinnedApp(t, cfg)
			if err := re.Recover(); err != nil {
				t.Fatal(err)
			}
			recovered := storeState(re)
			if err := re.Stop(); err != nil {
				t.Fatal(err)
			}
			if recovered != live {
				t.Fatalf("recovered store differs from the live one:\n--- live\n%s--- recovered\n%s", live, recovered)
			}
		})
	}
}

// TestAdHocReadsAndFailuresLogNothing: Exec of a SELECT takes the snapshot
// read path on every partition count, and a statement that fails (a
// duplicate key, on one partition or spanning two; DDL on a started store)
// aborts; neither appends a log record.
func TestAdHocReadsAndFailuresLogNothing(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			st := buildPartApp(t, Config{Dir: t.TempDir(), Partitions: parts, Sync: wal.SyncEveryRecord})
			if err := st.Start(); err != nil {
				t.Fatal(err)
			}
			defer st.Stop()
			if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (1, 1), (2, 2), (3, 3), (4, 4)"); err != nil {
				t.Fatal(err)
			}
			met := st.Metrics()
			records, reads, commits := met.Load(metrics.LogRecords), met.Load(metrics.SnapshotReads), met.Load(metrics.TxnCommitted)
			res, err := st.Exec("SELECT COUNT(*) FROM totals")
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int(); n != 4 {
				t.Fatalf("Exec of a SELECT counted %d rows, want 4", n)
			}
			if met.Load(metrics.SnapshotReads) == reads || met.Load(metrics.TxnCommitted) != commits {
				t.Fatal("Exec of a SELECT ran as a transaction, not a snapshot read")
			}
			for _, q := range []string{
				"INSERT INTO totals (k, n) VALUES (1, 9)",
				"INSERT INTO totals (k, n) VALUES (1, 9), (2, 9), (3, 9), (4, 9)",
				"CREATE TABLE later (a INT)",
				"UPDATE nosuch SET a = 1",
			} {
				if _, err := st.Exec(q); err == nil {
					t.Fatalf("%s succeeded", q)
				}
			}
			if n := met.Load(metrics.LogRecords) - records; n != 0 {
				t.Fatalf("a read and four failed writes appended %d log records", n)
			}
			if got := fmt.Sprint(totals(t, st)); got != "map[1:1 2:2 3:3 4:4]" {
				t.Fatalf("failed writes changed totals: %s", got)
			}
		})
	}
}

// TestAdHocProcIsReserved: the built-in procedure can be neither registered
// nor called directly — a direct call would skip the router's partition-key
// checks.
func TestAdHocProcIsReserved(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	for _, name := range []string{pe.AdHocProc, strings.ToLower(pe.AdHocProc)} {
		err := st.RegisterProcedure(&pe.Procedure{Name: name, Handler: func(*pe.ProcCtx) error { return nil }})
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("RegisterProcedure(%q) = %v, want a refusal", name, err)
		}
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Call(pe.AdHocProc, types.NewString("INSERT INTO totals (k, n) VALUES (1, 1)")); err == nil {
		t.Fatal("Store.Call ran the ad-hoc procedure")
	}
	if got := totals(t, st); len(got) != 0 {
		t.Fatalf("a refused call wrote totals = %v", got)
	}
}
