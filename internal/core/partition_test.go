package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
)

const partDDL = `
	CREATE TABLE totals (k INT PRIMARY KEY, n BIGINT DEFAULT 0) PARTITION BY k;
	CREATE TABLE ref (id INT PRIMARY KEY, v BIGINT);
	CREATE STREAM events (k INT, amt BIGINT) PARTITION BY k;
	CREATE STREAM derived (k INT, amt BIGINT) PARTITION BY k;
	CREATE TABLE applied (k INT, b BIGINT) PARTITION BY k;
`

// buildPartApp is buildApp over hash-partitioned relations: events ->
// ingest -> derived -> apply, with per-key state in totals. apply aborts
// a batch holding a negative amount, and ledgers each row it applies in
// applied with its border batch's id.
func buildPartApp(t testing.TB, cfg Config) *Store {
	t.Helper()
	st := Open(cfg)
	if err := st.ExecScript(partDDL); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(ingestProc()); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "apply",
		ReadSet:  []string{"totals"},
		WriteSet: []string{"totals", "applied"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if r[1].Int() < 0 {
					return ctx.Abort("negative amount")
				}
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
				if _, err := ctx.Exec("INSERT INTO applied (k, b) VALUES (?, ?)", r[0], types.NewInt(int64(ctx.BatchID))); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "bump",
		ReadSet:        []string{"totals"},
		WriteSet:       []string{"totals"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			res, err := ctx.Exec("UPDATE totals SET n = n + 100 WHERE k = ?", ctx.Params[0])
			if err != nil {
				return err
			}
			ctx.SetResult(res)
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

// testHookIngest, when set, runs in ingestProc before it emits.
var testHookIngest func()

// ingestProc is the border stage of buildPartApp's dataflow: each event
// (k, amt) becomes (k, 2·amt) on derived.
func ingestProc() *pe.Procedure {
	return &pe.Procedure{
		Name:     "ingest",
		WriteSet: []string{"derived"},
		Handler: func(ctx *pe.ProcCtx) error {
			if hook := testHookIngest; hook != nil {
				hook()
			}
			for _, r := range ctx.Batch {
				if err := ctx.Emit("derived", types.Row{r[0], types.NewInt(r[1].Int() * 2)}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func ingestKeys(t testing.TB, st *Store, keys int, perKey int) {
	t.Helper()
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			if err := st.Ingest("events", types.Row{types.NewInt(int64(k)), types.NewInt(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.FlushBatches()
	st.Drain()
}

func TestPartitionedEndToEnd(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if st.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", st.NumPartitions())
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 8, 3) // 8 keys x 3 events, each doubled
	got := totals(t, st)
	if len(got) != 8 {
		t.Fatalf("totals = %v", got)
	}
	for k, v := range got {
		if v != 6 {
			t.Fatalf("totals[%d] = %d want 6 (%v)", k, v, got)
		}
	}
	// The hash split must actually spread keys: with 8 keys over 4
	// partitions at least 2 partitions hold data.
	used := 0
	for i := 0; i < st.NumPartitions(); i++ {
		rel := st.partList()[i].cat.Relation("totals")
		if rel.Table.Count() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("hash split used only %d partitions", used)
	}
}

func TestPartitionedQueryMerge(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 6, 2)

	// Global aggregate: COUNT and SUM combined across partitions.
	res, err := st.Query("SELECT COUNT(*), SUM(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 6 || res.Rows[0][1].Int() != 6*4 {
		t.Fatalf("global agg = %v", res.Rows)
	}

	// GROUP BY over the key: each group lives on one partition.
	res, err = st.Query("SELECT k, SUM(n) FROM totals GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("groups = %v", res.Rows)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) || r[1].Int() != 4 {
			t.Fatalf("group row %d = %v", i, r)
		}
	}

	// Plain select with ORDER BY ... DESC and LIMIT across partitions.
	res, err = st.Query("SELECT k, n FROM totals ORDER BY k DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 5 || res.Rows[2][0].Int() != 3 {
		t.Fatalf("order/limit rows = %v", res.Rows)
	}

	// MIN / MAX combine.
	res, err = st.Query("SELECT MIN(k), MAX(k) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 || res.Rows[0][1].Int() != 5 {
		t.Fatalf("min/max = %v", res.Rows)
	}

	// AVG over every partition's rows.
	res, err = st.Query("SELECT AVG(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Float(); got != 4 {
		t.Fatalf("AVG(n) = %v want 4", got)
	}

	// LIMIT under GROUP BY, applied to the ordered groups.
	res, err = st.Query("SELECT k, SUM(n) FROM totals GROUP BY k ORDER BY k LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 0 || res.Rows[1][0].Int() != 1 ||
		res.Rows[0][1].Int() != 4 || res.Rows[1][1].Int() != 4 {
		t.Fatalf("agg+LIMIT merge = %v", res.Rows)
	}
}

func TestPartitionedCallRouting(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 4, 1)
	// bump routes by its first parameter; the update must land on the
	// partition owning that key, so exactly one row changes per call.
	for k := 0; k < 4; k++ {
		res, err := st.Call("bump", types.NewInt(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("bump(%d) affected %d rows", k, res.RowsAffected)
		}
	}
	res, err := st.Query("SELECT SUM(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 4*2+4*100 {
		t.Fatalf("sum after bumps = %d", got)
	}
}

func TestPartitionedExecRouting(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 3})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	// Routed INSERT: each row lands on exactly one partition.
	for k := 0; k < 9; k++ {
		if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (?, ?)",
			types.NewInt(int64(k)), types.NewInt(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	var stored int
	for i := 0; i < st.NumPartitions(); i++ {
		stored += st.partList()[i].cat.Relation("totals").Table.Count()
	}
	if stored != 9 {
		t.Fatalf("stored %d rows across partitions, want 9 (no duplication)", stored)
	}

	// Broadcast UPDATE on a partitioned table: RowsAffected sums shards.
	res, err := st.Exec("UPDATE totals SET n = n + 1 WHERE k < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 5 {
		t.Fatalf("broadcast update affected %d", res.RowsAffected)
	}

	// Replicated reference table: INSERT applies to every partition, and a
	// query over it runs on partition 0 (no double counting).
	if _, err := st.Exec("INSERT INTO ref VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumPartitions(); i++ {
		if n := st.partList()[i].cat.Relation("ref").Table.Count(); n != 1 {
			t.Fatalf("partition %d ref rows = %d", i, n)
		}
	}
	q, err := st.Query("SELECT COUNT(*) FROM ref")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0].Int() != 1 {
		t.Fatalf("replicated count = %v (double counted?)", q.Rows)
	}

	// A multi-row INSERT spanning partitions runs as one coordinated
	// transaction: every tuple lands on its owning partition.
	res, err = st.Exec("INSERT INTO totals (k, n) VALUES (100, 0), (101, 0), (102, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("spanning INSERT affected %d rows", res.RowsAffected)
	}
	for _, k := range []int64{100, 101, 102} {
		owner := st.partitionFor(types.NewInt(k))
		q, err := st.partList()[owner].pe.Query("SELECT k FROM totals WHERE k = ?", types.NewInt(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Rows) != 1 {
			t.Fatalf("key %d not on its owning partition %d", k, owner)
		}
	}
}

func TestPartitionedRecovery(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 8, 2)
	want := totals(t, st)
	if err := st.Stop(); err != nil { // crash point: logs persisted
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	got := totals(t, st2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v want %v", got, want)
	}
	// Routing is deterministic across processes: rows recovered into
	// partition k are still owned by partition k, so keyed calls work.
	for k := 0; k < 8; k++ {
		res, err := st2.Call("bump", types.NewInt(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("post-recovery bump(%d) affected %d rows", k, res.RowsAffected)
		}
	}
}

func TestPartitionedCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 3})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 6, 2)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 6, 1) // post-snapshot work lives only in the logs
	want := totals(t, st)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 3})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v want %v", got, want)
	}
}

func TestSinglePartitionConfigUnchanged(t *testing.T) {
	// Partitions: 0 and 1 both mean the classic single-partition engine,
	// including for PARTITION BY schemas.
	for _, n := range []int{0, 1} {
		st := buildPartApp(t, Config{Partitions: n})
		if st.NumPartitions() != 1 {
			t.Fatalf("Partitions=%d -> NumPartitions=%d", n, st.NumPartitions())
		}
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		ingestKeys(t, st, 4, 2)
		got := totals(t, st)
		for k, v := range got {
			if v != 4 {
				t.Fatalf("totals[%d] = %d", k, v)
			}
		}
		if err := st.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPartitionHashDeterministic(t *testing.T) {
	vals := []types.Value{
		types.NewInt(7), types.NewFloat(7.0), types.NewString("abc"),
		types.NewBool(true), types.NewTimestamp(123456), types.Null,
	}
	// Int 7 and Float 7.0 compare equal, so they must hash equal.
	if partitionHash(vals[0]) != partitionHash(vals[1]) {
		t.Fatal("BIGINT 7 and FLOAT 7.0 must hash alike")
	}
	for _, v := range vals {
		if partitionHash(v) != partitionHash(v) {
			t.Fatalf("hash of %v unstable", v)
		}
	}
}

// TestCallMissingPartitionParam pins that a keyed procedure invoked with
// too few parameters errors instead of silently running on partition 0.
func TestCallMissingPartitionParam(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Call("bump"); err == nil ||
		!strings.Contains(err.Error(), "routes by parameter") {
		t.Fatalf("err = %v", err)
	}
}

// TestPartitionCountMismatchRejected pins that a durability directory
// written with N partitions refuses to open with a different count instead
// of silently orphaning WAL segments or misrouting recovered keys.
func TestPartitionCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 8, 1)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 1})
	if err := st2.Start(); err == nil || !strings.Contains(err.Error(), "written with 4 partitions") {
		st2.Stop()
		t.Fatalf("err = %v", err)
	}

	// The matching count still opens (the mismatch did not poison the dir).
	st3 := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st3.Start(); err != nil {
		t.Fatal(err)
	}
	defer st3.Stop()
	if got := totals(t, st3); len(got) != 8 {
		t.Fatalf("recovered totals = %v", got)
	}
}

// TestConcurrentRoutingUnderRace drives routed ingest, keyed calls,
// broadcast writes, and fan-out queries from concurrent goroutines; its
// value is under -race, where it verifies the router's synchronization.
// (Runtime DDL through Exec is impossible — the engine's prepared path
// rejects DDL — so schema stays fixed here, as the API requires.)
func TestConcurrentRoutingUnderRace(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := st.Exec("UPDATE totals SET n = n + 1 WHERE k < 0"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := st.Ingest("events", types.Row{types.NewInt(int64(i)), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Query("SELECT COUNT(*) FROM totals"); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	st.FlushBatches()
	st.Drain()
}

// TestRound4Guards pins LEFT JOIN onto a partitioned right side, Exec(SELECT)
// completeness and the refusal of a partition-column UPDATE.
func TestRound4Guards(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 6, 1)
	if _, err := st.Exec("INSERT INTO ref VALUES (3, 1)"); err != nil {
		t.Fatal(err)
	}

	// LEFT JOIN with a partitioned right side: one row, its match, and no
	// NULL-extended copy from a partition that does not hold the key.
	res, err := st.Query("SELECT r.id, t.n FROM ref r LEFT JOIN totals t ON t.k = r.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].IsNull() {
		t.Fatalf("left join onto totals = %v", res.Rows)
	}
	// The mirrored direction (partitioned left, replicated right).
	if _, err := st.Query("SELECT t.k FROM totals t LEFT JOIN ref r ON r.id = t.k"); err != nil {
		t.Fatal(err)
	}

	// Exec of a SELECT must return every partition's rows, not partition
	// 0's shard.
	res, err = st.Exec("SELECT k FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("Exec(SELECT) rows = %d want 6", len(res.Rows))
	}

	// Changing the partition key would strand the row.
	if _, err := st.Exec("UPDATE totals SET k = 100 WHERE k = 1"); err == nil ||
		!strings.Contains(err.Error(), "cannot change partition column") {
		t.Fatalf("rekey err = %v", err)
	}
	// Non-key updates still broadcast fine.
	if _, err := st.Exec("UPDATE totals SET n = n + 1 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDirGrowsOnReopen pins that a pre-stamp durability directory
// (WAL files, no PARTITIONS file) opens multi-partition and redistributes
// its rows to their canonical owners instead of stranding them on
// partition 0 (the pre-rebalance behavior was a hard refusal).
func TestLegacyDirGrowsOnReopen(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 1})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 4, 1)
	want := totals(t, st)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir + "/PARTITIONS"); err != nil { // simulate pre-stamp writer
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grown recovery totals = %v want %v", got, want)
	}
	// Every key now lives on its canonical owner, so keyed calls route.
	for k := 0; k < 4; k++ {
		owner := st2.partitionFor(types.NewInt(int64(k)))
		q, err := st2.partList()[owner].pe.Query("SELECT k FROM totals WHERE k = ?", types.NewInt(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Rows) != 1 {
			t.Fatalf("key %d not rehomed to its owning partition %d", k, owner)
		}
	}
}

// TestShrinkRefused pins the one repartitioning direction that stays
// unsupported: reopening with fewer partitions than the stamp.
func TestShrinkRefused(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 4, 1)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 2})
	if err := st2.Start(); err == nil || !strings.Contains(err.Error(), "shrinking the partition count is not supported") {
		st2.Stop()
		t.Fatalf("err = %v", err)
	}
}

// TestWritePathSubqueryGuards pins the sixth review round: broadcast
// UPDATE/DELETE and INSERT...SELECT must not silently evaluate
// cross-partition subqueries or shard-local SELECT sources.
func TestWritePathSubqueryGuards(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 8, 1)

	// DELETE with a subquery over a partitioned relation: the broadcast
	// write's leg on each partition would see only its shard of it.
	if _, err := st.Exec("DELETE FROM totals WHERE k IN (SELECT k FROM derived)"); err == nil ||
		!strings.Contains(err.Error(), "subquery over partitioned") {
		t.Fatalf("delete subquery err = %v", err)
	}
	// UPDATE likewise.
	if _, err := st.Exec("UPDATE totals SET n = 0 WHERE k IN (SELECT k FROM totals)"); err == nil ||
		!strings.Contains(err.Error(), "subquery over partitioned") {
		t.Fatalf("update subquery err = %v", err)
	}
	// A subquery over a replicated table is leg-identical and fine.
	if _, err := st.Exec("INSERT INTO ref VALUES (2, 1)"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec("UPDATE totals SET n = n + 1 WHERE k IN (SELECT id FROM ref)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("replicated-subquery update affected %d", res.RowsAffected)
	}

	// INSERT ... SELECT from a partitioned source into a replicated table:
	// the coordinator reads the source once over a cut and applies the
	// identical batch to every replica — each must hold ALL source rows,
	// not its shard.
	if _, err := st.Exec("INSERT INTO ref SELECT k + 100, n FROM totals"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumPartitions(); i++ {
		if n := st.partList()[i].cat.Relation("ref").Table.Count(); n != 9 { // id=2 + 8 materialized
			t.Fatalf("partition %d ref rows = %d want 9 (full materialized source on every replica)", i, n)
		}
	}
	// Replicated-to-replicated INSERT ... SELECT stays leg-identical and
	// keeps working.
	if _, err := st.Exec("INSERT INTO ref SELECT id + 1000, v FROM ref WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumPartitions(); i++ {
		if n := st.partList()[i].cat.Relation("ref").Table.Count(); n != 10 {
			t.Fatalf("partition %d ref rows = %d want 10", i, n)
		}
	}
}

// TestPinnedSubqueryAllowedOnPartitionZero pins that a query with no
// partitioned relation — which runs solely on partition 0 — may consult a
// pinned stream in a subquery (partition 0 holds it in full).
func TestPinnedSubqueryAllowedOnPartitionZero(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.ExecScript("CREATE STREAM alerts (id INT)"); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO ref VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query("SELECT id FROM ref WHERE id IN (SELECT id FROM alerts)"); err != nil {
		t.Fatalf("partition-0-only pinned subquery rejected: %v", err)
	}
}

// TestFanoutLimitCoercion pins that a non-integer LIMIT in a fanned-out
// query returns an error instead of panicking the router.
func TestFanoutLimitCoercion(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 4, 1)
	if _, err := st.Query("SELECT k FROM totals LIMIT ?", types.NewString("abc")); err == nil ||
		!strings.Contains(err.Error(), "LIMIT must be a non-negative integer") {
		t.Fatalf("string LIMIT err = %v", err)
	}
	if _, err := st.Query("SELECT k FROM totals LIMIT ?", types.NewInt(-1)); err == nil {
		t.Fatal("negative LIMIT accepted")
	}
	// A float that is a whole number coerces fine.
	res, err := st.Query("SELECT k FROM totals ORDER BY k LIMIT ?", types.NewFloat(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestStatsRowsExaminedAndReturned: the stats surface says how many rows
// statements read and how many SELECTs gave back, per store and per
// partition. A COUNT(*) over four partitions examines every row and
// returns one.
func TestStatsRowsExaminedAndReturned(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 64, 1)
	read := func() map[string]int64 {
		out := map[string]int64{}
		for _, r := range st.StatsResult().Rows {
			if name := r[0].Str(); strings.HasPrefix(name, "rows_") {
				v, err := strconv.ParseInt(r[1].Str(), 10, 64)
				if err != nil {
					t.Fatalf("stats row %s = %q", name, r[1].Str())
				}
				out[name] = v
			}
		}
		return out
	}
	before := read()
	if _, err := st.Query("SELECT COUNT(*) FROM totals"); err != nil {
		t.Fatal(err)
	}
	after := read()
	if d := after["rows_examined"] - before["rows_examined"]; d != 64 {
		t.Errorf("COUNT(*) over 64 rows examined %d", d)
	}
	if d := after["rows_returned"] - before["rows_returned"]; d != 1 {
		t.Errorf("COUNT(*) on 4 partitions returned %d rows", d)
	}
	var examined, returned int64
	for i := 0; i < 4; i++ {
		examined += after[fmt.Sprintf("rows_examined.p%d", i)]
		returned += after[fmt.Sprintf("rows_returned.p%d", i)]
	}
	if examined != after["rows_examined"] || returned != after["rows_returned"] {
		t.Errorf("per-partition rows do not add up: %v", after)
	}
}

// TestReadChargesRowsToEachPartition: a read over every partition charges
// the rows it walks or counts on each partition to that partition's
// rows_examined, not to the partition that runs its plan.
func TestReadChargesRowsToEachPartition(t *testing.T) {
	st := Open(Config{Partitions: 4})
	if err := st.ExecScript(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for k := range 64 {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?)", types.NewInt(int64(k)), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	parts := st.partList()
	examined := func() []int64 {
		out := make([]int64, len(parts))
		for i, p := range parts {
			out[i], _ = p.ee.RowCounts()
		}
		return out
	}
	for _, q := range []string{"SELECT COUNT(*) FROM kv", "SELECT SUM(v) FROM kv"} {
		before := examined()
		if _, err := st.Query(q); err != nil {
			t.Fatal(err)
		}
		after := examined()
		for i, p := range parts {
			rel, err := p.cat.MustRelation("kv")
			if err != nil {
				t.Fatal(err)
			}
			if d, rows := after[i]-before[i], int64(rel.Table.Count()); d != rows {
				t.Errorf("partition %d holds %d rows, and %s charged it %d examined", i, rows, q, d)
			}
		}
	}
}
