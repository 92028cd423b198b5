package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestDistributedHavingPostMerge exercises HAVING over groups that span
// partitions (grouped by the non-partition column n, which every key
// shares), where filtering each partition's partial groups would return
// the wrong answer.
func TestDistributedHavingPostMerge(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 6, 2) // 6 keys, each totals.n = 4, spread over 4 partitions

	// COUNT(*) = 6 only exists globally; every partition's partial count
	// is smaller.
	res, err := st.Query("SELECT n, COUNT(*) FROM totals GROUP BY n HAVING COUNT(*) > 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 || res.Rows[0][1].Int() != 6 {
		t.Fatalf("spanning-group HAVING = %v", res.Rows)
	}

	// An aggregate HAVING reads that the projection leaves out.
	res, err = st.Query("SELECT n FROM totals GROUP BY n HAVING SUM(n) > 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("hidden-aggregate HAVING = %v", res.Rows)
	}
	if len(res.Columns) != 1 {
		t.Fatalf("hidden column leaked: %v", res.Columns)
	}

	// AVG in HAVING.
	res, err = st.Query("SELECT n FROM totals GROUP BY n HAVING AVG(n) >= 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("AVG HAVING = %v", res.Rows)
	}

	// Parameterized HAVING.
	res, err = st.Query("SELECT n, COUNT(*) FROM totals GROUP BY n HAVING COUNT(*) > ?", types.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 6 {
		t.Fatalf("param HAVING = %v", res.Rows)
	}
	if _, err = st.Query("SELECT n, COUNT(*) FROM totals GROUP BY n HAVING COUNT(*) > ?", types.NewInt(6)); err != nil {
		t.Fatal(err)
	}

	// Aggregate HAVING combined with key HAVING, ORDER BY and LIMIT.
	res, err = st.Query("SELECT k, SUM(n) FROM totals GROUP BY k HAVING SUM(n) >= 4 AND k >= 2 ORDER BY k LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 2 || res.Rows[2][0].Int() != 4 {
		t.Fatalf("combined HAVING+LIMIT = %v", res.Rows)
	}

	// Global aggregate with LIMIT.
	res, err = st.Query("SELECT COUNT(*) FROM totals LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("global agg LIMIT = %v", res.Rows)
	}
}

// TestSnapshotReadConcurrentWith2PC pins the new concurrency property: a
// fan-out read completes while a multi-partition transaction is parked
// mid-protocol on every partition worker, and transfer invariants hold at
// every snapshot (SUM over the spanning writes is constant).
func TestSnapshotReadConcurrentWith2PC(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 8, 1) // totals: 8 keys, n = 2 each, total 16

	// Phase 1: a read must finish while an MP transaction holds every
	// partition's serial slot.
	enlisted := make(chan struct{})
	release := make(chan struct{})
	mpDone := make(chan error, 1)
	go func() {
		mpDone <- st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.ExecAll("UPDATE totals SET n = n + 0"); err != nil {
				return err
			}
			close(enlisted)
			<-release
			return nil
		})
	}()
	<-enlisted
	res, err := st.Query("SELECT SUM(n) FROM totals")
	if err != nil {
		t.Fatalf("read during parked 2PC: %v", err)
	}
	if res.Rows[0][0].Int() != 16 {
		t.Fatalf("sum during 2PC = %v", res.Rows)
	}
	close(release)
	if err := <-mpDone; err != nil {
		t.Fatal(err)
	}

	// Phase 2: -race hammer — concurrent MP transfers between keys on
	// different partitions vs fan-out readers; the global sum is invariant
	// and any torn (half-applied) transfer would break it.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerErr atomic.Value
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.Query("SELECT SUM(n) FROM totals")
				if err != nil {
					readerErr.Store(err.Error())
					return
				}
				if got := res.Rows[0][0].Int(); got != 16 {
					readerErr.Store(fmt.Sprintf("torn 2PC visibility: SUM = %d, want 16", got))
					return
				}
			}
		}()
	}
	for i := 0; i < 150; i++ {
		from, to := int64(i%8), int64((i+3)%8)
		err := st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(tx.PartitionFor(types.NewInt(from)),
				"UPDATE totals SET n = n - 1 WHERE k = ?", types.NewInt(from)); err != nil {
				return err
			}
			_, err := tx.Exec(tx.PartitionFor(types.NewInt(to)),
				"UPDATE totals SET n = n + 1 WHERE k = ?", types.NewInt(to))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if msg := readerErr.Load(); msg != nil {
			t.Fatal(msg)
		}
	}
	close(stop)
	wg.Wait()
	if msg := readerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if st.Metrics().Load(metrics.SnapshotReads) == 0 {
		t.Fatal("fan-out reads did not use the snapshot path")
	}
}

// TestSnapshotReadsVsWriterAndCheckpoint is the store-level -race hammer of
// the satellite checklist: concurrent fan-out readers vs a procedure
// writer vs periodic Checkpoint (whose barrier truncates logs and sweeps
// versions) on a durable multi-partition store.
func TestSnapshotReadsVsWriterAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Partitions: 2, Dir: dir, Sync: wal.SyncNever})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 8, 1) // totals: 8 keys, n = 2 each

	iters := 120
	if testing.Short() {
		iters = 25
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerErr atomic.Value
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every key gets +100 atomically per bump call; a snapshot
				// must never see a remainder other than 0 or 2 per row.
				res, err := st.Query("SELECT k, n FROM totals")
				if err != nil {
					readerErr.Store(err.Error())
					return
				}
				if len(res.Rows) != 8 {
					readerErr.Store(fmt.Sprintf("saw %d rows, want 8", len(res.Rows)))
					return
				}
				for _, row := range res.Rows {
					if rem := row[1].Int() % 100; rem != 2 {
						readerErr.Store(fmt.Sprintf("key %d: n=%d (non-atomic bump visible)", row[0].Int(), row[1].Int()))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < iters; i++ {
		k := int64(i % 8)
		if _, err := st.Call("bump", types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if msg := readerErr.Load(); msg != nil {
			t.Fatal(msg)
		}
	}
	close(stop)
	wg.Wait()
	if msg := readerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestFanoutReadDoesNotEnqueueOnWorkers pins the acceptance criterion
// directly: a distributed SELECT completes even when one partition's worker
// is busy.
func TestFanoutReadDoesNotEnqueueOnWorkers(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 4})
	block := make(chan struct{})
	entered := make(chan struct{})
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:    "stall",
		Handler: func(*pe.ProcCtx) error { close(entered); <-block; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 6, 1)

	done := st.CallAsync("stall") // parks partition 0's worker
	<-entered

	res, err := st.Query("SELECT COUNT(*) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("count = %v", res.Rows)
	}
	close(block)
	if cr := <-done; cr.Err != nil {
		t.Fatal(cr.Err)
	}
}

// TestParamsBindThroughCrossPartitionAvgAndHaving pins parameter binding in
// a read over two partitions: parameters inside an AVG's argument, in a
// HAVING over an aggregate the projection leaves out, and in WHERE all
// bind the client's values, of every type, TIMESTAMP included. Two
// partitions must answer as one does.
func TestParamsBindThroughCrossPartitionAvgAndHaving(t *testing.T) {
	build := func(parts int) *Store {
		st := Open(Config{Partitions: parts})
		if err := st.ExecScript(`CREATE TABLE ev (id BIGINT PRIMARY KEY, g BIGINT, n BIGINT, at TIMESTAMP) PARTITION BY id;`); err != nil {
			t.Fatal(err)
		}
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Stop() })
		for id := int64(0); id < 12; id++ {
			if _, err := st.Exec("INSERT INTO ev VALUES (?, ?, ?, ?)",
				types.NewInt(id), types.NewInt(id%3), types.NewInt(id), types.NewTimestamp(1000*id)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	one, two := build(1), build(2)
	since := types.NewTimestamp(4000)
	for _, q := range []struct {
		sql    string
		params []types.Value
	}{
		{"SELECT g, AVG(n + ?) FROM ev GROUP BY g HAVING COUNT(*) > ? ORDER BY g",
			[]types.Value{types.NewInt(1), types.NewInt(0)}},
		{"SELECT AVG(n + ?) FROM ev WHERE at >= ?",
			[]types.Value{types.NewInt(1), since}},
		{"SELECT g, COUNT(*) FROM ev WHERE at >= ? GROUP BY g HAVING SUM(n * ?) > ? ORDER BY g",
			[]types.Value{since, types.NewInt(2), types.NewInt(30)}},
	} {
		want, err := one.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("1 partition: %s: %v", q.sql, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("1 partition: %s: no rows", q.sql)
		}
		got, err := two.Query(q.sql, q.params...)
		if err != nil {
			t.Fatalf("2 partitions: %s: %v", q.sql, err)
		}
		if g, w := canonRows(got, q.sql), canonRows(want, q.sql); g != w {
			t.Errorf("%s:\n 1 partition: %s 2 partitions: %s", q.sql, w, g)
		}
	}
}

// TestSnapshotReadResultSurvivesLaterReads: a snapshot read runs in an
// execution context that the next read reuses, so the Result it returns
// must own its rows. A range read (both partitions) and a keyed read
// (one partition) are kept while four goroutines run reads of other shapes
// through the same contexts; the kept rows must not change.
func TestSnapshotReadResultSurvivesLaterReads(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k;
		CREATE INDEX kv_by_grp ON kv (grp);`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const keys = 200
	val := func(k int64) string { return fmt.Sprintf("v%03d", k) }
	for k := int64(0); k < keys; k++ {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?, ?, ?)",
			types.NewInt(k), types.NewInt(k%10), types.NewInt(k*k), types.NewString(val(k))); err != nil {
			t.Fatal(err)
		}
	}
	rng, err := st.Query("SELECT k, n, v FROM kv WHERE k BETWEEN ? AND ? ORDER BY k", types.NewInt(20), types.NewInt(69))
	if err != nil {
		t.Fatal(err)
	}
	key, err := st.Query("SELECT k, grp, n, v FROM kv WHERE k = ?", types.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if len(rng.Rows) != 50 || len(key.Rows) != 1 {
			t.Fatalf("%s: kept %d range rows and %d keyed rows", when, len(rng.Rows), len(key.Rows))
		}
		for i, r := range rng.Rows {
			k := int64(20 + i)
			if len(r) != 3 || r[0].Int() != k || r[1].Int() != k*k || r[2].Str() != val(k) {
				t.Fatalf("%s: kept range row %d = %v", when, i, r)
			}
		}
		if r := key.Rows[0]; len(r) != 4 || r[0].Int() != 7 || r[1].Int() != 7 || r[2].Int() != 49 || r[3].Str() != val(7) {
			t.Fatalf("%s: kept keyed row = %v", when, r)
		}
	}
	check("before")
	shapes := []struct {
		sql    string
		params func(i int64) []types.Value
	}{
		{"SELECT k, grp, n, v FROM kv WHERE k = ?", func(i int64) []types.Value { return []types.Value{types.NewInt(i % keys)} }},
		{"SELECT k, n, v FROM kv WHERE k BETWEEN ? AND ? ORDER BY k DESC", func(i int64) []types.Value {
			return []types.Value{types.NewInt(i % 150), types.NewInt(i%150 + 40)}
		}},
		{"SELECT COUNT(*), SUM(n) FROM kv WHERE grp = ?", func(i int64) []types.Value { return []types.Value{types.NewInt(i % 10)} }},
		{"SELECT grp, MAX(v) FROM kv GROUP BY grp ORDER BY grp", func(int64) []types.Value { return nil }},
		{"SELECT v, k, n FROM kv WHERE grp = ? ORDER BY n DESC LIMIT 3", func(i int64) []types.Value { return []types.Value{types.NewInt(i % 10)} }},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 1000; i += 4 {
				s := shapes[i%int64(len(shapes))]
				if _, err := st.Query(s.sql, s.params(i)...); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check("after 1000 later reads")
}
