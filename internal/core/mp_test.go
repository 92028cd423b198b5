package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// This file is the 2PC crash/race battery: every test pins one clause of
// the coordinator's contract. The crash tests take the states a kill
// leaves behind from crashfs, or, for an earlier version's two-phase
// records (an in-doubt PREPARE, a decided-but-unapplied leg), write them
// into the log by hand.

// appendRecords appends partition part's records to the store's log in dir,
// continuing from the file's current last LSN (what a crashed process
// would have written next).
func appendRecords(t *testing.T, dir string, part int, recs ...*pe.LogRecord) {
	t.Helper()
	var payloads [][]byte
	for _, rec := range recs {
		payloads = append(payloads, encodeEntry(part, rec))
	}
	appendPayloads(t, wal.LogPath(dir), payloads...)
}

// appendPayloads appends payloads to the log file at path after its last
// LSN.
func appendPayloads(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	last, err := wal.ScanLog(path, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenLogOpts(path, last, wal.Options{Policy: wal.SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range payloads {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// scanRecords decodes each intact record of the store's log in dir for fn.
func scanRecords(dir string, fn func(lsn uint64, part int, rec *pe.LogRecord) error) (uint64, error) {
	return wal.ScanLog(wal.LogPath(dir), func(lsn uint64, payload []byte) error {
		part, n := binary.Uvarint(payload)
		rec, err := wal.DecodeRecord(payload[max(n, 0):])
		if err != nil {
			return err
		}
		return fn(lsn, int(part), rec)
	})
}

func putOp(k, v int64) pe.LoggedOp {
	return pe.LoggedOp{SQL: "INSERT INTO kv VALUES (?, ?)",
		Params: []types.Value{types.NewInt(k), types.NewInt(v)}}
}

// TestMPInDoubtLegAbortedOnRecovery recovers an earlier version's kill
// between prepare and decide: the log ends with a PREPARE record of each
// partition and holds no decision for it. Recovery must presume abort — the prepared
// leg's writes never appear — while everything acknowledged before still
// recovers.
func TestMPInDoubtLegAbortedOnRecovery(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 10; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	// The crash point: partition 0 prepared leg (777, 777) for transaction
	// 99, partition 1 prepared (778, 778) — and the coordinator died before
	// forcing a decision.
	appendRecords(t, dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99,
		Ops: []pe.LoggedOp{putOp(777, 777)}})
	appendRecords(t, dir, 1, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99,
		Ops: []pe.LoggedOp{putOp(778, 778)}})

	got := recoveredKeys(t, dir, parts)
	if got[777] || got[778] {
		t.Fatalf("in-doubt prepared leg was applied at recovery: %v", got)
	}
	for k := int64(0); k < 10; k++ {
		if !got[k] {
			t.Fatalf("acked pre-crash key %d lost: %v", k, got)
		}
	}
}

// TestMPDecidedLegCompletedOnRecovery recovers an earlier version's kill
// after the commit decision was durable: partition 0's PREPARE, then
// partition 1's followed by its DECIDE marker. Recovery must complete the
// transaction on every partition.
func TestMPDecidedLegCompletedOnRecovery(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Call("put", types.NewInt(1), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	appendRecords(t, dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7,
		Ops: []pe.LoggedOp{putOp(500, 1), putOp(501, 2)}})
	appendRecords(t, dir, 1,
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7, Ops: []pe.LoggedOp{putOp(600, 3)}},
		&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7, Commit: true})
	// A decision for a DIFFERENT transaction must not resurrect leg 99.
	appendRecords(t, dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99,
		Ops: []pe.LoggedOp{putOp(900, 9)}})

	got := recoveredKeys(t, dir, parts)
	for _, k := range []int64{500, 501, 600} {
		if !got[k] {
			t.Fatalf("decided-commit leg key %d not completed at recovery: %v", k, got)
		}
	}
	if got[900] {
		t.Fatalf("undedecided transaction 99 applied: %v", got)
	}

	// The id counter must restart above every id seen in the logs: a new
	// coordinated transaction's decision must never match an old in-doubt
	// PREPARE. Re-open, run a fresh MP transaction, crash-copy, recover.
	st2 := buildKV(t, gcTestConfig(dir, parts))
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	err := st2.MultiPartitionTxn(func(tx *MPTxn) error {
		for i, k := range []int64{701, 702} {
			owner := st2.partitionFor(types.NewInt(k))
			if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
				types.NewInt(k), types.NewInt(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Stop(); err != nil {
		t.Fatal(err)
	}
	got = recoveredKeys(t, dir, parts)
	if !got[701] || !got[702] {
		t.Fatalf("post-recovery MP transaction lost: %v", got)
	}
	if got[900] {
		t.Fatalf("new transaction's decision resurrected old in-doubt leg 99: %v", got)
	}
}

// pairBase separates the MP-pair key range from single-partition keys in
// the hammer tests: an MP transaction writes (k, k+pairOffset) and the
// invariant is that both keys exist or neither does.
const (
	pairBase   = 1 << 20
	pairOffset = 1 << 19
)

// mpPutPair inserts (k, k+pairOffset) as one coordinated transaction,
// each key on its owning partition.
func mpPutPair(st *Store, k int64) error {
	return st.MultiPartitionTxn(func(tx *MPTxn) error {
		for _, key := range []int64{k, k + pairOffset} {
			owner := tx.PartitionFor(types.NewInt(key))
			if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
				types.NewInt(key), types.NewInt(key)); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestMPCrashCopyNeverPartial runs coordinated pair-writes under group
// commit, wave 1 one after another and wave 2 all in flight together, and
// crashes the history at every point from the end of wave 1 to its end, in
// every variant: recovery must hold every pair acked by the crash whole and
// no pair partially — the atomicity of the one commit record across the
// whole crash window (before its append, torn, written but not synced,
// durable).
//
// Wave 2's history is sized in records, not time: the log's daemon is held
// in an fsync that covers nothing until every coordinator of wave 2 has
// appended its record and released its slots, so the records land in one
// fsync and every run has as many crash points.
func TestMPCrashCopyNeverPartial(t *testing.T) {
	const parts = 3
	const pairs = 120
	cfg := gcTestConfig(t.TempDir(), parts)
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())

	var mu sync.Mutex
	acked := make(map[int64]int, 2*pairs) // pair → the point its ack followed
	for k := int64(pairBase); k < pairBase+pairs; k++ {
		must(t, mpPutPair(st, k))
		acked[k] = fsys.Len()
	}
	wave1 := fsys.Len()

	syncs := fsys.Syncs(wal.LogPath(cfg.Dir))
	for len(syncs.Entered()) > 0 {
		<-syncs.Entered()
	}
	// Hold the daemon in an fsync that covers nothing, so what is appended
	// until release waits for the one fsync after it.
	release := syncs.Hold()
	synced := make(chan error, 1)
	go func() { synced <- st.log.SyncNow() }()
	<-syncs.Entered()
	var appended atomic.Int64
	allAppended := make(chan struct{})
	arrive := func() {
		if appended.Add(1) == pairs {
			close(allAppended)
		}
	}
	testHookBeforeDurable = arrive
	defer func() { testHookBeforeDurable = nil }()

	var wg sync.WaitGroup
	for k := int64(pairBase + pairs); k < pairBase+2*pairs; k++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			if err := mpPutPair(st, k); err != nil {
				t.Errorf("pair %d: %v", k, err)
				arrive() // so the daemon is not held for it
				return
			}
			at := fsys.Len()
			mu.Lock()
			acked[k] = at
			mu.Unlock()
		}(k)
	}
	<-allAppended
	release()
	must(t, <-synced)
	wg.Wait()
	must(t, st.Stop())

	t.Logf("%d crash points from the end of wave 1 (%d)", fsys.Len()-wave1+1, wave1)
	eachCrashImageConcurrently(t, fsys, crashPoints(wave1, fsys.Len()), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re, err := kvStore(cfg)
		if err != nil {
			return err
		}
		if err := re.Recover(); err != nil {
			return err
		}
		defer re.Stop()
		got := kvRows(re)
		for k := int64(pairBase); k < pairBase+2*pairs; k++ {
			_, a := got[k]
			_, b := got[k+pairOffset]
			if at, ok := acked[k]; ok && at <= p && !(a && b) {
				return fmt.Errorf("pair %d, acked at point %d, incomplete (k=%v, k'=%v)", k, at, a, b)
			}
			if a != b {
				return fmt.Errorf("pair %d recovered partially: k=%v k'=%v — 2PC atomicity violated", k, a, b)
			}
		}
		return nil
	})
}

// TestCoordinatedCommitIsOneRecord counts a durable coordinated pair
// write's log work: each one appends exactly one record, and a put that
// follows it on one of its partitions while the record's fsync is held
// starts no goroutine to wait for it.
func TestCoordinatedCommitIsOneRecord(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 2)
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	defer st.Stop()
	ka, kb := keysOwnedBy(st, 0, 6, 0), keysOwnedBy(st, 1, 5, 0)
	pair := func(i int) error {
		return st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, 0)", types.NewInt(ka[i])); err != nil {
				return err
			}
			_, err := tx.Exec(1, "INSERT INTO kv VALUES (?, 0)", types.NewInt(kb[i]))
			return err
		})
	}
	for i := range 4 {
		before := st.met.Load(metrics.LogRecords)
		must(t, pair(i))
		if n := st.met.Load(metrics.LogRecords) - before; n != 1 {
			t.Fatalf("pair write %d logged %d records, want 1", i, n)
		}
	}

	syncs := fsys.Syncs(wal.LogPath(cfg.Dir))
	for len(syncs.Entered()) > 0 {
		<-syncs.Entered()
	}
	release := syncs.Hold()
	paired := make(chan error, 1)
	go func() { paired <- pair(4) }()
	<-syncs.Entered() // the pair's record is appended, its fsync held
	goroutines := runtime.NumGoroutine()
	put := st.CallAsync("put", types.NewInt(ka[5]), types.NewInt(0))
	for deadline := time.Now().Add(10 * time.Second); st.PEAt(0).AckBacklog() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the put never reached its acker")
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("the put behind a pair's held record started %d goroutines", n-goroutines)
	}
	release()
	must(t, <-paired)
	if cr := <-put; cr.Err != nil {
		t.Fatal(cr.Err)
	}
}

// TestFailedCommitForceFailsItsSuccessor: a put that runs on a partition
// after a coordinated pair published its leg there may have read it, so
// when the fsync that would make the pair's record durable fails, the put
// fails too, and the store stops. The put is queued once the record's
// fsync has begun, held, and set to fail; the verdict waits on no timer.
func TestFailedCommitForceFailsItsSuccessor(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 2)
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	defer st.Stop()
	ka, kb := keysOwnedBy(st, 0, 2, 0), keysOwnedBy(st, 1, 1, 0)[0]
	syncs := fsys.Syncs(wal.LogPath(cfg.Dir))
	for len(syncs.Entered()) > 0 {
		<-syncs.Entered()
	}
	injected := errors.New("injected fsync failure")
	syncs.Fail(injected)
	release := syncs.Hold()
	paired := make(chan error, 1)
	go func() {
		paired <- st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, 0)", types.NewInt(ka[0])); err != nil {
				return err
			}
			_, err := tx.Exec(1, "INSERT INTO kv VALUES (?, 0)", types.NewInt(kb))
			return err
		})
	}()
	<-syncs.Entered() // the pair's record is appended, its fsync held
	put := st.CallAsync("put", types.NewInt(ka[1]), types.NewInt(0))
	release()
	if err := <-paired; !errors.Is(err, injected) {
		t.Errorf("the pair returned %v, want the fsync's error", err)
	}
	if cr := <-put; !errors.Is(cr.Err, injected) {
		t.Errorf("the put after it returned %v, want the fsync's error", cr.Err)
	}
	if err := st.Err(); !errors.Is(err, injected) {
		t.Errorf("the store reports %v, want it stopped by the fsync's error", err)
	}
}

// TestMPRaceHammer runs coordinated transactions, single-partition calls,
// fan-out readers, and checkpoint barriers concurrently (run under -race).
// It pins liveness (no deadlock between the coordinator's partition holds,
// the checkpoint's all-partition barrier, and readers) and the visibility
// contract: a fan-out reader never observes a torn pair, and per-partition
// serial order means every acknowledged write is present at the end.
func TestMPRaceHammer(t *testing.T) {
	const parts = 4
	const pairs = 60
	const spKeys = 200
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	var stop atomic.Bool
	// The pairs committed and the pair writers done, for the checkpoints
	// to space themselves by.
	var (
		pmu             sync.Mutex
		paired, writers int
		progressed      = sync.NewCond(&pmu)
	)
	progress := func(pair, done int) {
		pmu.Lock()
		paired, writers = paired+pair, writers+done
		progressed.Broadcast()
		pmu.Unlock()
	}

	// Coordinated pair writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer progress(0, 1)
			for i := 0; i < pairs/2; i++ {
				k := int64(pairBase + w*(pairs/2) + i)
				if err := mpPutPair(st, k); err != nil {
					errCh <- fmt.Errorf("mp pair %d: %w", k, err)
					return
				}
				progress(1, 0)
			}
		}(w)
	}
	// Single-partition writers on the fast path.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spKeys/2; i++ {
				k := int64(w*(spKeys/2) + i)
				if cr := <-st.CallAsync("put", types.NewInt(k), types.NewInt(k)); cr.Err != nil {
					errCh <- fmt.Errorf("sp put %d: %w", k, cr.Err)
					return
				}
			}
		}(w)
	}
	// Checkpoint barriers (all-slot holds) interleaved with the
	// coordinators' per-partition slot enlistments: one every tenth of the
	// pairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			pmu.Lock()
			for paired < i*pairs/10 && writers < 2 {
				progressed.Wait()
			}
			pmu.Unlock()
			if err := st.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	// Fan-out reader asserting pair atomicity: the count of keys in the MP
	// range must always be even (a torn pair would make it odd).
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !stop.Load() {
			res, err := st.Query("SELECT COUNT(*) FROM kv WHERE k >= ?", types.NewInt(pairBase))
			if err != nil {
				errCh <- fmt.Errorf("reader: %w", err)
				return
			}
			if n := res.Rows[0][0].Int(); n%2 != 0 {
				errCh <- fmt.Errorf("reader observed a torn coordinated pair: %d keys in MP range", n)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("hammer deadlocked (writers did not finish)")
	}
	stop.Store(true)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	res, err := st.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != spKeys+2*pairs {
		t.Fatalf("store holds %d keys, want %d", n, spKeys+2*pairs)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	// Everything was acknowledged; recovery reproduces it all.
	got := recoveredKeys(t, dir, parts)
	if len(got) != spKeys+2*pairs {
		t.Fatalf("recovered %d keys, want %d", len(got), spKeys+2*pairs)
	}
}

// TestMPAbortRollsBackEveryLeg makes one leg of a coordinated transaction
// fail (duplicate primary key) after another leg already executed: the
// error must surface and neither leg's writes may remain — the partial-
// apply failure mode of the old broadcast path is gone.
func TestMPAbortRollsBackEveryLeg(t *testing.T) {
	const parts = 3
	st := buildKV(t, Config{Partitions: parts})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO kv VALUES (5, 5)"); err != nil {
		t.Fatal(err)
	}

	err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(st.partitionFor(types.NewInt(1000)),
			"INSERT INTO kv VALUES (1000, 1)"); err != nil {
			return err
		}
		_, err := tx.Exec(st.partitionFor(types.NewInt(5)), "INSERT INTO kv VALUES (5, 5)")
		return err // duplicate key: this leg fails
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("err = %v, want duplicate key", err)
	}
	res, err := st.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 1 {
		t.Fatalf("store holds %d keys after aborted transaction, want 1", n)
	}

	// A handler that swallows a failed write must still abort: the failed
	// statement was never recorded for replay, so committing could diverge
	// recovered state from memory.
	err = st.MultiPartitionTxn(func(tx *MPTxn) error {
		tx.Exec(st.partitionFor(types.NewInt(5)), "INSERT INTO kv VALUES (5, 5)") //nolint:errcheck
		_, err := tx.Exec(st.partitionFor(types.NewInt(2000)), "INSERT INTO kv VALUES (2000, 2)")
		return err
	})
	if err == nil {
		t.Fatal("swallowed write failure committed; poisoned transaction must abort")
	}
	res, err = st.Query("SELECT k FROM kv WHERE k = 2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("poisoned transaction's other leg committed")
	}

	// The workers must be fully released: plain work proceeds.
	if _, err := st.Call("put", types.NewInt(6), types.NewInt(6)); err != nil {
		t.Fatal(err)
	}
}

// TestMPAtomicVisibilityForAdHocFanout is the atomicity property test for
// ad-hoc fan-out writes: a writer issues multi-row INSERTs spanning
// partitions (each batch sharing a marker) while a reader fans out grouped
// counts; the reader must only ever see a batch complete (6 rows) or
// absent — never the partial application the old broadcast allowed.
func TestMPAtomicVisibilityForAdHocFanout(t *testing.T) {
	const parts = 3
	const batches = 80
	const rowsPerBatch = 6
	st := Open(Config{Partitions: parts})
	if err := st.ExecScript(`CREATE TABLE obs (k BIGINT PRIMARY KEY, b BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	insertSQL := "INSERT INTO obs (k, b) VALUES " +
		strings.TrimSuffix(strings.Repeat("(?, ?), ", rowsPerBatch), ", ")
	writeErr := make(chan error, 1)
	go func() {
		defer close(writeErr)
		for b := int64(0); b < batches; b++ {
			params := make([]types.Value, 0, rowsPerBatch*2)
			for i := int64(0); i < rowsPerBatch; i++ {
				params = append(params, types.NewInt(b*rowsPerBatch+i), types.NewInt(b))
			}
			if _, err := st.Exec(insertSQL, params...); err != nil {
				writeErr <- err
				return
			}
		}
	}()

	for {
		res, err := st.Query("SELECT b, COUNT(*) FROM obs GROUP BY b")
		if err != nil {
			t.Fatal(err)
		}
		complete := 0
		for _, row := range res.Rows {
			if n := row[1].Int(); n != rowsPerBatch {
				t.Fatalf("reader saw batch %d with %d of %d rows: partial application is visible",
					row[0].Int(), n, rowsPerBatch)
			}
			complete++
		}
		if complete == batches {
			break
		}
		select {
		case err, open := <-writeErr:
			if open && err != nil {
				t.Fatal(err)
			}
		default:
		}
	}
	if err, open := <-writeErr; open && err != nil {
		t.Fatal(err)
	}
}

// TestInsertSelectIntoPartitioned pins the other lifted rejection: an
// INSERT ... SELECT whose rows hash across partitions commits atomically,
// with each row on its owning partition.
func TestInsertSelectIntoPartitioned(t *testing.T) {
	const parts = 3
	st := Open(Config{Partitions: parts})
	ddl := `
		CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE TABLE src (id BIGINT PRIMARY KEY, v BIGINT);
	`
	if err := st.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for i := int64(0); i < 12; i++ {
		if _, err := st.Exec("INSERT INTO src VALUES (?, ?)", types.NewInt(i), types.NewInt(i*10)); err != nil {
			t.Fatal(err)
		}
	}

	// Replicated source → partitioned target: rows fan out by hash.
	res, err := st.Exec("INSERT INTO kv SELECT id, v FROM src")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 12 {
		t.Fatalf("INSERT ... SELECT affected %d rows, want 12", res.RowsAffected)
	}
	spread := 0
	for i := 0; i < parts; i++ {
		if st.partList()[i].cat.Relation("kv").Table.Count() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("materialized rows landed on %d partitions; expected a spread", spread)
	}
	// Every row is on its owning partition: keyed fast-path reads find it.
	for i := int64(0); i < 12; i++ {
		owner := st.partitionFor(types.NewInt(i))
		q, err := st.partList()[owner].pe.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Rows) != 1 || q.Rows[0][0].Int() != i*10 {
			t.Fatalf("key %d misplaced or wrong: %v", i, q.Rows)
		}
	}

	// Partitioned source → partitioned target, atomic failure: one
	// duplicate row aborts the whole statement.
	if _, err := st.Exec("INSERT INTO kv SELECT k + 100, v FROM kv WHERE k < 6"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec("INSERT INTO kv SELECT k + 100, v FROM kv WHERE k < 6"); err == nil ||
		!strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("duplicate INSERT ... SELECT err = %v", err)
	}
	res, err = st.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 18 {
		t.Fatalf("store holds %d rows after aborted INSERT ... SELECT, want 18", n)
	}
}

// TestMPLentLegChainRunsBeforeNextRequest: an application leg on an idle
// partition borrows its engine and inserts into a stream a dataflow is
// bound to. A call queued on that partition while the leg holds the engine
// runs after the engine comes back, and only after the TE the leg's commit
// triggered: workflow order holds on a lent engine as on a parked one.
func TestMPLentLegChainRunsBeforeNextRequest(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE tally (k BIGINT PRIMARY KEY, n BIGINT) PARTITION BY k;
		CREATE STREAM sigs (k BIGINT) PARTITION BY k;
	`); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pe.Procedure{
		{Name: "absorb", WriteSet: []string{"tally"}, Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if _, err := ctx.Exec("INSERT INTO tally VALUES (?, 1)", r[0]); err != nil {
					return err
				}
			}
			return nil
		}},
		{Name: "probe", PartitionParam: 1, Handler: func(ctx *pe.ProcCtx) error {
			res, err := ctx.Query("SELECT COUNT(*) FROM tally WHERE k = ?", ctx.Params[0])
			ctx.SetResult(res)
			return err
		}},
	} {
		if err := st.RegisterProcedure(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Deploy(&Dataflow{Name: "sigs", Nodes: []DataflowNode{{Proc: "absorb", Input: "sigs", Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	k := types.NewInt(keysOwnedBy(st, 1, 1, 0)[0])
	st.Drain() // the workers sleep: the leg borrows partition 1's engine
	before := st.Metrics().Snapshot()
	var probe <-chan pe.CallResult
	if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(1, "INSERT INTO sigs (k) VALUES (?)", k); err != nil {
			return err
		}
		probe = st.PEAt(1).CallAsync("probe", k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cr := <-probe
	if cr.Err != nil {
		t.Fatal(cr.Err)
	}
	if n := cr.Result.Rows[0][0].Int(); n != 1 {
		t.Fatalf("the call queued behind the leg saw %d tally rows, want the triggered TE's 1", n)
	}
	d := st.Metrics().Snapshot().Delta(before)
	if d[metrics.MPLegsParked] != 0 || d[metrics.TriggeredTxns] != 1 {
		t.Fatalf("%d legs parked, %d triggered TEs; want a lent leg and 1", d[metrics.MPLegsParked], d[metrics.TriggeredTxns])
	}
}

// TestMPReplayRederivesTriggeredWork pins that a recovered multi-partition
// leg re-derives its workflow consequences: the leg emitted into a bound
// stream, whose triggered downstream transaction (not logged under
// upstream backup) must re-run during replay exactly as the live commit
// ran it.
func TestMPReplayRederivesTriggeredWork(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	build := func() *Store {
		st := Open(gcTestConfig(dir, parts))
		if err := st.ExecScript(`
			CREATE TABLE tally (k BIGINT PRIMARY KEY, n BIGINT) PARTITION BY k;
			CREATE STREAM sigs (k BIGINT) PARTITION BY k;
		`); err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterProcedure(&pe.Procedure{
			Name:     "absorb",
			WriteSet: []string{"tally"},
			Handler: func(ctx *pe.ProcCtx) error {
				for _, r := range ctx.Batch {
					if _, err := ctx.Exec("INSERT INTO tally VALUES (?, 1)", r[0]); err != nil {
						return err
					}
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.Deploy(&Dataflow{Name: "sigs", Nodes: []DataflowNode{{Proc: "absorb", Input: "sigs", Batch: 1}}}); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := build()
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		for _, k := range []int64{1, 2, 3, 4} {
			owner := tx.PartitionFor(types.NewInt(k))
			if _, err := tx.Exec(owner, "INSERT INTO sigs (k) VALUES (?)", types.NewInt(k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Drain() // triggered downstream transactions finish
	res, err := st.Query("SELECT COUNT(*) FROM tally")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 4 {
		t.Fatalf("live tally = %d, want 4", n)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := build()
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	res, err = st2.Query("SELECT COUNT(*) FROM tally")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 4 {
		t.Fatalf("recovered tally = %d, want 4 (triggered work not re-derived from the MP leg)", n)
	}
}

// TestInsertSelectDefaultPartitionKeyRouting pins that routing hashes the
// partition key as it will be STORED: an INSERT ... SELECT omitting the
// partition column takes the column DEFAULT, so its rows must land on the
// default value's owning partition (not hash(NULL)'s) where keyed routed
// operations will find them.
func TestInsertSelectDefaultPartitionKeyRouting(t *testing.T) {
	const parts = 4
	st := Open(Config{Partitions: parts})
	if err := st.ExecScript(`
		CREATE TABLE dst (id BIGINT PRIMARY KEY, grp BIGINT DEFAULT 0, v BIGINT) PARTITION BY grp;
		CREATE TABLE src (id BIGINT PRIMARY KEY, v BIGINT);
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for i := int64(0); i < 5; i++ {
		if _, err := st.Exec("INSERT INTO src VALUES (?, ?)", types.NewInt(i), types.NewInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Exec("INSERT INTO dst (id, v) SELECT id, v FROM src"); err != nil {
		t.Fatal(err)
	}
	owner := st.partitionFor(types.NewInt(0)) // grp defaults to 0
	for i := 0; i < parts; i++ {
		n := st.partList()[i].cat.Relation("dst").Table.Count()
		if i == owner && n != 5 {
			t.Fatalf("owner partition %d holds %d rows, want 5", i, n)
		}
		if i != owner && n != 0 {
			t.Fatalf("partition %d holds %d misrouted rows", i, n)
		}
	}
	// A routed INSERT with the same key must collide with the materialized
	// rows (it reaches the same partition), not create a store-wide
	// duplicate on another one.
	if _, err := st.Exec("INSERT INTO dst VALUES (3, 0, 9)"); err == nil ||
		!strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("routed INSERT onto defaulted rows: err = %v, want duplicate key", err)
	}
	// An explicit NULL key in a spanning VALUES takes the default too.
	if _, err := st.Exec("INSERT INTO dst (id, grp, v) VALUES (100, NULL, 1), (101, 7, 1)"); err != nil {
		t.Fatal(err)
	}
	q, err := st.partList()[owner].pe.Query("SELECT id FROM dst WHERE id = 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatal("NULL partition key did not route to the default's owner")
	}
}

// TestAdHocStreamInsertNeverFiresTriggers pins path-independence of ad-hoc
// Exec semantics: single-partition ad-hoc inserts into a trigger-bound
// stream have never fired PE triggers, so a spanning insert taking the
// coordinated path must not either — the same statement cannot change
// workflow behavior based on which partitions its tuples hash to.
// (Application-level MultiPartitionTxn writes DO drive workflows; see
// TestMPReplayRederivesTriggeredWork.)
func TestAdHocStreamInsertNeverFiresTriggers(t *testing.T) {
	const parts = 2
	st := Open(Config{Partitions: parts})
	if err := st.ExecScript(`
		CREATE TABLE tally (k BIGINT PRIMARY KEY, n BIGINT) PARTITION BY k;
		CREATE STREAM sigs (k BIGINT) PARTITION BY k;
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "absorb",
		WriteSet: []string{"tally"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if _, err := ctx.Exec("INSERT INTO tally VALUES (?, 1)", r[0]); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(&Dataflow{Name: "sigs", Nodes: []DataflowNode{{Proc: "absorb", Input: "sigs", Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	// Co-located tuples: routed single-partition ad-hoc exec.
	if _, err := st.Exec("INSERT INTO sigs (k) VALUES (0)"); err != nil {
		t.Fatal(err)
	}
	// Spanning tuples: the coordinated path.
	k0, k1 := int64(100), int64(-1)
	for k := k0 + 1; k < k0+1000; k++ {
		if st.partitionFor(types.NewInt(k)) != st.partitionFor(types.NewInt(k0)) {
			k1 = k
			break
		}
	}
	if k1 < 0 {
		t.Fatal("no spanning key pair found")
	}
	if _, err := st.Exec(fmt.Sprintf("INSERT INTO sigs (k) VALUES (%d), (%d)", k0, k1)); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	res, err := st.Query("SELECT COUNT(*) FROM tally")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("ad-hoc stream inserts fired %d triggered transactions; ad-hoc Exec must not drive workflows on any path", n)
	}
}
