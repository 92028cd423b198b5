package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// This file pins the slot-enlistment coordinator's concurrency contract:
//
//   - Coordinated transactions over DISJOINT partition sets run
//     concurrently (no global coordinator lock).
//   - Transactions over overlapping sets serialize on the contended slots
//     in canonical (ascending-partition) order and never deadlock, even
//     when callers touch partitions in opposite orders.
//   - Read-only legs release their worker at their vote with no forces; a
//     transaction logs one record that carries its writing legs, and one
//     with exactly one writing leg counts as one-phase.
//   - Batched forces keep the crash contract: a one-phase commit recovers
//     from its record, and an earlier version's torn marker at the log's
//     tail (a batched DECIDE force caught mid-write) presumed-aborts its
//     transaction.
//
// Publication ordering (assert with -race): commit effects of an MP
// transaction are published to readers under seqMu — the coordinator locks
// seqMu, delivers every leg (each worker bumps its publish sequence), and
// unlocks before releasing its partition slots. Fan-out snapshot readers
// take seqMu to cut a consistent snapshot across partitions, so they see
// an MP transaction's legs all-or-nothing even while independent MP
// commits and slot releases race around them. The hammer at the bottom of
// this file drives exactly that interleaving.

// keysOwnedBy collects n int64 keys routed to partition part, scanning up
// from start. Tests use disjoint start ranges to avoid PK collisions.
func keysOwnedBy(st *Store, part int, n int, start int64) []int64 {
	keys := make([]int64, 0, n)
	for k := start; len(keys) < n; k++ {
		if st.partitionFor(types.NewInt(k)) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMPDisjointSetsRunConcurrently proves two coordinated transactions
// over disjoint partition sets overlap in time: each handler waits inside
// its transaction for the other to arrive, which can only rendezvous if
// neither excludes the other. Under the old store-wide mpMu this deadlocks
// (the second transaction cannot start until the first returns).
func TestMPDisjointSetsRunConcurrently(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	low := []int64{keysOwnedBy(st, 0, 1, 3000)[0], keysOwnedBy(st, 1, 1, 3000)[0]}
	high := []int64{keysOwnedBy(st, 2, 1, 3000)[0], keysOwnedBy(st, 3, 1, 3000)[0]}

	var peak atomic.Int64
	lowIn, highIn := make(chan struct{}), make(chan struct{})
	run := func(keys []int64, mine, other chan struct{}) error {
		return st.MultiPartitionTxn(func(tx *MPTxn) error {
			for _, k := range keys {
				owner := st.partitionFor(types.NewInt(k))
				if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
					types.NewInt(k), types.NewInt(k)); err != nil {
					return err
				}
			}
			close(mine)
			select {
			case <-other:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("rendezvous timed out: disjoint-set transactions did not overlap")
			}
			if g := st.Metrics().Snapshot()[metrics.MPConcurrent]; g > peak.Load() {
				peak.Store(g)
			}
			return nil
		})
	}

	errs := make(chan error, 2)
	go func() { errs <- run(low, lowIn, highIn) }()
	go func() { errs <- run(high, highIn, lowIn) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("MPConcurrent peaked at %d during rendezvous, want >= 2", peak.Load())
	}
	res, err := st.Query("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 committed keys, got %d", len(res.Rows))
	}
}

// TestMPConflictingSetsSerializeWithoutDeadlock drives workers over the
// SAME two partitions in opposite touch orders. The out-of-order side
// cannot block (TryLock + retry with the accumulated need-set acquired
// ascending), so every transaction eventually commits in canonical slot
// order and nothing deadlocks. The log's first fsync is held until every
// worker's first transaction has appended its record and released its
// slots, so those records pool behind it whatever the scheduler does.
func TestMPConflictingSetsSerializeWithoutDeadlock(t *testing.T) {
	const parts = 3
	const perWorker = 40
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	fsys := recordStore(t, st)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	// Four workers, two per direction: forward writes partition 0 then 2,
	// reverse writes 2 then 0. Distinct key sets per worker.
	type order struct{ first, second int }
	orders := []order{{0, 2}, {2, 0}, {0, 2}, {2, 0}}
	keysets := make([][]int64, len(orders))
	for w, o := range orders {
		a := keysOwnedBy(st, o.first, perWorker, int64(10000+20000*w))
		b := keysOwnedBy(st, o.second, perWorker, int64(10000+20000*w))
		pair := make([]int64, 0, 2*perWorker)
		for i := 0; i < perWorker; i++ {
			pair = append(pair, a[i], b[i])
		}
		keysets[w] = pair
	}

	release := fsys.Syncs(wal.LogPath(dir)).Hold()
	var appended atomic.Int64
	pooled := make(chan struct{})
	testHookBeforeDurable = func() {
		if appended.Add(1) == int64(len(orders)) {
			release()
			close(pooled)
		}
	}
	defer func() { testHookBeforeDurable = nil }()
	var wg sync.WaitGroup
	errCh := make(chan error, len(orders))
	for w := range orders {
		wg.Add(1)
		go func(keys []int64) {
			defer wg.Done()
			for i := 0; i < len(keys); i += 2 {
				err := st.MultiPartitionTxn(func(tx *MPTxn) error {
					for _, k := range keys[i : i+2] {
						owner := st.partitionFor(types.NewInt(k))
						if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
							types.NewInt(k), types.NewInt(k)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(keysets[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("conflicting-set MP transactions deadlocked")
	}
	select {
	case <-pooled:
	default:
		t.Fatal("the workers' first records never pooled behind the held fsync")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	res, err := st.Query("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(orders) * 2 * perWorker; len(res.Rows) != want {
		t.Fatalf("expected %d committed keys, got %d", want, len(res.Rows))
	}
	// Force pooling survives without a commit timer: with the slots
	// released before durability, successors' records reach the log while
	// its fsync is in flight and share the next one.
	snap := st.Metrics().Snapshot()
	t.Logf("coordinated commits per fsync: mean %.2f over %d fsyncs",
		snap.Mean(metrics.MPPrepareBatchMean), snap[metrics.MPPrepareBatches])
	if snap.Mean(metrics.MPPrepareBatchMean) <= 1 {
		t.Fatalf("mp_prepare_batch_mean = %.2f: no two coordinated commits ever shared an fsync", snap.Mean(metrics.MPPrepareBatchMean))
	}
}

// TestMPCommitWritesNoCoordRecord pins the commit rule and what a
// durability directory holds. A transaction's one record in the store's log
// is its commit record, at any leg count, so a two-writer commit logs one
// record with a leg under each participant. A leg that only read votes yes
// and releases at its vote (MPReadOnlyLegs), and a transaction left with
// exactly one writing leg commits one-phase (MPOnePhase). After
// those, a pause, a rebalance, a checkpoint and a stop, the directory holds
// the PARTITIONS stamp, the one log and a snapshot per partition.
func TestMPCommitWritesNoCoordRecord(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	k0s := keysOwnedBy(st, 0, 4, 40000)
	k1s := keysOwnedBy(st, 1, 4, 40000)

	// Two writing legs: one record, a leg under each partition.
	err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		for _, k := range []int64{k0s[0], k1s[0]} {
			owner := st.partitionFor(types.NewInt(k))
			if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
				types.NewInt(k), types.NewInt(k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.log.Sync(); err != nil {
		t.Fatal(err)
	}
	var legs [][]int
	if _, err := scanRecords(dir, func(_ uint64, _ int, rec *pe.LogRecord) error {
		if rec.Kind == pe.RecCoordCommit {
			var parts []int
			for _, leg := range rec.Legs {
				parts = append(parts, leg.Part)
			}
			legs = append(legs, parts)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(legs) != "[[0 1]]" {
		t.Fatalf("the log holds coordinated commits with legs on %v, want one with a leg on each partition", legs)
	}

	// One writing leg + one read-only leg, three times over: the reader
	// releases at its vote, the writer commits one-phase.
	before := st.Metrics().Snapshot()
	for i := 1; i <= 3; i++ {
		err := st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Query(1, "SELECT k FROM kv"); err != nil {
				return err
			}
			if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, ?)",
				types.NewInt(k0s[i]), types.NewInt(k0s[i])); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	d := st.Metrics().Snapshot().Delta(before)
	if d[metrics.MPReadOnlyLegs] != 3 {
		t.Fatalf("MPReadOnlyLegs delta = %d, want 3", d[metrics.MPReadOnlyLegs])
	}
	if d[metrics.MPOnePhase] != 3 {
		t.Fatalf("MPOnePhase delta = %d, want 3", d[metrics.MPOnePhase])
	}

	// Fully read-only coordinated transaction: both legs release at their
	// votes, nothing logged anywhere.
	before = st.Metrics().Snapshot()
	err = st.MultiPartitionTxn(func(tx *MPTxn) error {
		for p := 0; p < parts; p++ {
			if _, err := tx.Query(p, "SELECT k FROM kv"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d = st.Metrics().Snapshot().Delta(before)
	if d[metrics.MPReadOnlyLegs] != 2 {
		t.Fatalf("read-only txn MPReadOnlyLegs delta = %d, want 2", d[metrics.MPReadOnlyLegs])
	}

	if err := st.PauseDataflow("feed"); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	want := []string{partitionsFileName, wal.LogName}
	for i := 0; i < 4; i++ {
		want = append(want, filepath.Base(wal.SnapshotPath(dir, i)))
	}
	sort.Strings(want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("durability directory holds %v, want %v", got, want)
	}
}

// TestMPOnePhaseCommitRecovered crashes a run of one-phase commits at
// every point, in every variant. Each logs one record with one leg, so
// recovery must complete the leg once the commit is acked, and nothing
// else is recovered.
func TestMPOnePhaseCommitRecovered(t *testing.T) {
	const parts = 2
	const txns = 4
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	fsys := recordStore(t, st)
	must(t, st.Start())
	acked := make(map[int64]int, txns) // key → the point its ack followed
	for _, k := range keysOwnedBy(st, 0, txns, 50000) {
		before := st.Metrics().Snapshot()
		must(t, st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Query(1, "SELECT k FROM kv"); err != nil {
				return err
			}
			_, err := tx.Exec(0, "INSERT INTO kv VALUES (?, ?)", types.NewInt(k), types.NewInt(k))
			return err
		}))
		acked[k] = fsys.Len()
		if d := st.Metrics().Snapshot().Delta(before); d[metrics.MPOnePhase] != 1 {
			t.Fatalf("MPOnePhase delta = %d, want 1 (test precondition)", d[metrics.MPOnePhase])
		}
	}
	must(t, st.Stop())

	eachCrashImageConcurrently(t, fsys, crashPoints(0, fsys.Len()), func(img string, p int) error {
		got, err := recoverKeys(img, parts)
		if err != nil {
			return err
		}
		for k := range got {
			if _, ok := acked[k]; !ok {
				return fmt.Errorf("recovered key %d was never written", k)
			}
		}
		for k, at := range acked {
			if at <= p && !got[k] {
				return fmt.Errorf("one-phase commit of key %d, acked at point %d, lost at recovery", k, at)
			}
		}
		return nil
	})
}

// TestMPTornCoordDecideTailPresumedAborts tears the last record of a log an
// earlier version wrote in half — a DECIDE marker's force caught by the
// crash mid-write. Recovery must drop the torn tail and presume-abort that
// transaction, while the intact marker before it still commits.
func TestMPTornCoordDecideTailPresumedAborts(t *testing.T) {
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

	logPath1 := wal.LogPath(dir)
	// Transaction 7: prepared on both partitions, marker intact.
	appendRecords(t, dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7,
		Ops: []pe.LoggedOp{putOp(500, 1)}})
	appendRecords(t, dir, 1,
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7, Ops: []pe.LoggedOp{putOp(600, 2)}},
		&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7, Commit: true})
	// Transaction 99: prepared on both partitions, marker TORN — the
	// crash hit while the batched force was writing the record.
	appendRecords(t, dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99,
		Ops: []pe.LoggedOp{putOp(700, 3)}})
	appendRecords(t, dir, 1, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99,
		Ops: []pe.LoggedOp{putOp(800, 4)}})
	fi, err := os.Stat(logPath1)
	if err != nil {
		t.Fatal(err)
	}
	whole := fi.Size()
	appendRecords(t, dir, 1,
		&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 99, Commit: true})
	fi, err = os.Stat(logPath1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath1, whole+(fi.Size()-whole)/2); err != nil {
		t.Fatal(err)
	}

	got := recoveredKeys(t, dir, parts)
	if !got[1] {
		t.Fatalf("pre-crash acked key lost: %v", got)
	}
	if !got[500] || !got[600] {
		t.Fatalf("intact decided transaction 7 not completed: %v", got)
	}
	if got[700] || got[800] {
		t.Fatalf("transaction with torn decision applied — presumed abort violated: %v", got)
	}
}

// TestMPDisjointWritersVsSnapshotReaders is the -race hammer for the
// publication-ordering invariant documented at the top of this file:
// independent MP writers commit concurrently over disjoint partition sets
// while fan-out snapshot readers cut consistent cross-partition snapshots.
// A reader must never see a torn pair, and every acknowledged pair must be
// fully visible to readers that start after the ack.
func TestMPDisjointWritersVsSnapshotReaders(t *testing.T) {
	const parts = 4
	const pairsPerWriter = 120
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	// Writer w owns partitions {2w, 2w+1}: the two writers' slot sets are
	// disjoint, so their commits genuinely interleave.
	type pair struct{ a, b int64 }
	pairs := make([][]pair, 2)
	for w := 0; w < 2; w++ {
		as := keysOwnedBy(st, 2*w, pairsPerWriter, int64(100000+200000*w))
		bs := keysOwnedBy(st, 2*w+1, pairsPerWriter, int64(100000+200000*w))
		for i := 0; i < pairsPerWriter; i++ {
			pairs[w] = append(pairs[w], pair{as[i], bs[i]})
		}
	}

	acked := [2]atomic.Int64{}
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range pairs[w] {
				err := st.MultiPartitionTxn(func(tx *MPTxn) error {
					for _, k := range []int64{p.a, p.b} {
						owner := st.partitionFor(types.NewInt(k))
						if _, err := tx.Exec(owner, "INSERT INTO kv VALUES (?, ?)",
							types.NewInt(k), types.NewInt(k)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}

	var stop atomic.Bool
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				w := i % 2
				n := acked[w].Load()
				// Probe the in-flight frontier pair: it may be absent or
				// fully present, never half.
				idx := n
				mustBeThere := false
				if n > 0 && i%3 == 0 {
					idx, mustBeThere = n-1, true // acked: both keys required
				}
				if idx >= pairsPerWriter {
					idx, mustBeThere = pairsPerWriter-1, true
				}
				p := pairs[w][idx]
				res, err := st.Query("SELECT k FROM kv WHERE k = ? OR k = ?",
					types.NewInt(p.a), types.NewInt(p.b))
				if err != nil {
					errCh <- err
					return
				}
				switch len(res.Rows) {
				case 0:
					if mustBeThere {
						errCh <- fmt.Errorf("acked pair (%d,%d) invisible to snapshot reader", p.a, p.b)
						return
					}
				case 2:
				default:
					errCh <- fmt.Errorf("snapshot reader saw torn pair (%d,%d): %d rows",
						p.a, p.b, len(res.Rows))
					return
				}
			}
		}(r)
	}

	writersDone := make(chan struct{})
	go func() {
		for acked[0].Load() < pairsPerWriter || acked[1].Load() < pairsPerWriter {
			select {
			case <-time.After(10 * time.Millisecond):
			case <-writersDone:
				return
			}
		}
		stop.Store(true)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		close(writersDone)
	case err := <-errCh:
		stop.Store(true)
		t.Fatal(err)
	case <-time.After(120 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	res, err := st.Query("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * pairsPerWriter; len(res.Rows) != want {
		t.Fatalf("expected %d committed keys, got %d", want, len(res.Rows))
	}
}
