package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// gcTestConfig is the group-commit configuration the tests share.
func gcTestConfig(dir string, parts int) Config {
	return Config{Dir: dir, Sync: wal.SyncGroupCommit, Partitions: parts}
}

// buildKV assembles a store with a hash-partitioned kv table, a "put"
// procedure routed by its key parameter, and a "feed" stream whose border
// batches (one row each) insert into the same table — the minimal durable
// app the crash tests drive: puts are commits a client waits on, feed rows
// are commits nobody waits on.
func buildKV(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := kvStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// kvStore is buildKV for a goroutine that must not call t.Fatal.
func kvStore(cfg Config) (*Store, error) {
	st := Open(cfg)
	if err := st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE STREAM feed (k BIGINT, v BIGINT) PARTITION BY k;
	`); err != nil {
		return nil, err
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:     "absorb",
		WriteSet: []string{"kv"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				if _, err := ctx.Exec("INSERT INTO kv VALUES (?, ?)", r[0], r[1]); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		return nil, err
	}
	if err := st.Deploy(&Dataflow{Name: "feed", Nodes: []DataflowNode{{Proc: "absorb", Input: "feed", Batch: 1}}}); err != nil {
		return nil, err
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "put",
		WriteSet:       []string{"kv"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO kv VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		return nil, err
	}
	return st, nil
}

// recoveredKeys recovers a store from dir and returns the set of kv keys.
func recoveredKeys(t *testing.T, dir string, parts int) map[int64]bool {
	t.Helper()
	keys, err := recoverKeys(dir, parts)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// recoverKeys is recoveredKeys for a goroutine that must not call t.Fatal.
func recoverKeys(dir string, parts int) (map[int64]bool, error) {
	st, err := kvStore(gcTestConfig(dir, parts))
	if err != nil {
		return nil, err
	}
	if err := st.Start(); err != nil {
		return nil, err
	}
	res, err := st.Query("SELECT k FROM kv")
	if err = errors.Join(err, st.Stop()); err != nil {
		return nil, err
	}
	keys := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		keys[r[0].Int()] = true
	}
	return keys, nil
}

// TestGroupCommitAckedSubsetRecovered is the command-log contract under
// group commit: every transaction acknowledged to a client by the crash
// point must be recovered (acked ⊆ recovered), while unacked work may be
// silently dropped (torn-tail rule). An ack also proves everything logged
// before it on the same partition: border batches take no future and
// start no fsync, yet every one that committed ahead of an acked call
// must be recovered with it. The history is crashed at every point, in
// every variant.
func TestGroupCommitAckedSubsetRecovered(t *testing.T) {
	const parts = 2
	const wave = 200
	const fed = 60 // keys fedBase.., one un-waited border batch each
	const fedBase = 1_000_000
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	fsys := recordStore(t, st)
	must(t, st.Start())

	// Wave 0: border batches, queued on both partitions ahead of every
	// put. Nothing acknowledges them; the puts' acks are their only
	// witness.
	for k := int64(fedBase); k < fedBase+fed; k++ {
		must(t, st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(k)}))
	}

	// Waves 1 and 2: all of a wave's puts in flight together, the second
	// wave after every ack of the first. A put counts as acked from the
	// point its ack followed.
	acked := make(map[int64]int, 2*wave+fed) // key → the point its ack followed
	var mu sync.Mutex
	putWave := func(from, to int64) {
		var wg sync.WaitGroup
		for k := from; k < to; k++ {
			ch := st.CallAsync("put", types.NewInt(k), types.NewInt(k*10))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if cr := <-ch; cr.Err == nil {
					at := fsys.Len()
					mu.Lock()
					acked[k] = at
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	putWave(0, wave)
	if len(acked) != wave {
		t.Fatalf("%d of the %d wave-1 puts were acked", len(acked), wave)
	}
	putWave(wave, 2*wave)
	if n := st.Metrics().Snapshot()[metrics.WalUnwaitedRecords]; n != fed {
		t.Fatalf("%d of the %d border batches were logged un-waited", n, fed)
	}
	must(t, st.Stop())
	// A border batch is acked by the first ack on its partition.
	firstAck := make([]int, parts)
	for i := range firstAck {
		firstAck[i] = fsys.Len() + 1
	}
	for k, at := range acked {
		i := st.partitionFor(types.NewInt(k))
		firstAck[i] = min(firstAck[i], at)
	}
	for k := int64(fedBase); k < fedBase+fed; k++ {
		acked[k] = firstAck[st.partitionFor(types.NewInt(k))]
	}

	t.Logf("%d crash points", fsys.Len()+1)
	eachCrashImageConcurrently(t, fsys, crashPoints(0, fsys.Len()), func(img string, p int) error {
		got, err := recoverKeys(img, parts)
		if err != nil {
			return err
		}
		for k, at := range acked {
			if at <= p && !got[k] {
				return fmt.Errorf("key %d, acked at point %d, not recovered (acked ⊄ recovered)", k, at)
			}
		}
		for k := range got {
			if (k < 0 || k >= 2*wave) && (k < fedBase || k >= fedBase+fed) {
				return fmt.Errorf("recovered key %d was never written", k)
			}
		}
		return nil
	})
}

// TestCheckpointBarrierHardensUnwaitedRecords: the checkpoint's force at
// its cut is a waiter like any other, so records nobody waited on are on
// disk — counted by an fsync — before the snapshot is cut and the log
// truncated; the barrier does not depend on the staleness bound having
// expired.
func TestCheckpointBarrierHardensUnwaitedRecords(t *testing.T) {
	const parts = 2
	const fed = 40
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < fed; k++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := st.Metrics().Snapshot()
	if snap[metrics.WalUnwaitedRecords] != fed || snap[metrics.LogRecords] != fed {
		t.Fatalf("logged %d records, %d un-waited; want %d of each", snap[metrics.LogRecords], snap[metrics.WalUnwaitedRecords], fed)
	}
	if snap[metrics.WalFsyncRecords] != snap[metrics.LogRecords] {
		t.Fatalf("checkpoint truncated the log with %d of %d records never covered by an fsync",
			snap[metrics.LogRecords]-snap[metrics.WalFsyncRecords], snap[metrics.LogRecords])
	}
	if snap[metrics.WalFsyncs] == 0 || snap[metrics.WalFsyncs] > snap[metrics.WalFsyncRecords] {
		t.Fatalf("%d fsyncs for %d records", snap[metrics.WalFsyncs], snap[metrics.WalFsyncRecords])
	}
	// The operator's view: the same three numbers in the stats result.
	stats := map[string]string{}
	for _, r := range st.StatsResult().Rows {
		stats[r[0].Str()] = r[1].Str()
	}
	for key, want := range map[string]int64{
		"wal_fsyncs": snap[metrics.WalFsyncs], "wal_fsync_records": snap[metrics.WalFsyncRecords], "wal_unwaited_records": snap[metrics.WalUnwaitedRecords],
	} {
		if stats[key] != fmt.Sprint(want) {
			t.Fatalf("stats %s = %q, want %d", key, stats[key], want)
		}
	}
	// The log keeps only its cut's last record, which a restarted
	// follower checks its own log against.
	cut := st.LSN()
	var kept []uint64
	if _, err := wal.ScanLog(wal.LogPath(dir), func(lsn uint64, _ []byte) error { kept = append(kept, lsn); return nil }); err != nil || fmt.Sprint(kept) != fmt.Sprint([]uint64{cut}) {
		t.Fatalf("log after checkpoint at LSN %d holds LSNs %v, err %v", cut, kept, err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredKeys(t, dir, parts); len(got) != fed {
		t.Fatalf("recovered %d keys from the checkpoint, want %d", len(got), fed)
	}
}

// TestCheckpointSyncsTheLogOnce: a checkpoint makes the store's one log
// durable at its cut once, not once per partition's barrier: on an idle
// 4-partition store, whose acked puts are durable already, it fsyncs the
// log not at all, and with records nobody waited on pending, at most once
// (none if the staleness bound's fsync got there first).
func TestCheckpointSyncsTheLogOnce(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 4)
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	defer st.Stop()
	syncs := fsys.Syncs(wal.LogPath(cfg.Dir))
	checkpoint := func() int {
		before := syncs.Count()
		must(t, st.Checkpoint())
		return syncs.Count() - before
	}
	for k := int64(0); k < 8; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := checkpoint(); n != 0 {
		t.Fatalf("a checkpoint of an idle store synced the log %d times, want 0", n)
	}
	for k := int64(0); k < 8; k++ {
		must(t, st.Ingest("feed", types.Row{types.NewInt(100 + k), types.NewInt(k)}))
	}
	st.Drain()
	if n := checkpoint(); n > 1 {
		t.Fatalf("a checkpoint with un-waited records pending synced the log %d times, want at most 1", n)
	}
	if n := checkpoint(); n != 0 {
		t.Fatalf("a checkpoint right after a checkpoint synced the log %d times, want 0", n)
	}
}

// TestGroupCommitTornTailDropped crashes a run of acked puts at every
// point, in every variant (Torn cuts the last unsynced frame mid-write),
// and verifies recovery still succeeds with a prefix of the puts, no
// holes, covering every put acked by the crash.
func TestGroupCommitTornTailDropped(t *testing.T) {
	const puts = 50
	st := buildKV(t, gcTestConfig(t.TempDir(), 1))
	fsys := recordStore(t, st)
	must(t, st.Start())
	var acked [puts]int // put k's ack followed point acked[k]
	for k := range int64(puts) {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
		acked[k] = fsys.Len()
	}
	must(t, st.Stop())

	eachCrashImageConcurrently(t, fsys, crashPoints(0, fsys.Len()), func(img string, p int) error {
		got, err := recoverKeys(img, 1)
		if err != nil {
			return err
		}
		// The survivors must be exactly the keys 0..n-1 (log order).
		for k := range int64(len(got)) {
			if !got[k] {
				return fmt.Errorf("recovered %d keys with a hole at key %d", len(got), k)
			}
		}
		for k, at := range acked {
			if at <= p && k >= len(got) {
				return fmt.Errorf("put %d, acked at point %d, not recovered (%d keys)", k, at, len(got))
			}
		}
		return nil
	})
}

// TestGroupCommitCheckpointUnderLoad hammers CallAsync across partitions
// while checkpoints run concurrently: the all-partition barrier must drain
// pending commit futures before each snapshot+truncate, and the final
// recovered state must hold every acknowledged key. Run with -race this
// also shakes out pipeline data races.
func TestGroupCommitCheckpointUnderLoad(t *testing.T) {
	const parts = 4
	const writers = 4
	const perWriter = 150
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := int64(w*perWriter + i)
				if cr := <-st.CallAsync("put", types.NewInt(k), types.NewInt(k)); cr.Err != nil {
					errCh <- fmt.Errorf("put %d: %w", k, cr.Err)
					return
				}
			}
		}(w)
	}
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		for i := 0; i < 6; i++ {
			if err := st.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-ckDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := st.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != writers*perWriter {
		t.Fatalf("live store holds %d keys, want %d", n, writers*perWriter)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	// Every call was acked, so recovery must reproduce the full set.
	got := recoveredKeys(t, dir, parts)
	if len(got) != writers*perWriter {
		t.Fatalf("recovered %d keys, want %d", len(got), writers*perWriter)
	}
}

// TestSnapshotReadSeesUnackedCommit pins the read guarantee under group
// commit (DESIGN.md §1.4): a snapshot read does not wait for durability.
// While the partition log's fsync is held, a Call has committed and Query
// returns its row, yet the Call is not acked and a crash at that point
// loses the row; once the fsync returns, the ack arrives and the row
// survives a crash. The window is the wait for the fsync to start plus
// the fsync.
func TestSnapshotReadSeesUnackedCommit(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 1)
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	defer st.Stop()
	logPath := wal.LogPath(cfg.Dir)
	syncs := fsys.Syncs(logPath)
	before := syncs.Count()
	var released sync.Once
	hold := syncs.Hold()
	release := func() { released.Do(hold) }
	defer release() // before Stop, which would wait on the held fsync
	ack := st.CallAsync("put", types.NewInt(7), types.NewInt(70))
	for deadline := time.Now().Add(5 * time.Second); syncs.Count() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call's fsync never began")
		}
	}
	res, err := st.Query("SELECT v FROM kv WHERE k = 7")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 70 {
		t.Fatalf("read of a committed, unacked row: %v, %v", res, err)
	}
	select {
	case cr := <-ack:
		t.Fatalf("call acked while its fsync was held: %v", cr.Err)
	default:
	}
	crashImage := func() string {
		img := t.TempDir() + "/image"
		if err := fsys.Image(img, fsys.Len(), crashfs.Synced); err != nil {
			t.Fatal(err)
		}
		return img
	}
	lost := crashImage()
	release()
	select {
	case cr := <-ack:
		if cr.Err != nil {
			t.Fatal(cr.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack after the fsync returned")
	}
	kept := crashImage()
	if recoveredKeys(t, lost, 1)[7] {
		t.Error("a crash while the fsync was held kept the unacked row")
	}
	if !recoveredKeys(t, kept, 1)[7] {
		t.Error("a crash after the ack lost the row")
	}
}
