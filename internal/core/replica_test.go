package core

import (
	"errors"
	"fmt"
	"strconv"
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

// kvFollower builds a non-durable replica store with the kv schema and
// attaches it to primary as an in-process follower. The caller owns Run /
// Promote; cleanup stops whichever store ends up running.
func kvFollower(t *testing.T, primary *Store, parts int) *Follower {
	t.Helper()
	fst := buildKV(t, Config{Partitions: parts})
	f, err := NewFollower(fst, primary)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// keySet full-scans kv through fn and returns the key set. Full scans, not
// point lookups: replayed rows live on the partition that logged them, and
// a full scan's fan-out sees every partition regardless of hash placement.
func keySet(t *testing.T, query func(string, ...types.Value) (*pe.Result, error)) map[int64]int {
	t.Helper()
	res, err := query("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[int64]int, len(res.Rows))
	for _, r := range res.Rows {
		keys[r[0].Int()]++
	}
	return keys
}

// TestFollowerReplicatesAndServesReads is the basic shipping contract: a
// follower tails the primary's WAL, a session forwarded to the primary's
// LSN vector reads its own writes, lag converges to zero on an idle
// primary, and the replication counters surface through the stats surface.
func TestFollowerReplicatesAndServesReads(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	f := kvFollower(t, st, parts)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const n = 60
	for k := int64(0); k < n; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(k*10)); err != nil {
			t.Fatal(err)
		}
	}
	rs := f.Session()
	rs.Forward(st.LSN())
	res, err := rs.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := int64(n*(n-1)/2) * 10
	if res.Rows[0][0].Int() != n || res.Rows[0][1].Int() != wantSum {
		t.Fatalf("follower aggregate = %v, want [%d %d]", res.Rows, n, wantSum)
	}
	keys := keySet(t, rs.Query)
	for k := int64(0); k < n; k++ {
		if keys[k] != 1 {
			t.Fatalf("key %d appears %d times on the follower", k, keys[k])
		}
	}

	// Read-your-writes across a fresh write: forward the vector taken after
	// the ack and the row must be visible.
	if _, err := st.Call("put", types.NewInt(1000), types.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	rs.Forward(st.LSN())
	if keys := keySet(t, rs.Query); keys[1000] != 1 {
		t.Fatalf("read-your-writes: key 1000 missing after Forward (keys=%d)", len(keys))
	}

	// Writes are rejected on the replica.
	if _, err := f.Query("INSERT INTO kv VALUES (9, 9)"); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica write err = %v", err)
	}

	// Idle primary: lag must converge to zero.
	deadline := time.Now().Add(5 * time.Second)
	for f.Lag() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replication lag stuck at %d", f.Lag())
		}
		time.Sleep(time.Millisecond)
	}

	// The counters surface through the stats rows (sstorecli stats).
	stats := f.Store().StatsResult()
	got := map[string]int64{}
	for _, r := range stats.Rows {
		if v, err := strconv.ParseInt(r[1].Str(), 10, 64); err == nil {
			got[r[0].Str()] = v
		}
	}
	if got["repl_records_applied"] < n {
		t.Fatalf("repl_records_applied = %d, want >= %d", got["repl_records_applied"], n)
	}
	if _, ok := got["repl_lag"]; !ok {
		t.Fatal("repl_lag missing from stats")
	}
	if got["follower_reads"] == 0 {
		t.Fatal("follower_reads not counted")
	}
}

// TestFollowerAppliesMultiPartitionWrites ships logged 2PC work
// (MultiPartitionTxn — the command-logged coordinated path): each
// transaction is one record, which the follower applies on both legs'
// partitions. The session read sees both legs of every transaction.
func TestFollowerAppliesMultiPartitionWrites(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	f := kvFollower(t, st, parts)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Each transaction writes one row to each partition; single-partition
	// puts interleave so the decided legs apply amid ordinary records.
	total := 0
	for base := int64(0); base < 80; base += 2 {
		base := base
		if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, 1)", types.NewInt(base)); err != nil {
				return err
			}
			_, err := tx.Exec(1, "INSERT INTO kv VALUES (?, 1)", types.NewInt(base+1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		total += 2
		if _, err := st.Call("put", types.NewInt(1000+base), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
		total++
	}
	rs := f.Session()
	rs.Forward(st.LSN())
	res, err := rs.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != int64(total) || res.Rows[0][1].Int() != int64(total) {
		t.Fatalf("after coordinated writes: %v, want [%d %d]", res.Rows, total, total)
	}
}

// TestFollowerRefusesTwoPhaseRecords: a follower applies each record as it
// arrives, so it cannot apply an earlier version's two-phase records, whose
// decision may come later in the log. A live follower that meets one stops
// with an error that says to re-seed it, and refuses promotion; a durable
// follower whose directory holds one refuses to restart; a recovery of the
// primary applies the decided transaction and drops the undecided one.
func TestFollowerRefusesTwoPhaseRecords(t *testing.T) {
	const parts = 2
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, parts))
	must(t, st.Start())
	for k := int64(0); k < 10; k++ {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
	}
	must(t, st.Stop())

	// An earlier version's crash state. Partition 0: an undecided PREPARE
	// (txn 99, key 777) followed by a decided one (txn 101, key 887).
	// Partition 1: txn 101's other leg (key 888) and its commit marker.
	appendRecords(t, dir, 0,
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99, Ops: []pe.LoggedOp{putOp(777, 777)}},
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 101, Ops: []pe.LoggedOp{putOp(887, 887)}})
	appendRecords(t, dir, 1,
		&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 101, Ops: []pe.LoggedOp{putOp(888, 888)}},
		&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 101, Commit: true})

	reseed := func(err error) bool { return err != nil && strings.Contains(err.Error(), "re-seed") }
	fcfg := gcTestConfig(t.TempDir(), parts)
	f, err := NewFollower(buildKV(t, fcfg), st)
	must(t, err)
	pollUntilIdle(t, f)
	if err := f.Err(); !reseed(err) {
		t.Fatalf("follower past a two-phase record reports %v, want a re-seed error", err)
	}
	if keys := kvRows(f.st); len(keys) != 10 {
		t.Fatalf("follower holds %d keys, want the 10 before the two-phase records", len(keys))
	}
	if promoted, err := f.Promote(); err == nil {
		promoted.Stop()
		t.Fatal("a follower that met a two-phase record was promoted")
	}
	must(t, f.Stop())
	if f, err := NewFollower(buildKV(t, fcfg), st); !reseed(err) {
		if err == nil {
			f.Stop()
		}
		t.Fatalf("restart on a directory with a two-phase record: %v, want a re-seed error", err)
	}

	got := recoveredKeys(t, dir, parts)
	if got[777] || !got[887] || !got[888] || len(got) != 12 {
		t.Fatalf("recovery holds %v, want the 10 puts and txn 101", got)
	}
}

// TestFollowerShipGapFromZero: a follower that attaches at LSN 0 to a
// primary that checkpointed is not shipped the log's surviving suffix as if
// it were the whole log. The first frame is past LSN 1, so the stream stops
// with ErrShipGap, and Promote refuses.
func TestFollowerShipGapFromZero(t *testing.T) {
	st := buildKV(t, gcTestConfig(t.TempDir(), 1))
	must(t, st.Start())
	defer st.Stop()
	for k := int64(0); k < 15; k++ {
		if k == 10 {
			must(t, st.Checkpoint())
		}
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
	}
	f := kvFollower(t, st, 1)
	must(t, f.Run())
	defer f.Stop()
	for deadline := time.Now().Add(10 * time.Second); f.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no error after 10s; the follower holds %d of 15 keys", len(keySet(t, f.Query)))
		}
	}
	if err := f.Err(); !errors.Is(err, wal.ErrShipGap) {
		t.Fatalf("follower error %v, want ErrShipGap", err)
	}
	if _, err := f.Promote(); !errors.Is(err, wal.ErrShipGap) {
		t.Fatalf("Promote = %v, want a refusal with ErrShipGap", err)
	}
}

// TestFollowerRefusesDivergedDirectory: a follower directory whose last
// record differs from its source's record at that LSN (here it was
// promoted and took a put while the primary took another) is refused with
// an error naming the partition and the LSN, not extended.
func TestFollowerRefusesDivergedDirectory(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	must(t, st.Start())
	defer st.Stop()
	for k := int64(0); k < 10; k++ {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
	}
	fcfg := gcTestConfig(t.TempDir(), parts)
	f, err := NewFollower(buildKV(t, fcfg), st)
	must(t, err)
	pollUntilIdle(t, f)
	must(t, f.Err())
	promoted, err := f.Promote()
	must(t, err)
	k := keysOwnedBy(st, 0, 1, 100)[0]
	_, err = promoted.Call("put", types.NewInt(k), types.NewInt(1))
	must(t, err)
	must(t, promoted.Stop())
	_, err = st.Call("put", types.NewInt(k), types.NewInt(2))
	must(t, err)

	f, err = NewFollower(buildKV(t, fcfg), st)
	must(t, err)
	pollUntilIdle(t, f)
	want := fmt.Sprintf("the log diverges from its source at LSN %d", st.LSN())
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("follower of a diverged directory: err = %v, want %q", err, want)
	}
	if _, err := f.Promote(); err == nil {
		t.Fatal("a diverged follower was promoted")
	}
	// A failed promotion leaves the follower to Stop, which closes its log.
	must(t, f.Stop())
	if f.Store().log != nil {
		t.Fatal("the log is open after Stop of a follower that failed to promote")
	}
}

// TestNewFollowerClosesLogsOnFailure: a durable follower whose replay fails
// on partition 1 leaves no log open.
func TestNewFollowerClosesLogsOnFailure(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 2)
	appendRecords(t, cfg.Dir, 1, &pe.LogRecord{Kind: pe.RecCall, Proc: "no_such_proc"})
	st := buildKV(t, cfg)
	if _, err := NewFollower(st, st); err == nil {
		t.Fatal("a follower replayed a call of an unknown procedure")
	}
	if st.log != nil {
		t.Fatal("the log is open after NewFollower failed")
	}
}

// TestDurableFollowerCountsItsFsyncs: a durable follower forces what it
// applies through its own logs, so its stats show its own wal_fsyncs; a
// volatile one shows none.
func TestDurableFollowerCountsItsFsyncs(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	must(t, st.Start())
	defer st.Stop()
	for k := int64(0); k < 10; k++ {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
	}
	for _, cfg := range []Config{{Partitions: parts}, gcTestConfig(t.TempDir(), parts)} {
		f, err := NewFollower(buildKV(t, cfg), st)
		must(t, err)
		pollUntilIdle(t, f)
		if keys := keySet(t, f.Query); len(keys) != 10 {
			t.Fatalf("follower holds %d keys, want 10", len(keys))
		}
		// The fsync is counted after the force that waited on it returns.
		deadline := time.Now().Add(5 * time.Second)
		fsyncs := func() int64 { return f.Store().Metrics().Load(metrics.WalFsyncs) }
		for cfg.Dir != "" && fsyncs() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := fsyncs(); (got > 0) != (cfg.Dir != "") {
			t.Errorf("follower with Dir %q counts %d wal_fsyncs", cfg.Dir, got)
		}
		must(t, f.Stop())
	}
}

// TestFailoverPromoteNoAckedWriteLost kills the primary mid-burst and
// promotes the follower. The oracle is the ISSUE's acceptance bar: every
// write acknowledged to a client survives on the promoted store, nothing
// appears that was never submitted, nothing is applied twice — and the
// promoted store accepts new writes.
func TestFailoverPromoteNoAckedWriteLost(t *testing.T) {
	const parts = 2
	const total = 600
	const writers = 4
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	f := kvFollower(t, st, parts)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}

	var acked [total]atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < total; k += writers {
				if _, err := st.Call("put", types.NewInt(int64(k)), types.NewInt(int64(k))); err != nil {
					return // the primary died under us; unacked writes may vanish
				}
				acked[k].Store(true)
			}
		}(w)
	}
	// The crash, mid-burst.
	crash := make(chan struct{})
	go func() {
		defer close(crash)
		time.Sleep(3 * time.Millisecond)
		_ = st.Stop()
	}()
	wg.Wait()
	<-crash

	promoted, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Stop()
	keys := keySet(t, promoted.Query)
	nAcked := 0
	for k := 0; k < total; k++ {
		if acked[k].Load() {
			nAcked++
			if keys[int64(k)] == 0 {
				t.Fatalf("acked key %d lost across failover", k)
			}
		}
	}
	for k, n := range keys {
		if k < 0 || k >= total {
			t.Fatalf("phantom key %d on promoted store", k)
		}
		if n != 1 {
			t.Fatalf("key %d applied %d times", k, n)
		}
	}
	t.Logf("failover oracle: %d acked, %d present", nAcked, len(keys))

	// The promoted store is live for both writes and reads.
	if _, err := promoted.Call("put", types.NewInt(int64(total)), types.NewInt(1)); err != nil {
		t.Fatalf("promoted store rejected a write: %v", err)
	}
	if keys := keySet(t, promoted.Query); keys[total] != 1 {
		t.Fatal("write to promoted store not visible")
	}
	// The follower surface is closed after promotion.
	if _, err := f.Query("SELECT COUNT(*) FROM kv"); err == nil ||
		!strings.Contains(err.Error(), "promoted") {
		t.Fatalf("post-promotion follower query err = %v", err)
	}
}

// TestFollowerReadsVsWriterVsPromotionHammer races session reads against a
// primary writer and then a promotion, under -race in CI: reads must only
// ever succeed or fail with the promotion notice — never a torn result or
// a data race.
func TestFollowerReadsVsWriterVsPromotionHammer(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	f := kvFollower(t, st, parts)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			rs := f.Session()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rs.Query("SELECT COUNT(*), SUM(v) FROM kv")
				if err != nil {
					if strings.Contains(err.Error(), "promoted") {
						return
					}
					t.Errorf("replica read: %v", err)
					return
				}
				// v mirrors k, so the pair must always be consistent.
				if res.Rows[0][0].Int() > 0 && !res.Rows[0][1].IsNull() &&
					res.Rows[0][1].Int() != res.Rows[0][0].Int() {
					t.Errorf("torn replica read: %v", res.Rows)
					return
				}
			}
		}()
	}
	for k := int64(0); k < 300; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	promoted, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	readerWG.Wait()
	defer promoted.Stop()
	if keys := keySet(t, promoted.Query); len(keys) != 300 {
		t.Fatalf("promoted store has %d keys, want 300", len(keys))
	}
}

// TestFollowerRejectsMisconfiguration pins the constructor's guardrails.
func TestFollowerRejectsMisconfiguration(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	started := buildKV(t, Config{Partitions: parts})
	if err := started.Start(); err != nil {
		t.Fatal(err)
	}
	defer started.Stop()
	if _, err := NewFollower(started, st); err == nil ||
		!strings.Contains(err.Error(), "must not be started") {
		t.Fatalf("started follower err = %v", err)
	}
	narrow := buildKV(t, Config{Partitions: parts + 1})
	if _, err := NewFollower(narrow, st); err == nil ||
		!strings.Contains(err.Error(), "counts must match") {
		t.Fatalf("partition-mismatch err = %v", err)
	}

	// Replication needs a durable primary.
	volatile := buildKV(t, Config{Partitions: parts})
	if _, err := volatile.FetchBatch(0, 0); err == nil ||
		!strings.Contains(err.Error(), "durable primary") {
		t.Fatalf("volatile primary fetch err = %v", err)
	}
}
