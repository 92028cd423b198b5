package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// buildPadKV assembles a store with a padded kv table — rows carry a
// 256-byte payload so a few hundred of them overflow a small memory
// budget — plus point put/get/bump procedures routed by key.
func buildPadKV(t testing.TB, cfg Config) *Store {
	t.Helper()
	st := Open(cfg)
	if err := st.ExecScript(`CREATE TABLE kvpad (k BIGINT PRIMARY KEY, v BIGINT, pad VARCHAR) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "padput",
		WriteSet:       []string{"kvpad"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO kvpad VALUES (?, ?, ?)", ctx.Params[0], ctx.Params[1], ctx.Params[2])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "padget",
		ReadSet:        []string{"kvpad"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			res, err := ctx.Exec("SELECT v, pad FROM kvpad WHERE k = ?", ctx.Params[0])
			if err != nil {
				return err
			}
			ctx.SetResult(res)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "padbump",
		WriteSet:       []string{"kvpad"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("UPDATE kvpad SET v = v + 1000 WHERE k = ?", ctx.Params[0])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

const padBudget = 32 << 10 // bytes: a few hundred padded rows blow it

func pad(k int64) types.Value {
	return types.NewString(strings.Repeat(fmt.Sprintf("%03d", k%997), 86)) // 258 bytes
}

func putPadRows(t testing.TB, st *Store, lo, hi int64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		if _, err := st.Call("padput", types.NewInt(k), types.NewInt(k*7), pad(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// forceEvict drives every partition through a worker barrier, which runs
// the GC + anti-caching sweep (the same pass a checkpoint triggers).
func forceEvict(t testing.TB, st *Store) {
	t.Helper()
	for i := 0; i < st.NumPartitions(); i++ {
		if err := st.PEAt(i).RunExclusive(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPadRows verifies all rows in [0,n) through the snapshot fan-out
// path and the worker point-read path.
func checkPadRows(t testing.TB, st *Store, n int64) {
	t.Helper()
	res, err := st.Query("SELECT COUNT(*), SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := 7 * n * (n - 1) / 2
	if res.Rows[0][0].Int() != n || res.Rows[0][1].Int() != wantSum {
		t.Fatalf("aggregate = %v, want [%d %d]", res.Rows[0], n, wantSum)
	}
	for k := int64(0); k < n; k += 17 { // sample the point paths
		got, err := st.Call("padget", types.NewInt(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 1 || got.Rows[0][0].Int() != k*7 || got.Rows[0][1].Str() != pad(k).Str() {
			t.Fatalf("padget(%d) = %v", k, got.Rows)
		}
	}
}

// TestAntiCacheEvictAndFaultEquivalence: a store over budget evicts down
// to it, and every read path — snapshot scans, snapshot point reads,
// worker point reads — returns identical data before and after eviction,
// faulting cold tuples back from the cold store.
func TestAntiCacheEvictAndFaultEquivalence(t *testing.T) {
	st := buildPadKV(t, Config{MemoryBudget: padBudget})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const n = 500
	putPadRows(t, st, 0, n)
	forceEvict(t, st)

	snap := st.Metrics().Snapshot()
	if snap[metrics.ColdEvictions] == 0 {
		t.Fatal("no evictions despite resident set over budget")
	}
	if snap[metrics.ColdResidentBytes] > padBudget {
		t.Fatalf("resident %d bytes, budget %d", snap[metrics.ColdResidentBytes], padBudget)
	}
	checkPadRows(t, st, n)
	forceEvict(t, st) // sync the per-table fault counters into metrics
	if after := st.Metrics().Snapshot(); after[metrics.ColdFaults] == 0 {
		t.Fatal("reads over evicted rows recorded no cold faults")
	}
	// stats surface carries the three anti-caching rows, beside them what
	// the budget does not count (n index entries), and the fault I/O
	stats := st.StatsResult()
	seen := map[string]string{}
	for _, r := range stats.Rows {
		seen[r[0].Str()] = r[1].Str()
	}
	for _, name := range []string{"cold_evictions", "cold_faults", "cold_resident_bytes"} {
		if _, ok := seen[name]; !ok {
			t.Fatalf("stats missing %s row", name)
		}
	}
	// (an index entry is at least a one-lane node, 48 B)
	for name, per := range map[string]int64{"index_bytes": 48, "index_bytes.p0": 48} {
		if v, err := strconv.ParseInt(seen[name], 10, 64); err != nil || v < n*per {
			t.Fatalf("stats row %s = %q, want at least %d bytes", name, seen[name], n*per)
		}
	}
	for _, name := range []string{"cold_read_bytes", "cold_read_bytes.p0"} {
		if v, err := strconv.ParseInt(seen[name], 10, 64); err != nil || v <= 0 {
			t.Fatalf("stats row %s = %q after cold faults, want bytes read", name, seen[name])
		}
	}
}

// TestAntiCachePinnedSnapshotSeesEvictedVersions: a reader holding a
// snapshot pin observes the pinned state identically even after the
// versions it reads were evicted to the cold store and the rows updated.
func TestAntiCachePinnedSnapshotSeesEvictedVersions(t *testing.T) {
	st := buildPadKV(t, Config{MemoryBudget: padBudget})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const n = 300
	putPadRows(t, st, 0, n)

	pin := st.PinSnapshot()
	defer pin.Release()
	for k := int64(0); k < n; k++ {
		if _, err := st.Call("padbump", types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned versions are committed below the pin's sequence, so the
	// evictor may (and under this budget will) move them to cold pages.
	forceEvict(t, st)
	if snap := st.Metrics().Snapshot(); snap[metrics.ColdEvictions] == 0 {
		t.Fatal("no evictions despite resident set over budget")
	}
	res, err := st.QueryPinned(pin, "SELECT COUNT(*), SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	wantOld := 7 * int64(n) * (n - 1) / 2
	if res.Rows[0][0].Int() != int64(n) || res.Rows[0][1].Int() != wantOld {
		t.Fatalf("pinned aggregate = %v, want [%d %d]", res.Rows[0], n, wantOld)
	}
	// The live snapshot sees every bump.
	live, err := st.Query("SELECT SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	if live.Rows[0][0].Int() != wantOld+1000*int64(n) {
		t.Fatalf("live sum = %v, want %d", live.Rows[0][0], wantOld+1000*int64(n))
	}
	// Releasing the pin lets GC reclaim the old versions' stubs; the live
	// state must be unaffected.
	pin.Release()
	forceEvict(t, st)
	live, err = st.Query("SELECT SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	if live.Rows[0][0].Int() != wantOld+1000*int64(n) {
		t.Fatalf("post-GC live sum = %v, want %d", live.Rows[0][0], wantOld+1000*int64(n))
	}
}

// TestAntiCacheCrashAfterEvictionLosesNoAckedWrites: the cold store is
// volatile, so every acked write — including ones whose only in-memory
// trace is a stub — must come back from the checkpoint + log alone. The
// checkpoint here is taken while much of the table is evicted, so the
// snapshot writer's read-through path is on trial too.
func TestAntiCacheCrashAfterEvictionLosesNoAckedWrites(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Sync: wal.SyncEveryRecord, MemoryBudget: padBudget}
	st := buildPadKV(t, cfg)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 300
	putPadRows(t, st, 0, n)
	forceEvict(t, st)
	if snap := st.Metrics().Snapshot(); snap[metrics.ColdEvictions] == 0 {
		t.Fatal("no evictions despite resident set over budget")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	putPadRows(t, st, n, n+100) // acked after the checkpoint: live in the log only
	// Crash: no Stop, no final checkpoint — the store is abandoned with
	// its cold pages holding the only in-memory copies of evicted rows.
	st = buildPadKV(t, cfg)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	checkPadRows(t, st, n+100)
}

// TestAntiCacheFollowerUnaffectedByPrimaryEviction: eviction on the
// primary is an in-memory storage rearrangement — the WAL the follower
// tails is unchanged, so the replica converges to identical state.
func TestAntiCacheFollowerUnaffectedByPrimaryEviction(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 1)
	cfg.MemoryBudget = padBudget
	st := buildPadKV(t, cfg)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	fst := buildPadKV(t, Config{}) // follower: no budget, fully resident
	f, err := NewFollower(fst, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const n = 300
	putPadRows(t, st, 0, n)
	forceEvict(t, st)
	if snap := st.Metrics().Snapshot(); snap[metrics.ColdEvictions] == 0 {
		t.Fatal("no evictions despite resident set over budget")
	}
	putPadRows(t, st, n, n+50)

	rs := f.Session()
	rs.Forward(st.LSN())
	res, err := rs.Query("SELECT COUNT(*), SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(n + 50)
	wantSum := 7 * total * (total - 1) / 2
	if res.Rows[0][0].Int() != total || res.Rows[0][1].Int() != wantSum {
		t.Fatalf("follower aggregate = %v, want [%d %d]", res.Rows[0], total, wantSum)
	}
}

// TestAntiCacheHammer races the serial writer, snapshot readers, pinned
// readers, checkpoints, and the evictor against each other. Run under
// -race it is the subsystem's data-race probe; the final consistency
// check catches lost or duplicated tuples.
func TestAntiCacheHammer(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Sync: wal.SyncNever, MemoryBudget: padBudget, Partitions: 2}
	st := buildPadKV(t, cfg)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	const writers, perWriter = 4, 200
	var next atomic.Int64
	var writerWg, bgWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				k := next.Add(1)
				if _, err := st.Call("padput", types.NewInt(k), types.NewInt(k*7), pad(k)); err != nil {
					t.Error(err)
					return
				}
				if k%3 == 0 {
					if _, err := st.Call("padbump", types.NewInt(k)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		bgWg.Add(1)
		go func() {
			defer bgWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Query("SELECT COUNT(*), SUM(v) FROM kvpad"); err != nil {
					t.Error(err)
					return
				}
				pin := st.PinSnapshot()
				if _, err := st.QueryPinned(pin, "SELECT COUNT(*) FROM kvpad"); err != nil {
					t.Error(err)
					pin.Release()
					return
				}
				pin.Release()
			}
		}()
	}
	bgWg.Add(1)
	go func() { // evictor + checkpointer: barriers while everything runs
		defer bgWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < st.NumPartitions(); i++ {
				if err := st.PEAt(i).RunExclusive(func() error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	writerWg.Wait()
	close(stop)
	bgWg.Wait()

	forceEvict(t, st)
	total := next.Load()
	res, err := st.Query("SELECT COUNT(*), SUM(v) FROM kvpad")
	if err != nil {
		t.Fatal(err)
	}
	bumps := total / 3
	wantSum := 7*total*(total+1)/2 + 1000*bumps
	if res.Rows[0][0].Int() != total || res.Rows[0][1].Int() != wantSum {
		t.Fatalf("final aggregate = %v, want [%d %d]", res.Rows[0], total, wantSum)
	}
}
