package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// statsGolden is every row StatsResult renders on a 2-partition store, in
// order, with its value's format: int (base 10), mean (%.2f) or dur
// (time.Duration.String). benchmark/harness reads rows by name with
// ParseFloat and latency_p50 with time.ParseDuration.
const statsGolden = `
txn_committed int
txn_aborted int
client_to_pe int
pe_to_ee int
ee_internal int
tuples_ingested int
batches_border int
triggered_txns int
window_slides int
stream_gc_tuples int
log_records int
log_bytes int
wal_fsyncs int
wal_fsync_records int
wal_unwaited_records int
wal_period_waits int
wal_period_waits.p0 int
wal_period_waits.p1 int
wal_fsync_p50 dur
wal_fsync_p99 dur
mp_txns int
mp_aborts int
mp_legs_committed int
mp_concurrent int
mp_read_only_legs int
mp_one_phase int
mp_leg_waits int
mp_prepare_batches int
mp_prepare_batch_mean mean
snapshot_reads int
gc_runs int
gc_versions_reclaimed int
versions_retained int
gc_watermark_lag int
gc_watermark_lag.p0 int
gc_watermark_lag.p1 int
oldest_pin_age_ms int
cold_evictions int
cold_faults int
cold_resident_bytes int
index_bytes int
index_bytes.p0 int
index_bytes.p1 int
cold_read_bytes int
cold_read_bytes.p0 int
cold_read_bytes.p1 int
rows_examined int
rows_examined.p0 int
rows_examined.p1 int
rows_returned int
ack_backlog int
ack_backlog.p0 int
ack_backlog.p1 int
deferred_executions int
deferred_executions.p0 int
deferred_executions.p1 int
rebalances int
slots_migrated int
slot_rows_moved int
repl_records_applied int
repl_lag int
follower_reads int
promotions int
latency_count int
latency_p50 dur
latency_p99 dur
latency_p9999 dur
queue_wait_p50 dur
queue_wait_p99 dur
execute_p50 dur
execute_p99 dur
durable_wait_p50 dur
durable_wait_p99 dur
mp_latency_p50 dur
mp_latency_p99 dur
mp_slot_wait_p50 dur
mp_slot_wait_p99 dur
mp_execute_p50 dur
mp_execute_p99 dur
mp_vote_wait_p50 dur
mp_vote_wait_p99 dur
mp_marker_wait_p50 dur
mp_marker_wait_p99 dur
cutover_pause_count int
cutover_pause_p50 dur
cutover_pause_p99 dur
go_gc_cycles int
go_alloc_bytes int
`

// TestStatsRowsGolden pins StatsResult's row names, their order and each
// value's format, after traffic that moves counters, means and latencies.
func TestStatsRowsGolden(t *testing.T) {
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for k := 1; k <= 4; k++ {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?)", types.NewInt(int64(k)), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Query("SELECT k FROM kv WHERE v = 1"); err != nil {
		t.Fatal(err)
	}
	formats := map[string]*regexp.Regexp{
		"int":  regexp.MustCompile(`^-?[0-9]+$`),
		"mean": regexp.MustCompile(`^-?[0-9]+\.[0-9]{2}$`),
		"dur":  regexp.MustCompile(`^(0s|([0-9.]+(h|m|s|ms|µs|ns))+)$`),
	}
	want := strings.Fields(statsGolden)
	rows := st.StatsResult().Rows
	if len(rows) != len(want)/2 {
		t.Errorf("%d rows, want %d", len(rows), len(want)/2)
	}
	for i := 0; i < len(rows) && 2*i < len(want); i++ {
		name, val := rows[i][0].Str(), rows[i][1].Str()
		wantName, format := want[2*i], want[2*i+1]
		if name != wantName {
			t.Fatalf("row %d is %s, want %s", i, name, wantName)
		}
		if !formats[format].MatchString(val) {
			t.Errorf("%s = %q, not a %s", name, val, format)
		}
		if _, err := time.ParseDuration(val); format == "dur" && err != nil {
			t.Errorf("%s = %q: %v", name, val, err)
		}
	}
}

// statsRow reads one row of StatsResult.
func statsRow(t *testing.T, st *Store, name string) string {
	t.Helper()
	for _, r := range st.StatsResult().Rows {
		if r[0].Str() == name {
			return r[1].Str()
		}
	}
	t.Fatalf("no stats row %s", name)
	return ""
}

// waitStatsRow polls a row until it reads want; the deadline only bounds
// a failure.
func waitStatsRow(t *testing.T, st *Store, name, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); statsRow(t, st, name) != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %s, want %s", name, statsRow(t, st, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAckBacklogGauge: with the partition log's fsync held, K durable
// calls execute and wait on the acker, and ack_backlog counts them; once
// the fsync is released and a barrier drains the acker, it reads 0.
func TestAckBacklogGauge(t *testing.T) {
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, 1))
	fsys := recordStore(t, st)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	logPath, _ := wal.PartitionPaths(dir, 0)
	release := fsys.Syncs(logPath).Hold()
	const k = 5
	calls := make([]<-chan pe.CallResult, k)
	for i := range calls {
		calls[i] = st.CallAsync("put", types.NewInt(int64(i)), types.NewInt(1))
	}
	waitStatsRow(t, st, "ack_backlog.p0", strconv.Itoa(k))
	if got := statsRow(t, st, "ack_backlog"); got != strconv.Itoa(k) {
		t.Fatalf("ack_backlog = %s, want %d", got, k)
	}
	release()
	for _, c := range calls {
		if cr := <-c; cr.Err != nil {
			t.Fatal(cr.Err)
		}
	}
	// A barrier waits until every queued commit has been acked.
	if err := st.PEAt(0).RunExclusive(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := statsRow(t, st, "ack_backlog.p0"); got != "0" {
		t.Fatalf("ack_backlog.p0 = %s after the barrier, want 0", got)
	}
}

// TestWalPeriodWaitsRow: on a 1-partition durable store, sequential calls
// never batch, so wal_period_waits stays 0. With the log's fsync held, two
// calls queue behind it and the next fsync covers both: the log is
// batching, and the call after them raises the row by exactly 1.
func TestWalPeriodWaitsRow(t *testing.T) {
	dir := t.TempDir()
	st := buildKV(t, gcTestConfig(dir, 1))
	fsys := recordStore(t, st)
	must(t, st.Start())
	defer st.Stop()
	put := func(k int64) <-chan pe.CallResult {
		return st.CallAsync("put", types.NewInt(k), types.NewInt(1))
	}
	acked := func(c <-chan pe.CallResult) {
		t.Helper()
		if cr := <-c; cr.Err != nil {
			t.Fatal(cr.Err)
		}
	}
	rows := func(want string) {
		t.Helper()
		for _, name := range []string{"wal_period_waits", "wal_period_waits.p0"} {
			if got := statsRow(t, st, name); got != want {
				t.Fatalf("%s = %s, want %s", name, got, want)
			}
		}
	}
	for k := range int64(10) {
		acked(put(k))
	}
	rows("0")

	logPath, _ := wal.PartitionPaths(dir, 0)
	syncs := fsys.Syncs(logPath)
	release := syncs.Hold()
	began := syncs.Count()
	first := put(10)
	for deadline := time.Now().Add(10 * time.Second); syncs.Count() == began; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held call's fsync never began")
		}
	}
	behind := []<-chan pe.CallResult{put(11), put(12)}
	waitStatsRow(t, st, "ack_backlog.p0", "3") // both appended behind the held fsync
	release()
	acked(first)
	for _, c := range behind {
		acked(c)
	}
	acked(put(13)) // behind a two-record fsync: waits out the period
	acked(put(14)) // its fsync reported before this one began
	rows("1")
}

// TestDeferredExecutionsGauge: a pause that catches a chain between its
// stages holds the rest of the chain and the batch queued behind it (2
// executions), and deferred_executions counts them until resume.
func TestDeferredExecutionsGauge(t *testing.T) {
	st := Open(Config{})
	if err := st.ExecScript(`
		CREATE STREAM in_s (v BIGINT);
		CREATE STREAM mid_s (v BIGINT);
	`); err != nil {
		t.Fatal(err)
	}
	entered, unblock := make(chan struct{}), make(chan struct{})
	for _, p := range []*pe.Procedure{{
		Name:     "sp_a",
		WriteSet: []string{"mid_s"},
		Handler: func(ctx *pe.ProcCtx) error {
			if ctx.Batch[0][0].Int() == 1 {
				close(entered)
				<-unblock
			}
			return ctx.Emit("mid_s", ctx.Batch[0])
		},
	}, {
		Name:    "sp_b",
		Handler: func(*pe.ProcCtx) error { return nil },
	}} {
		if err := st.RegisterProcedure(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Deploy(&Dataflow{Name: "g", Nodes: []DataflowNode{
		{Proc: "sp_a", Input: "in_s", Batch: 1, Emits: []string{"mid_s"}},
		{Proc: "sp_b", Input: "mid_s", Batch: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	p0 := st.PEAt(0)
	if err := st.Ingest("in_s", types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := st.Ingest("in_s", types.Row{types.NewInt(2)}); err != nil { // sp_a(2) queued behind sp_a(1)
		t.Fatal(err)
	}
	p0.PauseGraph("g")
	close(unblock)
	p0.WaitGraphIdle("g")
	for _, name := range []string{"deferred_executions", "deferred_executions.p0"} {
		if got := statsRow(t, st, name); got != "2" {
			t.Fatalf("%s = %s, want 2 (sp_b(1), sp_a(2))", name, got)
		}
	}
	if err := p0.ResumeGraph("g"); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	if got := statsRow(t, st, "deferred_executions.p0"); got != "0" {
		t.Fatalf("deferred_executions.p0 = %s after resume, want 0", got)
	}
}

// TestCommitStages: a commit's latency is its execution plus its durable
// wait, sample by sample. With the partition log's fsync held for a known
// time after a durable call has committed in memory, the durable wait
// covers the hold and the execution does not; on a volatile store nothing
// waits for a log, so the durable wait is 0. A replayed record is not a
// commit anyone waited for: recovering a border batch with its chain and an
// ad-hoc insert observes nothing, in both log modes.
func TestCommitStages(t *testing.T) {
	const hold = 50 * time.Millisecond
	t.Run("durable", func(t *testing.T) {
		cfg := gcTestConfig(t.TempDir(), 1)
		st := buildKV(t, cfg)
		fsys := recordStore(t, st)
		must(t, st.Start())
		defer st.Stop()
		logPath, _ := wal.PartitionPaths(cfg.Dir, 0)
		release := fsys.Syncs(logPath).Hold()
		ack := st.CallAsync("put", types.NewInt(7), types.NewInt(70))
		// Queued for the acker: committed in memory, its fsync held.
		waitStatsRow(t, st, "ack_backlog.p0", "1")
		time.Sleep(hold)
		release()
		if cr := <-ack; cr.Err != nil {
			t.Fatal(cr.Err)
		}
		// The acker observes after it responds: a barrier waits for it.
		must(t, st.PEAt(0).RunExclusive(func() error { return nil }))
		s := st.Metrics().Snapshot()
		lat, exec, durable := s.Duration(metrics.LatencyP50), s.Duration(metrics.ExecuteP50), s.Duration(metrics.DurableWaitP50)
		if n := s[metrics.LatencyCount]; n != 1 {
			t.Fatalf("latency_count = %d, want 1", n)
		}
		if durable < hold || exec >= hold {
			t.Errorf("durable_wait %v, execute %v: want the %v hold in the durable wait alone", durable, exec, hold)
		}
		if exec+durable != lat {
			t.Errorf("execute %v + durable_wait %v != latency %v", exec, durable, lat)
		}
	})
	t.Run("volatile", func(t *testing.T) {
		st := buildKV(t, Config{Partitions: 1})
		must(t, st.Start())
		defer st.Stop()
		for k := int64(0); k < 8; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
		s := st.Metrics().Snapshot()
		if n := s[metrics.LatencyCount]; n != 8 {
			t.Fatalf("latency_count = %d, want 8", n)
		}
		if d := s.Duration(metrics.DurableWaitP99); d != 0 {
			t.Errorf("durable_wait_p99 = %v on a volatile store, want 0", d)
		}
		if exec, lat := s.Duration(metrics.ExecuteP50), s.Duration(metrics.LatencyP50); exec != lat {
			t.Errorf("execute_p50 %v != latency_p50 %v with no durable wait", exec, lat)
		}
	})
	for _, mn := range []string{"border", "all"} {
		t.Run("replayed/"+mn, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 1, LogMode: logModes[mn]}
			st := buildPartApp(t, cfg)
			must(t, st.Start())
			must(t, st.Ingest("events", types.Row{types.NewInt(1), types.NewInt(5)}, types.Row{types.NewInt(1), types.NewInt(5)}))
			st.Drain()
			if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (2, 0)"); err != nil {
				t.Fatal(err)
			}
			must(t, st.Stop())
			re := buildPartApp(t, cfg)
			must(t, re.Recover())
			defer re.Stop()
			if got := totalsOf(re); got[1] != 20 || len(got) != 2 {
				t.Fatalf("recovered totals %v", got)
			}
			if n := re.Metrics().Snapshot()[metrics.LatencyCount]; n != 0 {
				t.Errorf("latency_count = %d after recovery, want 0", n)
			}
		})
	}
}

// TestCoordinatedCommitStages: a coordinated write is observed once, by its
// coordinator, as its latency and four stages that sum to it, sample by
// sample. Holding one leg's vote fsync for a known time after the slots
// release lands in mp_vote_wait alone; holding the markers' fsync lands in
// mp_marker_wait alone. Its legs ack nobody, so latency and durable_wait
// do not move.
func TestCoordinatedCommitStages(t *testing.T) {
	const hold = 50 * time.Millisecond
	for _, held := range []string{"vote", "marker"} {
		t.Run(held, func(t *testing.T) {
			cfg := gcTestConfig(t.TempDir(), 2)
			st := buildKV(t, cfg)
			fsys := recordStore(t, st)
			must(t, st.Start())
			defer st.Stop()
			barrier := func() {
				for i := range st.partList() {
					must(t, st.PEAt(i).RunExclusive(func() error { return nil }))
				}
			}
			for k := int64(0); k < 8; k++ {
				if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
					t.Fatal(err)
				}
			}
			barrier()
			before := st.Metrics().Snapshot()
			logPath, _ := wal.PartitionPaths(cfg.Dir, 1)
			syncs := fsys.Syncs(logPath)
			drain := func() {
				for len(syncs.Entered()) > 0 {
					<-syncs.Entered()
				}
			}
			// holdNext holds the next fsync of partition 1's log until hold
			// has passed since after (nil: since the fsync began) returns.
			holdNext := func(after func()) {
				drain()
				release := syncs.Hold()
				go func() {
					<-syncs.Entered()
					if after != nil {
						after()
					}
					time.Sleep(hold)
					release()
				}()
			}
			if held == "vote" {
				// The vote's fsync begins once its PREPARE is appended; the
				// hold counts from the slots' release, where the vote wait
				// begins.
				slot := &st.partList()[1].mpSlot
				holdNext(func() { slot.Lock(); slot.Unlock() })
			} else {
				testHookBeforeMarkers = func() { holdNext(nil) }
				defer func() { testHookBeforeMarkers = nil }()
			}
			if _, err := st.Exec("UPDATE kv SET v = v + 1"); err != nil {
				t.Fatal(err)
			}
			barrier() // the legs observe after the decision's reply
			s := st.Metrics().Snapshot()
			if n := s[metrics.MPTxns] - before[metrics.MPTxns]; n != 1 {
				t.Fatalf("%d coordinated commits, want 1", n)
			}
			for _, m := range []metrics.Metric{metrics.LatencyCount, metrics.DurableWaitP50, metrics.DurableWaitP99} {
				if s[m] != before[m] {
					t.Errorf("%s moved from %d to %d: a leg observed a commit", m, before[m], s[m])
				}
			}
			lat := s.Duration(metrics.MPLatencyP50)
			stages := map[metrics.Metric]time.Duration{}
			var sum time.Duration
			for _, m := range []metrics.Metric{metrics.MPSlotWaitP50, metrics.MPExecuteP50, metrics.MPVoteWaitP50, metrics.MPMarkerWaitP50} {
				stages[m] = s.Duration(m)
				sum += stages[m]
			}
			if sum != lat {
				t.Errorf("stages %v sum to %v, not mp_latency %v", stages, sum, lat)
			}
			heldIn := map[string]metrics.Metric{"vote": metrics.MPVoteWaitP50, "marker": metrics.MPMarkerWaitP50}[held]
			for m, d := range stages {
				if (m == heldIn) != (d >= hold) {
					t.Errorf("%s = %v: want the %v hold in %s alone (%v)", m, d, hold, heldIn, stages)
				}
			}
		})
	}
}
