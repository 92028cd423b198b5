package wal_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/wal"
)

// scanAll collects every intact payload in the log file.
func scanAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	if _, err := wal.ScanLog(path, func(_ uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSyncNeverBuffersWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l := openLog(t, path, wal.SyncNever)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("buffered")); err != nil {
			t.Fatal(err)
		}
	}
	// Small appends stay in the user-space buffer: no write(2) yet.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("expected empty file before flush, size=%d err=%v", fi.Size(), err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() == 0 {
		t.Fatal("Sync did not flush the buffer")
	}
	l.Close()
	if n := len(scanAll(t, path)); n != 10 {
		t.Fatalf("recovered %d records", n)
	}
}

func TestSyncNeverCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l := openLog(t, path, wal.SyncNever)
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(scanAll(t, path)); n != 2 {
		t.Fatalf("recovered %d records after Close", n)
	}
}

// recorded returns a log directory written through a recording file
// system, whose Syncs controls hold, fail and count a file's fsyncs.
func recorded(t *testing.T) (*wal.Dir, *crashfs.FS, string) {
	t.Helper()
	dir := t.TempDir()
	fsys, err := crashfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return wal.NewDir(dir, fsys), fsys, dir
}

// awaitEntered waits for the next fsync to begin.
func awaitEntered(t *testing.T, s *crashfs.Syncs) {
	t.Helper()
	select {
	case <-s.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync started")
	}
}

// openGroup opens a recorded group-commit log, returning the controls of
// its fsyncs; its OnSyncBatch sizes arrive on the returned channel.
func openGroup(t *testing.T) (*wal.Log, *crashfs.Syncs, <-chan int, string) {
	t.Helper()
	d, fsys, dir := recorded(t)
	path := filepath.Join(dir, "x.log")
	batches := make(chan int, 64)
	l, err := d.OpenLog(path, 0, wal.Options{
		Policy:      wal.SyncGroupCommit,
		OnSyncBatch: func(n int, _ time.Duration, _ bool) { batches <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, fsys.Syncs(path), batches, path
}

// openLog opens a log on the OS file system.
func openLog(t *testing.T, path string, policy wal.SyncPolicy) *wal.Log {
	t.Helper()
	l, err := wal.OpenLogOpts(path, 0, wal.Options{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustAsync(t *testing.T, l *wal.Log, payload string) <-chan error {
	t.Helper()
	_, ack, err := l.AppendAsync([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func awaitAck(t *testing.T, ack <-chan error) {
	t.Helper()
	select {
	case err := <-ack:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future never resolved")
	}
}

func awaitBatch(t *testing.T, batches <-chan int, want int) {
	t.Helper()
	select {
	case n := <-batches:
		if n != want {
			t.Fatalf("fsync made %d records durable, want %d", n, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no fsync reported (want one of %d records)", want)
	}
}

func unresolved(t *testing.T, ack <-chan error, why string) {
	t.Helper()
	select {
	case err := <-ack:
		t.Fatalf("%s (resolved with %v)", why, err)
	default:
	}
}

// A waiter's append on a quiet log starts an fsync at once, and its future
// stays unresolved until that fsync has returned.
func TestGroupCommitNoAckBeforeFsyncReturns(t *testing.T) {
	l, h, _, path := openGroup(t)
	defer l.Close()
	release := h.Hold()
	ack := mustAsync(t, l, "r")
	awaitEntered(t, h) // no timer involved: the append itself started it
	unresolved(t, ack, "future resolved while its fsync was still running")
	release()
	awaitAck(t, ack)
	if n := len(scanAll(t, path)); n != 1 {
		t.Fatalf("acked 1 record but %d are on disk", n)
	}
}

// Records appended while an fsync is in flight are all covered by exactly
// one further fsync, issued once the first has returned.
func TestGroupCommitBatchesBehindInFlightFsync(t *testing.T) {
	l, h, batches, path := openGroup(t)
	defer l.Close()
	release := h.Hold()
	first := mustAsync(t, l, "first")
	awaitEntered(t, h)
	const n = 5
	var acks []<-chan error
	for i := 0; i < n; i++ {
		acks = append(acks, mustAsync(t, l, "during"))
	}
	for _, ack := range acks {
		unresolved(t, ack, "future resolved by an fsync that began before its append")
	}
	release()
	awaitAck(t, first)
	awaitBatch(t, batches, 1)
	for _, ack := range acks {
		awaitAck(t, ack)
	}
	awaitBatch(t, batches, n)
	if got := h.Count(); got != 2 {
		t.Fatalf("%d fsyncs for one record plus %d behind it, want 2", got, n)
	}
	if got := len(scanAll(t, path)); got != n+1 {
		t.Fatalf("%d records on disk", got)
	}
}

// A closed loop never batches: each waited append is acked before the next
// is made, so every fsync covers one record and the next waiter's fsync
// starts as soon as the disk is free, with no period waited out.
func TestGroupCommitClosedLoopWaitsNoPeriod(t *testing.T) {
	l, h, _, _ := openGroup(t)
	defer l.Close()
	const n = 20
	for i := 0; i < n; i++ {
		awaitAck(t, mustAsync(t, l, "waited"))
	}
	if got := h.Count(); got != n {
		t.Fatalf("%d sequential waited appends took %d fsyncs", n, got)
	}
	if got := wal.PeriodWaits(l); got != 0 {
		t.Fatalf("a closed loop of %d waited appends waited out the period %d times", n, got)
	}
}

// A log whose last fsync covered more than one record is batching: its next
// waiter waits out the sync period, exactly once, and an un-waited record
// appended before it, which wakes no daemon, rides the same fsync.
func TestGroupCommitBatchingLogWaitsPeriod(t *testing.T) {
	l, h, batches, _ := openGroup(t)
	defer l.Close()
	release := h.Hold()
	first := mustAsync(t, l, "first")
	awaitEntered(t, h)
	behind := []<-chan error{mustAsync(t, l, "behind"), mustAsync(t, l, "behind")}
	start := time.Now() // before the fsync of the two behind the first began
	release()
	awaitAck(t, first)
	awaitBatch(t, batches, 1)
	for _, ack := range behind {
		awaitAck(t, ack)
	}
	awaitBatch(t, batches, 2)
	if got := wal.PeriodWaits(l); got != 0 {
		t.Fatalf("%d period waits before the log batched", got)
	}

	if _, err := l.AppendUnwaited([]byte("rider")); err != nil {
		t.Fatal(err)
	}
	waiter := mustAsync(t, l, "waiter")
	awaitAck(t, waiter)
	awaitBatch(t, batches, 2)
	if got := wal.PeriodWaits(l); got != 1 {
		t.Fatalf("the waiter behind a two-record fsync waited out the period %d times, want 1", got)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("%d fsyncs, want 3 (first, the two behind it, waiter+rider)", got)
	}
	if d := time.Since(start); d < wal.SyncPeriod {
		t.Fatalf("the fsync after a two-record fsync began %v after it, inside the %v period", d, wal.SyncPeriod)
	}
}

// A waiter never waits for the staleness bound: sequential waited appends,
// each awaiting its ack before the next, take one fsync apiece, every one
// started by its waiter and none by the staleness timer, and the period,
// the longest a waiter on a batching log waits, is the shorter wait.
func TestGroupCommitWaiterWaitsPeriodNotBound(t *testing.T) {
	if wal.SyncPeriod >= wal.StalenessBound {
		t.Fatalf("sync period %v is not shorter than the staleness bound %v", wal.SyncPeriod, wal.StalenessBound)
	}
	l, h, _, _ := openGroup(t)
	defer l.Close()
	const n = 20
	for i := 0; i < n; i++ {
		awaitAck(t, mustAsync(t, l, "waited"))
	}
	if got := h.Count(); got != n {
		t.Fatalf("%d sequential waited appends took %d fsyncs", n, got)
	}
	if got := wal.BoundWakeups(l); got != 0 {
		t.Fatalf("the staleness bound started %d of %d waited appends' fsyncs", got, n)
	}
}

// An idle log is free: no fsync and no daemon wake-up, before the first
// append and again after the last future resolved.
func TestGroupCommitIdleLogCostsNothing(t *testing.T) {
	l, h, _, _ := openGroup(t)
	defer l.Close()
	time.Sleep(5 * wal.StalenessBound)
	if h.Count() != 0 || wal.Wakeups(l) != 0 {
		t.Fatalf("idle log: %d fsyncs, %d wake-ups", h.Count(), wal.Wakeups(l))
	}
	awaitAck(t, mustAsync(t, l, "r"))
	time.Sleep(5 * wal.StalenessBound)
	if h.Count() != 1 || wal.Wakeups(l) != 1 {
		t.Fatalf("one acked append then idle: %d fsyncs, %d wake-ups", h.Count(), wal.Wakeups(l))
	}
}

// A record nobody waits on starts no fsync itself: alone it becomes durable
// when the staleness bound expires, and behind a waiter it rides that
// waiter's fsync with no second one.
func TestUnwaitedRecordRidesNextFsync(t *testing.T) {
	l, h, batches, path := openGroup(t)
	defer l.Close()
	start := time.Now()
	if _, err := l.AppendUnwaited([]byte("alone")); err != nil {
		t.Fatal(err)
	}
	awaitBatch(t, batches, 1)
	if d := time.Since(start); d < wal.StalenessBound {
		t.Fatalf("un-waited record fsynced after %v, before the %v bound", d, wal.StalenessBound)
	}
	if n := len(scanAll(t, path)); n != 1 {
		t.Fatalf("%d records on disk after the bound", n)
	}

	release := h.Hold()
	first := mustAsync(t, l, "first")
	for h.Count() < 2 { // the bound's fsync was the first
		awaitEntered(t, h)
	}
	if _, err := l.AppendUnwaited([]byte("rides")); err != nil {
		t.Fatal(err)
	}
	waiter := mustAsync(t, l, "waiter")
	release()
	awaitAck(t, first)
	awaitBatch(t, batches, 1)
	awaitAck(t, waiter)
	awaitBatch(t, batches, 2)
	time.Sleep(5 * wal.StalenessBound) // a bound left armed would fire here
	if got := h.Count(); got != 3 {
		t.Fatalf("%d fsyncs, want 3 (bound, first, waiter+rider)", got)
	}
	if n := len(scanAll(t, path)); n != 4 {
		t.Fatalf("%d records on disk", n)
	}
}

// An fsync error fails every future the fsync covered and then every later
// append of both kinds, even once the disk "works" again.
func TestGroupCommitFsyncErrorPoisons(t *testing.T) {
	l, h, _, _ := openGroup(t)
	defer l.Close()
	boom := errors.New("disk on fire")
	h.Fail(boom)
	release := h.Hold()
	first := mustAsync(t, l, "first")
	awaitEntered(t, h)
	if _, err := l.AppendUnwaited([]byte("rider")); err != nil {
		t.Fatal(err)
	}
	second := mustAsync(t, l, "second")
	release()
	for i, ack := range []<-chan error{first, second} {
		select {
		case err := <-ack:
			if !errors.Is(err, boom) {
				t.Fatalf("future %d resolved with %v, want the fsync error", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d never resolved", i)
		}
	}
	h.Fail(nil)
	if _, _, err := l.AppendAsync([]byte("later")); !errors.Is(err, boom) {
		t.Fatalf("AppendAsync on a poisoned log: %v", err)
	}
	if _, err := l.AppendUnwaited([]byte("later")); !errors.Is(err, boom) {
		t.Fatalf("AppendUnwaited on a poisoned log: %v", err)
	}
	if err := l.SyncNow(); !errors.Is(err, boom) {
		t.Fatalf("SyncNow on a poisoned log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync on a poisoned log: %v", err)
	}
}

// Every fsync the log issues poisons it on failure, not only the daemon's:
// after one fails, a retry must not report success.
func TestFailedFsyncPoisonsOnEveryPath(t *testing.T) {
	boom := errors.New("disk on fire")
	for name, op := range map[string]func(l *wal.Log) error{
		"Sync":     func(l *wal.Log) error { return l.Sync() },
		"Truncate": func(l *wal.Log) error { return l.Truncate(l.End()) },
		"Append":   func(l *wal.Log) error { _, err := l.Append([]byte("r")); return err },
	} {
		policy := wal.SyncNever
		if name == "Append" {
			policy = wal.SyncEveryRecord
		}
		d, fsys, dir := recorded(t)
		path := filepath.Join(dir, "x.log")
		l, err := d.OpenLog(path, 0, wal.Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		h := fsys.Syncs(path)
		if name == "Truncate" {
			h = fsys.Syncs(path + ".tmp") // the file that replaces the segment
		}
		h.Fail(boom)
		if err := op(l); !errors.Is(err, boom) {
			t.Fatalf("%s with a failing fsync: %v", name, err)
		}
		h.Fail(nil)
		if err := l.Sync(); !errors.Is(err, boom) {
			t.Fatalf("Sync after a failed %s: %v, want the sticky error", name, err)
		}
		if _, err := l.Append([]byte("r")); !errors.Is(err, boom) {
			t.Fatalf("Append after a failed %s: %v, want the sticky error", name, err)
		}
		l.Close()
	}
}

func TestGroupCommitSyncNowDrains(t *testing.T) {
	l, h, _, path := openGroup(t)
	defer l.Close()
	release := h.Hold()
	var acks []<-chan error
	for i := 0; i < 5; i++ {
		acks = append(acks, mustAsync(t, l, "p"))
	}
	awaitEntered(t, h)
	synced := make(chan error, 1)
	go func() { synced <- l.SyncNow() }()
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	// SyncNow returns only after every pending future resolved.
	for i, ack := range acks {
		select {
		case err := <-ack:
			if err != nil {
				t.Fatalf("future %d: %v", i, err)
			}
		default:
			t.Fatalf("future %d unresolved after SyncNow", i)
		}
	}
	if n := len(scanAll(t, path)); n != 5 {
		t.Fatalf("%d records on disk", n)
	}
}

func TestGroupCommitCloseResolvesPending(t *testing.T) {
	l, h, _, path := openGroup(t)
	release := h.Hold()
	inFlight := mustAsync(t, l, "in flight")
	awaitEntered(t, h)
	straggler := mustAsync(t, l, "straggler")
	if _, err := l.AppendUnwaited([]byte("un-waited")); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for _, ack := range []<-chan error{inFlight, straggler} {
		select {
		case err := <-ack:
			if err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatal("Close left a future unresolved")
		}
	}
	if n := len(scanAll(t, path)); n != 3 {
		t.Fatalf("%d records on disk", n)
	}
}

func TestGroupCommitTruncateKeepsLSNAndDrains(t *testing.T) {
	l, h, _, path := openGroup(t)
	defer l.Close()
	release := h.Hold()
	ack := mustAsync(t, l, "pre")
	awaitEntered(t, h)
	if _, err := l.AppendUnwaited([]byte("pre, un-waited")); err != nil {
		t.Fatal(err)
	}
	at := l.End()
	if at.LSN != 2 {
		t.Fatalf("end LSN = %d before truncate", at.LSN)
	}
	truncated := make(chan error, 1)
	go func() { truncated <- l.Truncate(at) }()
	release()
	if err := <-truncated; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ack:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("Truncate left the pending future unresolved")
	}
	lsn, ack2, err := l.AppendAsync([]byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("post-truncate lsn = %d", lsn)
	}
	awaitAck(t, ack2)
	got := scanAll(t, path)
	if len(got) != 1 || string(got[0]) != "post" {
		t.Fatalf("post-truncate scan: %q", got)
	}
}

func TestGroupCommitPlainAppendWaits(t *testing.T) {
	l, h, _, path := openGroup(t)
	defer l.Close()
	// Append on a group-commit log blocks until its fsync returned:
	// afterwards the record must already be durable.
	if _, err := l.Append([]byte("sync-shim")); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 1 {
		t.Fatalf("%d fsyncs behind one synchronous Append", h.Count())
	}
	if n := len(scanAll(t, path)); n != 1 {
		t.Fatalf("%d records on disk after synchronous Append", n)
	}
}

func TestAppendAsyncOnSyncPoliciesResolvesImmediately(t *testing.T) {
	for _, pol := range []wal.SyncPolicy{wal.SyncNever, wal.SyncEveryRecord} {
		path := filepath.Join(t.TempDir(), "x.log")
		l := openLog(t, path, pol)
		lsn, ack, err := l.AppendAsync([]byte("x"))
		if err != nil || lsn != 1 {
			t.Fatalf("policy %d: lsn=%d err=%v", pol, lsn, err)
		}
		select {
		case err := <-ack:
			if err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("policy %d: future not pre-resolved", pol)
		}
		l.Close()
	}
}
