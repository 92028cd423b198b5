package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// scanAll collects every intact payload in the log file.
func scanAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	if _, err := ScanLog(path, func(_ uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSyncNeverBuffersWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, 0, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
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
	l, _ := OpenLog(path, 0, SyncNever)
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(scanAll(t, path)); n != 2 {
		t.Fatalf("recovered %d records after Close", n)
	}
}

// syncHook replaces a log's fsync so a test decides when each one returns
// and whether it fails. Every call is counted; while a gate is installed a
// call announces itself on entered and blocks until the gate closes.
type syncHook struct {
	mu      sync.Mutex
	calls   int
	gate    chan struct{}
	fail    error
	entered chan struct{}
	real    func() error
}

func hookSync(l *Log) *syncHook {
	h := &syncHook{entered: make(chan struct{}, 64), real: l.sync}
	l.sync = h.sync
	return h
}

func (h *syncHook) sync() error {
	h.mu.Lock()
	h.calls++
	gate, fail := h.gate, h.fail
	h.mu.Unlock()
	h.entered <- struct{}{}
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return fail
	}
	return h.real()
}

// hold makes the next fsyncs block; the returned func releases them (and
// lets later ones through).
func (h *syncHook) hold() (release func()) {
	gate := make(chan struct{})
	h.mu.Lock()
	h.gate = gate
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		h.gate = nil
		h.mu.Unlock()
		close(gate)
	}
}

func (h *syncHook) failWith(err error) {
	h.mu.Lock()
	h.fail = err
	h.mu.Unlock()
}

func (h *syncHook) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// awaitEntered waits for the next fsync to begin.
func (h *syncHook) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync started")
	}
}

// openGroup opens a group-commit log whose fsyncs go through a hook and
// whose OnSyncBatch sizes arrive on the returned channel.
func openGroup(t *testing.T) (*Log, *syncHook, <-chan int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.log")
	batches := make(chan int, 64)
	l, err := OpenLogOpts(path, 0, Options{
		Policy:      SyncGroupCommit,
		OnSyncBatch: func(n int) { batches <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, hookSync(l), batches, path
}

func mustAsync(t *testing.T, l *Log, payload string) <-chan error {
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
	release := h.hold()
	ack := mustAsync(t, l, "r")
	h.awaitEntered(t) // no timer involved: the append itself started it
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
	release := h.hold()
	first := mustAsync(t, l, "first")
	h.awaitEntered(t)
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
	if got := h.count(); got != 2 {
		t.Fatalf("%d fsyncs for one record plus %d behind it, want 2", got, n)
	}
	if got := len(scanAll(t, path)); got != n+1 {
		t.Fatalf("%d records on disk", got)
	}
}

// A log fsyncs at most once per stalenessBound: a waiter on a quiet log is
// synced at once, one that arrives inside the period waits it out, and
// everything appended during the wait rides that one fsync.
func TestGroupCommitOneFsyncPerPeriod(t *testing.T) {
	l, h, batches, _ := openGroup(t)
	defer l.Close()
	start := time.Now()
	awaitAck(t, mustAsync(t, l, "quiet log"))
	awaitBatch(t, batches, 1)
	second := mustAsync(t, l, "inside the period")
	if _, err := l.AppendUnwaited([]byte("rider")); err != nil {
		t.Fatal(err)
	}
	third := mustAsync(t, l, "inside the period too")
	awaitAck(t, second)
	awaitAck(t, third)
	// Two fsyncs, unless this goroutine lost the CPU for a whole period
	// between its appends; however many there were, they began a period apart.
	d, n := time.Since(start), h.count()
	if n < 2 || d < time.Duration(n-1)*stalenessBound {
		t.Fatalf("%d fsyncs of one log began within %v; the period is %v", n, d, stalenessBound)
	}
	if n == 2 {
		awaitBatch(t, batches, 3)
	}
}

// An idle log is free: no fsync and no daemon wake-up, before the first
// append and again after the last future resolved.
func TestGroupCommitIdleLogCostsNothing(t *testing.T) {
	l, h, _, _ := openGroup(t)
	defer l.Close()
	time.Sleep(5 * stalenessBound)
	if h.count() != 0 || l.wakeups.Load() != 0 {
		t.Fatalf("idle log: %d fsyncs, %d wake-ups", h.count(), l.wakeups.Load())
	}
	awaitAck(t, mustAsync(t, l, "r"))
	time.Sleep(5 * stalenessBound)
	if h.count() != 1 || l.wakeups.Load() != 1 {
		t.Fatalf("one acked append then idle: %d fsyncs, %d wake-ups", h.count(), l.wakeups.Load())
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
	if d := time.Since(start); d < stalenessBound {
		t.Fatalf("un-waited record fsynced after %v, before the %v bound", d, stalenessBound)
	}
	if n := len(scanAll(t, path)); n != 1 {
		t.Fatalf("%d records on disk after the bound", n)
	}

	release := h.hold()
	first := mustAsync(t, l, "first")
	for h.count() < 2 { // the bound's fsync was the first
		h.awaitEntered(t)
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
	time.Sleep(5 * stalenessBound) // a bound left armed would fire here
	if got := h.count(); got != 3 {
		t.Fatalf("%d fsyncs, want 3 (bound, first, waiter+rider)", got)
	}
	if n := len(scanAll(t, path)); n != 4 {
		t.Fatalf("%d records on disk", n)
	}
}

// The logs of one directory take turns on the disk: while one log's fsync
// is in flight a second log's daemon waits for it, and the batch it then
// cuts holds everything that arrived meanwhile — one fsync, not one per
// record. (This is what keeps 2PC forces pooling across a store's
// partition and coordinator logs.)
func TestLogsOfOneDirectoryShareTheDisk(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) (*Log, *syncHook, <-chan int) {
		batches := make(chan int, 64)
		l, err := OpenLogOpts(filepath.Join(dir, name), 0, Options{
			Policy:      SyncGroupCommit,
			OnSyncBatch: func(n int) { batches <- n },
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, hookSync(l), batches
	}
	a, ha, _ := open("a.log")
	defer a.Close()
	b, hb, bBatches := open("b.log")
	defer b.Close()

	release := ha.hold()
	inFlight := mustAsync(t, a, "a")
	ha.awaitEntered(t)
	const n = 6
	var acks []<-chan error
	for i := 0; i < n; i++ {
		acks = append(acks, mustAsync(t, b, "b"))
	}
	if hb.count() != 0 {
		t.Fatal("second log started an fsync while the first log's was in flight")
	}
	release()
	awaitAck(t, inFlight)
	for _, ack := range acks {
		awaitAck(t, ack)
	}
	awaitBatch(t, bBatches, n)
	if got := hb.count(); got != 1 {
		t.Fatalf("%d fsyncs for %d records that queued behind another log's fsync, want 1", got, n)
	}
}

// An fsync error fails every future the fsync covered and then every later
// append of both kinds, even once the disk "works" again.
func TestGroupCommitFsyncErrorPoisons(t *testing.T) {
	l, h, _, _ := openGroup(t)
	defer l.Close()
	boom := errors.New("disk on fire")
	h.failWith(boom)
	release := h.hold()
	first := mustAsync(t, l, "first")
	h.awaitEntered(t)
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
	h.failWith(nil)
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
	for name, op := range map[string]func(l *Log) error{
		"Sync":     func(l *Log) error { return l.Sync() },
		"Truncate": func(l *Log) error { return l.Truncate() },
		"Append":   func(l *Log) error { _, err := l.Append([]byte("r")); return err },
	} {
		policy := SyncNever
		if name == "Append" {
			policy = SyncEveryRecord
		}
		l, err := OpenLog(filepath.Join(t.TempDir(), "x.log"), 0, policy)
		if err != nil {
			t.Fatal(err)
		}
		h := hookSync(l)
		h.failWith(boom)
		if err := op(l); !errors.Is(err, boom) {
			t.Fatalf("%s with a failing fsync: %v", name, err)
		}
		h.failWith(nil)
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
	release := h.hold()
	var acks []<-chan error
	for i := 0; i < 5; i++ {
		acks = append(acks, mustAsync(t, l, "p"))
	}
	h.awaitEntered(t)
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
	release := h.hold()
	inFlight := mustAsync(t, l, "in flight")
	h.awaitEntered(t)
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
	release := h.hold()
	ack := mustAsync(t, l, "pre")
	h.awaitEntered(t)
	if _, err := l.AppendUnwaited([]byte("pre, un-waited")); err != nil {
		t.Fatal(err)
	}
	truncated := make(chan error, 1)
	go func() { truncated <- l.Truncate() }()
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
	if h.count() != 1 {
		t.Fatalf("%d fsyncs behind one synchronous Append", h.count())
	}
	if n := len(scanAll(t, path)); n != 1 {
		t.Fatalf("%d records on disk after synchronous Append", n)
	}
}

func TestAppendAsyncOnSyncPoliciesResolvesImmediately(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncEveryRecord} {
		path := filepath.Join(t.TempDir(), "x.log")
		l, err := OpenLog(path, 0, pol)
		if err != nil {
			t.Fatal(err)
		}
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
