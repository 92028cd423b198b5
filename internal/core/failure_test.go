package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestFailedLogRefusesReads: a commit whose record could not be made
// durable stops the store. The refused write is in memory but may not be
// in the log, so from then on no door serves a read of it (or anything
// else), writes are refused, Err wraps the fsync's error and Failed is
// closed: the process must restart and recover from the log.
func TestFailedLogRefusesReads(t *testing.T) {
	st := buildKV(t, gcTestConfig(t.TempDir(), 1))
	fsys := recordStore(t, st)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO kv VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	fire := errors.New("disk on fire")
	logPath := wal.LogPath(st.cfg.Dir)
	fsys.Syncs(logPath).Fail(fire)
	if _, err := st.Exec("INSERT INTO kv VALUES (2, 2)"); !errors.Is(err, fire) {
		t.Fatalf("write under a failing fsync returned %v", err)
	}
	select {
	case <-st.Failed():
	default:
		t.Error("Failed is not closed after a durability failure")
	}
	if err := st.Err(); !errors.Is(err, fire) {
		t.Errorf("Err() = %v, want it to wrap %v", err, fire)
	}
	pin := st.PinSnapshot()
	defer pin.Release()
	for door, read := range map[string]func() (*pe.Result, error){
		"Query":       func() (*pe.Result, error) { return st.Query("SELECT k FROM kv") },
		"Exec SELECT": func() (*pe.Result, error) { return st.Exec("SELECT k FROM kv") },
		"QueryPinned": func() (*pe.Result, error) { return st.QueryPinned(pin, "SELECT k FROM kv") },
	} {
		if res, err := read(); err == nil {
			t.Errorf("%s served %v after the log failed", door, res.Rows)
		}
	}
	if _, err := st.Call("put", types.NewInt(3), types.NewInt(3)); err == nil {
		t.Error("Call accepted after the log failed")
	}
	if err := st.Ingest("feed", types.Row{types.NewInt(4), types.NewInt(4)}); err == nil {
		t.Error("Ingest accepted after the log failed")
	}
}

// TestCrashBetweenSnapshotAndTruncate exercises the nastiest checkpoint
// window: the snapshot is durable but the log was not yet truncated, so
// the log still holds records whose effects are inside the snapshot.
// Replay must skip them by LSN or state is double-applied. Every record
// is durable before the checkpoint begins (SyncEveryRecord), so a crash
// at every point of the checkpoint, in every variant, recovers the same
// state.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Sync: wal.SyncEveryRecord}
	st := buildApp(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	ingestN(t, st, 6)
	begun := fsys.Len()
	must(t, st.Checkpoint())
	want := totals(t, st)
	must(t, st.Stop())

	eachCrashImage(t, fsys, crashPoints(begun, fsys.Len()), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re := buildApp(t, cfg)
		if err := re.Recover(); err != nil {
			return err
		}
		defer re.Stop()
		if got := totalsOf(re); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("stale log records double-applied: %v want %v", got, want)
		}
		return nil
	})
}

// TestRecoveryWithCorruptSnapshotFailsLoudly ensures a torn snapshot is an
// error, not silent data loss.
func TestRecoveryWithCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, st, 4)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Stop()
	snapPath := wal.SnapshotPath(dir, 0)
	data, _ := os.ReadFile(snapPath)
	data[len(data)/3] ^= 0xFF
	os.WriteFile(snapPath, data, 0o644)

	st2 := buildApp(t, Config{Dir: dir})
	if err := st2.Start(); err == nil {
		st2.Stop()
		t.Fatal("corrupt snapshot accepted silently")
	}
}

// TestRepeatedCrashRecoverCycles runs several crash/recover/extend rounds
// and verifies state converges to a single reference run.
func TestRepeatedCrashRecoverCycles(t *testing.T) {
	dir := t.TempDir()
	const rounds = 5
	for round := 0; round < rounds; round++ {
		st := buildApp(t, Config{Dir: dir})
		if err := st.Start(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ingestN(t, st, 4)
		if round == 2 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		st.Stop()
	}
	// Reference: the identical per-round feeds in one uninterrupted run.
	ref := buildApp(t, Config{})
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		ingestN(t, ref, 4)
	}
	want := totals(t, ref)
	ref.Stop()

	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	got := totals(t, st)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after 5 crash cycles: %v want %v", got, want)
	}
}

// TestEmptyDurabilityDirStartsClean covers first boot with durability on.
func TestEmptyDurabilityDirStartsClean(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	st := buildApp(t, Config{Dir: dir})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if err := st.Ingest("events", types.Row{types.NewInt(1), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	st.FlushBatches()
	st.Drain()
	if len(totals(t, st)) == 0 {
		t.Fatal("fresh durable engine lost work")
	}
}

// TestAdHocExec covers the public ad-hoc write path.
func TestAdHocExec(t *testing.T) {
	st := buildApp(t, Config{})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (9, 99)"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("SELECT n FROM totals WHERE k = 9")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 99 {
		t.Fatalf("exec/query: %v %v", res, err)
	}
	// A failing ad-hoc write rolls back cleanly.
	if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (9, 1)"); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	res, _ = st.Query("SELECT COUNT(*) FROM totals WHERE k = 9")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("failed exec left partial state")
	}
}
