package core

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/pe"
	"repro/internal/wal"
)

// recordStore puts a recording file system under st's durability
// directory. Call it between Open and Start.
func recordStore(t *testing.T, st *Store) *crashfs.FS {
	t.Helper()
	fsys, err := crashfs.New(st.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	st.dir = wal.NewDir(st.cfg.Dir, fsys)
	return fsys
}

// crashPoints lists the points from..to.
func crashPoints(from, to int) []int {
	points := make([]int, 0, to-from+1)
	for p := from; p <= to; p++ {
		points = append(points, p)
	}
	return points
}

// eachCrashImage builds the image of every point in every variant and
// runs check on it; each failure is reported with its point and variant.
func eachCrashImage(t *testing.T, fsys *crashfs.FS, points []int, check func(dir string, p int) error) {
	t.Helper()
	base := t.TempDir()
	failed := 0
	for _, p := range points {
		for _, v := range crashfs.Variants {
			img := filepath.Join(base, fmt.Sprintf("%d-%s", p, v))
			if err := fsys.Image(img, p, v); err != nil {
				t.Fatal(err)
			}
			if err := check(img, p); err != nil {
				t.Errorf("crash at %s, %s image: %v", fsys.Describe(p), v, err)
				if failed++; failed == 20 {
					t.Fatal("giving up after 20 failed images")
				}
			}
			if err := os.RemoveAll(img); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPartitionsStampUnchanged pins the PARTITIONS stamp's bytes — the
// count in decimal and a newline, as earlier versions wrote it — after
// store creation and after a rebalance rewrote it.
func TestPartitionsStampUnchanged(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	stamp := func() string {
		b, err := os.ReadFile(filepath.Join(dir, partitionsFileName))
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	if got := stamp(); got != "320a" {
		t.Errorf("stamp of a new 2-partition store is %s, want 320a", got)
	}
	if err := st.Rebalance(12); err != nil {
		t.Fatal(err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := stamp(); got != "31320a" {
		t.Errorf("stamp after Rebalance(12) is %s, want 31320a", got)
	}
}

// TestRecoverRefusesLegacyCoordLog: earlier versions kept slot migrations
// and pauses in a store-wide coord.log. Recover refuses a directory whose
// coord.log holds a record, naming the file, and accepts an empty one.
func TestRecoverRefusesLegacyCoordLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyCoordLog)
	must(t, os.WriteFile(legacy, nil, 0o644))
	st := buildPartApp(t, Config{Dir: dir, Partitions: 2})
	must(t, st.Start())
	must(t, st.Stop())

	appendRecords(t, legacy, &pe.LogRecord{Kind: pe.RecPauseGraph, Proc: "events"})
	st = buildPartApp(t, Config{Dir: dir, Partitions: 2})
	if err := st.Recover(); err == nil || !strings.Contains(err.Error(), legacy) {
		st.Stop()
		t.Fatalf("Recover with a legacy coord.log record: %v", err)
	}
}
