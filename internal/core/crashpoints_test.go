package core

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/types"
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
func eachCrashImage(t *testing.T, fsys *crashfs.FS, points []int, check func(dir string) error) {
	t.Helper()
	base := t.TempDir()
	failed := 0
	for _, p := range points {
		for _, v := range crashfs.Variants {
			img := filepath.Join(base, fmt.Sprintf("%d-%s", p, v))
			if err := fsys.Image(img, p, v); err != nil {
				t.Fatal(err)
			}
			if err := check(img); err != nil {
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

// kvRows reads the kv table as k→v.
func kvRows(st *Store) (map[int64]int64, error) {
	res, err := st.Query("SELECT k, v FROM kv")
	if err != nil {
		return nil, err
	}
	rows := make(map[int64]int64, len(res.Rows))
	for _, r := range res.Rows {
		rows[r[0].Int()] = r[1].Int()
	}
	return rows, nil
}

// TestCheckpointCrashPoints crashes a store after every file operation of
// its creation (stamp, segments, coordinator log, slot table) and of a
// checkpoint (each snapshot and slot-table replacement — temp file, fsync,
// rename, directory sync — and each log truncation). Before the
// checkpoint, keyed calls, border batches and one coordinated pair are
// durable, and the dataflow is paused. Every image in every variant must
// open and recover exactly what was durable: nothing during creation, all
// of it, the pause included, during the checkpoint.
func TestCheckpointCrashPoints(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncEveryRecord}
	recovers := func(want map[int64]int64, paused bool) func(img string) error {
		return func(img string) error {
			cfg := cfg
			cfg.Dir = img
			st := buildKV(t, cfg)
			if err := st.Start(); err != nil {
				return err
			}
			defer st.Stop()
			got, err := kvRows(st)
			if err != nil {
				return err
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("recovered %v, want %v", got, want)
			}
			if got := st.Dataflows()[0].Paused; got != paused {
				return fmt.Errorf("recovered dataflow paused %v, want %v", got, paused)
			}
			return nil
		}
	}
	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	eachCrashImage(t, fsys, crashPoints(0, fsys.Len()), recovers(map[int64]int64{}, false))

	for k := int64(0); k < 8; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(k*10)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(100); k < 106; k++ {
		if err := st.Ingest("feed", types.Row{types.NewInt(k), types.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Drain()
	k0, k1 := keysOwnedBy(st, 0, 1, 1000)[0], keysOwnedBy(st, 1, 1, 1000)[0]
	if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, 1)", types.NewInt(k0)); err != nil {
			return err
		}
		_, err := tx.Exec(1, "INSERT INTO kv VALUES (?, 1)", types.NewInt(k1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want, err := kvRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 16 {
		t.Fatalf("%d rows before the checkpoint, want 16", len(want))
	}
	if err := st.PauseDataflow("feed"); err != nil {
		t.Fatal(err)
	}
	from := fsys.Len()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eachCrashImage(t, fsys, crashPoints(from, fsys.Len()), recovers(want, true))
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
