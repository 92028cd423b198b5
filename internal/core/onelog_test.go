package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// logFiles lists the command logs in dir: the store's one log and any of
// the per-partition layout.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	must(t, err)
	var logs []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".log") {
			logs = append(logs, e.Name())
		}
	}
	return logs
}

// TestOneLogPerStore: a durable store that runs coordinated pairs, grows
// from 2 to 4 partitions live and runs more pairs, on every partition,
// leaves one log in its directory, and a 4-partition store recovers the
// same rows from it.
func TestOneLogPerStore(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 2)
	st := buildKV(t, cfg)
	must(t, st.Start())
	pair := func(a, b int64) {
		t.Helper()
		_, err := st.Exec("INSERT INTO kv VALUES (?, ?), (?, ?)", types.NewInt(a), types.NewInt(a), types.NewInt(b), types.NewInt(b))
		must(t, err)
	}
	k0, k1 := keysOwnedBy(st, 0, 5, 0), keysOwnedBy(st, 1, 5, 0)
	for i := range k0 {
		pair(k0[i], k1[i])
	}
	must(t, st.Rebalance(4))
	var keys [4][]int64
	for p := range keys {
		keys[p] = keysOwnedBy(st, p, 5, 1000)
	}
	for i := range 5 {
		pair(keys[0][i], keys[2][i])
		pair(keys[1][i], keys[3][i])
	}
	want := kvRows(st)
	if len(want) != 30 {
		t.Fatalf("%d rows stored, want 30", len(want))
	}
	must(t, st.Stop())
	if got := logFiles(t, cfg.Dir); fmt.Sprint(got) != "["+wal.LogName+"]" {
		t.Fatalf("the directory holds logs %v, want one", got)
	}
	parts := map[int]bool{}
	_, err := scanRecords(cfg.Dir, func(_ uint64, _ int, rec *pe.LogRecord) error {
		for _, leg := range rec.Legs {
			parts[leg.Part] = true
		}
		return nil
	})
	must(t, err)
	if len(parts) != 4 {
		t.Fatalf("the log holds coordinated legs of partitions %v, want all 4", parts)
	}

	cfg.Partitions = 4
	re := buildKV(t, cfg)
	must(t, re.Recover())
	if got := kvRows(re); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	must(t, re.Stop())
}

// TestParentLayoutRecovers writes by hand a 2-partition directory in the
// layout of one log per partition (command.log, command.log.1; untagged
// records, each file's LSNs its own): calls on both partitions, a
// coordinated write whose commit marker is in partition 1's file only, and
// an in-doubt PREPARE. Recovery applies the calls and the decided legs,
// drops the in-doubt one, checkpoints and removes the old files, so the
// directory holds one log. Every crash image of that upgrade recovers the
// same rows, and the upgraded store takes writes that survive a restart.
func TestParentLayoutRecovers(t *testing.T) {
	cfg := gcTestConfig(t.TempDir(), 2)
	keys := keysOwnedBy(buildKV(t, Config{Partitions: 2}), 0, 4, 0)
	keys = append(keys, keysOwnedBy(buildKV(t, Config{Partitions: 2}), 1, 4, 0)...)
	put := func(k int64) *pe.LogRecord {
		return &pe.LogRecord{Kind: pe.RecCall, Proc: "put", Params: []types.Value{types.NewInt(k), types.NewInt(k)}}
	}
	d := wal.NewDir(cfg.Dir, wal.OS)
	for part, recs := range [][]*pe.LogRecord{
		{put(keys[0]), put(keys[1]),
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7, Ops: []pe.LoggedOp{putOp(keys[2], keys[2])}},
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 8, Ops: []pe.LoggedOp{putOp(keys[3], keys[3])}}},
		{put(keys[4]),
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 7, Ops: []pe.LoggedOp{putOp(keys[5], keys[5])}},
			&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 7, Commit: true},
			put(keys[6])},
	} {
		l, err := d.OpenLog(filepath.Join(cfg.Dir, []string{"command.log", "command.log.1"}[part]), 0, wal.Options{Policy: wal.SyncEveryRecord})
		must(t, err)
		for _, rec := range recs {
			_, err := l.Append(wal.EncodeRecord(rec))
			must(t, err)
		}
		must(t, l.Close())
	}
	must(t, os.WriteFile(filepath.Join(cfg.Dir, partitionsFileName), []byte("2\n"), 0o644))
	want := map[int64]int64{}
	for _, i := range []int{0, 1, 2, 4, 5, 6} {
		want[keys[i]] = keys[i]
	}

	st := buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Recover())
	if got := kvRows(st); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if got := logFiles(t, cfg.Dir); fmt.Sprint(got) != "["+wal.LogName+"]" {
		t.Fatalf("after recovery the directory holds logs %v, want one", got)
	}
	upgraded := fsys.Len()
	eachCrashImage(t, fsys, crashPoints(0, upgraded), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re, err := kvStore(cfg)
		if err == nil {
			err = re.Recover()
		}
		if err != nil {
			return err
		}
		defer re.Stop()
		if got := kvRows(re); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("recovered %v, want %v", got, want)
		}
		return nil
	})

	must(t, st.Start())
	_, err := st.Call("put", types.NewInt(keys[7]), types.NewInt(keys[7]))
	must(t, err)
	want[keys[7]] = keys[7]
	must(t, st.Stop())
	re := buildKV(t, cfg)
	must(t, re.Recover())
	defer re.Stop()
	if got := kvRows(re); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restarted upgraded store holds %v, want %v", got, want)
	}
}
