package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/metrics"
	"repro/internal/pe"
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
// runs check on it, on the test's goroutine; each failure is reported with
// its point and variant.
func eachCrashImage(t *testing.T, fsys *crashfs.FS, points []int, check func(dir string, p int) error) {
	t.Helper()
	crashImages(t, fsys, points, 1, check)
}

// eachCrashImageConcurrently is eachCrashImage with GOMAXPROCS images
// checked at a time, so check must report only through its error, never
// through t.
func eachCrashImageConcurrently(t *testing.T, fsys *crashfs.FS, points []int, check func(dir string, p int) error) {
	t.Helper()
	crashImages(t, fsys, points, runtime.GOMAXPROCS(0), check)
}

// crashImages checks the images of points on the test's goroutine and
// workers-1 more, each taking the next point not yet taken, and gives up
// after 20 failed images.
func crashImages(t *testing.T, fsys *crashfs.FS, points []int, workers int, check func(dir string, p int) error) {
	t.Helper()
	const maxFailures = 20
	base := t.TempDir()
	var (
		mu       sync.Mutex
		failures []string
		next     atomic.Int64
	)
	gaveUp := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failures) >= maxFailures
	}
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(points)) && !gaveUp(); i = next.Add(1) - 1 {
			p := points[i]
			for _, v := range crashfs.Variants {
				img := filepath.Join(base, fmt.Sprintf("%d-%s", p, v))
				err := fsys.Image(img, p, v)
				if err == nil {
					err = check(img, p)
				}
				if err = errors.Join(err, os.RemoveAll(img)); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("crash at %s, %s image: %v", fsys.Describe(p), v, err))
					mu.Unlock()
				}
			}
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) >= maxFailures {
		t.Fatalf("giving up after %d failed images", maxFailures)
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

	appendPayloads(t, legacy, wal.EncodeRecord(&pe.LogRecord{Kind: pe.RecPauseGraph, Proc: "events"}))
	st = buildPartApp(t, Config{Dir: dir, Partitions: 2})
	if err := st.Recover(); err == nil || !strings.Contains(err.Error(), legacy) {
		st.Stop()
		t.Fatalf("Recover with a legacy coord.log record: %v", err)
	}
}

// kvRows reads the kv table straight from a stopped store's storage.
func kvRows(st *Store) map[int64]int64 {
	out := map[int64]int64{}
	for _, p := range st.partList() {
		for _, row := range p.cat.Relation("kv").Table.ScanRows() {
			out[row[0].Int()] = row[1].Int()
		}
	}
	return out
}

// checkKV compares a recovered kv table with the puts that made it: every
// key of before, and of after each put acked by crash point p, with no put
// begun at or after p and no key none of them wrote.
func checkKV(got, before map[int64]int64, after map[int64]span, p int) error {
	for k, v := range got {
		s, late := after[k]
		switch {
		case !late && before[k] != v, late && k != v:
			return fmt.Errorf("key %d holds %d", k, v)
		case late && s.begun >= p:
			return fmt.Errorf("key %d, put after the crash, is present", k)
		}
	}
	for k := range before {
		if _, ok := got[k]; !ok {
			return fmt.Errorf("acked key %d lost", k)
		}
	}
	for k, s := range after {
		if _, ok := got[k]; !ok && s.acked <= p {
			return fmt.Errorf("acked key %d lost", k)
		}
	}
	return nil
}

// putAll puts each key (value = key) into st and returns where each put
// began and was acked in fsys's recording.
func putAll(t *testing.T, st *Store, fsys *crashfs.FS, keys []int64) map[int64]span {
	t.Helper()
	spans := map[int64]span{}
	for _, k := range keys {
		s := span{begun: fsys.Len()}
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
		s.acked = fsys.Len()
		spans[k] = s
	}
	return spans
}

// TestPresumedAbortCrashPoints crashes a recovery that presumes an earlier
// version's undecided PREPARE aborted at every point of its own writes (the
// checkpoint it takes after replaying a two-phase record), and of the puts
// and the coordinated pair the recovered store then acks, in every variant,
// and recovers each image again: the leg never appears, every acked key
// does, and the pair is whole or absent.
func TestPresumedAbortCrashPoints(t *testing.T) {
	const parts = 2
	cfg := gcTestConfig(t.TempDir(), parts)
	st := buildKV(t, cfg)
	must(t, st.Start())
	before := map[int64]int64{}
	for k := range int64(10) {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
		before[k] = k
	}
	must(t, st.Stop())
	appendRecords(t, cfg.Dir, 0, &pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 99, Ops: []pe.LoggedOp{putOp(777, 777)}})

	st = buildKV(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	if n := st.Metrics().Snapshot()[metrics.Checkpoints]; n != 1 {
		t.Fatalf("recovery of a two-phase record took %d checkpoints, want 1", n)
	}
	after := putAll(t, st, fsys, []int64{100, 101, 102, 103})
	pair := span{begun: fsys.Len()}
	must(t, mpPutPair(st, pairBase))
	pair.acked = fsys.Len()
	after[pairBase], after[pairBase+pairOffset] = pair, pair
	must(t, st.Stop())
	eachCrashImage(t, fsys, crashPoints(0, fsys.Len()), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re := buildKV(t, cfg)
		if err := re.Recover(); err != nil {
			return err
		}
		defer re.Stop()
		got := kvRows(re)
		_, a := got[pairBase]
		_, b := got[pairBase+pairOffset]
		if a != b {
			return fmt.Errorf("the pair recovered partially: %v", got)
		}
		return checkKV(got, before, after, p)
	})
}

// TestDurableFollowerCrashPoints: a durable follower follows a durable
// primary through puts and a coordinated pair, is promoted, takes puts and
// stops. At every point of its directory's writes, in every variant, an
// image cut before the promotion restarts as a follower, tails to the end
// and equals a recovery of the primary, and an image cut after it recovers
// every write acked before and after the promotion, and nothing else.
func TestDurableFollowerCrashPoints(t *testing.T) {
	const parts = 2
	st := buildKV(t, gcTestConfig(t.TempDir(), parts))
	must(t, st.Start())
	fcfg := gcTestConfig(t.TempDir(), parts)
	fst := buildKV(t, fcfg)
	fsys := recordStore(t, fst)
	f, err := NewFollower(fst, st)
	must(t, err)
	before := map[int64]int64{}
	for k := range int64(12) {
		_, err := st.Call("put", types.NewInt(k), types.NewInt(k))
		must(t, err)
		before[k] = k
		if k%4 == 3 {
			pollUntilIdle(t, f)
		}
	}
	ka, kb := keysOwnedBy(st, 0, 1, 500)[0], keysOwnedBy(st, 1, 1, 500)[0]
	must(t, st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(0, "INSERT INTO kv VALUES (?, ?)", types.NewInt(ka), types.NewInt(ka)); err != nil {
			return err
		}
		_, err := tx.Exec(1, "INSERT INTO kv VALUES (?, ?)", types.NewInt(kb), types.NewInt(kb))
		return err
	}))
	before[ka], before[kb] = ka, kb
	pollUntilIdle(t, f)
	must(t, f.Err())
	must(t, st.Stop())
	promoted, err := f.Promote()
	must(t, err)
	promotedAt := fsys.Len()
	after := putAll(t, promoted, fsys, []int64{1000, 1001, 1002, 1003, 1004})
	must(t, promoted.Stop())

	t.Logf("%d crash points, promotion after %d", fsys.Len(), promotedAt)
	re := buildKV(t, st.cfg)
	must(t, re.Recover())
	want := storeState(re)
	must(t, re.Stop())
	eachCrashImage(t, fsys, crashPoints(0, fsys.Len()), func(img string, p int) error {
		cfg := fcfg
		cfg.Dir = img
		if p > promotedAt {
			re := buildKV(t, cfg)
			if err := re.Recover(); err != nil {
				return err
			}
			defer re.Stop()
			return checkKV(kvRows(re), before, after, p)
		}
		f, err := NewFollower(buildKV(t, cfg), st)
		if err != nil {
			return err
		}
		defer f.Stop()
		pollUntilIdle(t, f)
		if err := f.Err(); err != nil {
			return err
		}
		if err := f.settle(); err != nil {
			return err
		}
		if got := storeState(f.st); got != want {
			return fmt.Errorf("restarted follower holds\n%s\nrecovery of the primary\n%s", got, want)
		}
		return nil
	})
}
