package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/crashfs"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// checkCanonical asserts every partitioned row sits on its canonical
// owner under the current slot table (which Rebalance converges to the
// canonical assignment).
func checkCanonical(t *testing.T, st *Store) {
	t.Helper()
	if err := misplacedRows(st); err != nil {
		t.Error(err)
	}
}

// misplacedRows reports the partitioned rows that sit off their owner.
func misplacedRows(st *Store) error {
	var errs []error
	slots := st.slots.Load()
	for _, p := range st.partList() {
		for _, rel := range migratedRels(p.cat) {
			col := rel.PartCol
			rel.Table.Scan(func(_ storage.RowID, row types.Row) bool {
				if owner := slots.Partition(row[col]); owner != p.idx {
					errs = append(errs, fmt.Errorf("%s row %v on partition %d, owner is %d", rel.Name, row, p.idx, owner))
				}
				return true
			})
		}
	}
	return errors.Join(errs...)
}

func TestRebalanceLive(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 16, 2)
	want := totals(t, st)

	// Read guards. A pin taken on the two-partition store must keep giving
	// the pre-rebalance answer for as long as it is held. And while a slot is
	// mid-migration (its rows staged on the destination, still live on the
	// source) and after each earlier slot's cutover, every key reads exactly
	// once, through the latest cut and through the old pin.
	pin := st.PinSnapshot()
	defer pin.Release()
	pinned := func(q string, p ...types.Value) (*pe.Result, error) { return st.QueryPinned(pin, q, p...) }
	midMigration := 0
	testHookAfterCopy = func(slot int) error {
		midMigration++
		for k := int64(0); k < 16; k++ {
			for _, query := range []func(string, ...types.Value) (*pe.Result, error){st.Query, pinned} {
				res, err := query("SELECT n FROM totals WHERE k = ?", types.NewInt(k))
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != want[k] {
					return fmt.Errorf("key %d read %v while slot %d migrates, want one row of %d", k, res.Rows, slot, want[k])
				}
			}
		}
		return nil
	}
	err := st.Rebalance(4)
	testHookAfterCopy = nil
	if err != nil || midMigration == 0 {
		t.Fatalf("rebalance: %v, read mid-migration %d times", err, midMigration)
	}
	if st.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", st.NumPartitions())
	}
	if got := totals(t, st); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-rebalance totals = %v want %v", got, want)
	}
	checkCanonical(t, st)
	// Keyed calls route to the new owners.
	for k := 0; k < 16; k++ {
		res, err := st.Call("bump", types.NewInt(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("bump(%d) affected %d rows", k, res.RowsAffected)
		}
	}
	// New ingest lands on the grown store, including keys owned by the
	// added partitions.
	ingestKeys(t, st, 16, 1)
	got := totals(t, st)
	for k := int64(0); k < 16; k++ {
		if got[k] != want[k]+100+2 {
			t.Fatalf("key %d total = %d want %d", k, got[k], want[k]+100+2)
		}
	}
	if n := st.Metrics().Snapshot()[metrics.Rebalances]; n != 1 {
		t.Fatalf("Rebalances = %d", n)
	}
	res, err := pinned("SELECT k, n FROM totals ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("pre-rebalance pin reads %d rows after the rebalance, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Int()] {
			t.Fatalf("pre-rebalance pin reads key %d = %d after the rebalance, want %d", r[0].Int(), r[1].Int(), want[r[0].Int()])
		}
	}
}

// TestKeyedReadAcrossRebalance: a SELECT binding the partition key reads
// the partition that owns the key in the cut's slot table, not the live
// one. A pin taken on two partitions keeps naming one of its two after a
// rebalance to four has moved the key, a fresh cut names the new owner, a
// follower reads every partition, and readers running through the
// rebalance (keyed, range and aggregate) never miss or repeat a row. Every
// answer equals the one-partition store's.
func TestKeyedReadAcrossRebalance(t *testing.T) {
	const keys = 64
	load := func(st *Store) {
		t.Helper()
		must(t, st.Start())
		for k := int64(0); k < keys; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(10*k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const (
		point = "SELECT k, v FROM kv WHERE k = ?"
		span  = "SELECT k, v FROM kv WHERE k BETWEEN ? AND ? ORDER BY k"
		agg   = "SELECT COUNT(*), SUM(v), MAX(k) FROM kv WHERE k >= ?"
	)
	one := buildKV(t, Config{})
	load(one)
	defer one.Stop()
	answer := func(q string, params ...types.Value) string {
		res, err := one.Query(q, params...)
		must(t, err)
		return fmt.Sprint(res.Rows)
	}
	want := make([]string, keys+1) // and one absent key
	for k := range want {
		want[k] = answer(point, types.NewInt(int64(k)))
	}
	// The range and aggregate readers' statements, by i % keys.
	spans, aggs := make([]string, keys), make([]string, keys)
	for k := range spans {
		spans[k] = answer(span, types.NewInt(int64(k)), types.NewInt(int64(k+9)))
		aggs[k] = answer(agg, types.NewInt(int64(k)))
	}

	t.Run("doors", func(t *testing.T) {
		st := buildKV(t, gcTestConfig(t.TempDir(), 2))
		load(st)
		defer st.Stop()
		pin := st.PinSnapshot()
		defer pin.Release()
		must(t, st.Rebalance(4))
		f, err := NewFollower(buildKV(t, Config{Partitions: 4}), growingSource{st})
		must(t, err)
		pollUntilIdle(t, f)
		must(t, f.Err())
		doors := []struct {
			name  string
			query func(string, ...types.Value) (*pe.Result, error)
		}{
			{"QueryPinned on the old pin", func(q string, p ...types.Value) (*pe.Result, error) { return st.QueryPinned(pin, q, p...) }},
			{"Store.Query", st.Query},
			{"Follower.Query", f.Query},
		}
		for k := range want {
			for _, d := range doors {
				res, err := d.query(point, types.NewInt(int64(k)))
				if err != nil {
					t.Fatalf("%s: key %d: %v", d.name, k, err)
				}
				if got := fmt.Sprint(res.Rows); got != want[k] {
					t.Errorf("%s: key %d reads %s, one partition reads %s", d.name, k, got, want[k])
				}
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		st := buildKV(t, Config{Partitions: 2})
		load(st)
		defer st.Stop()
		stop := make(chan struct{})
		errCh := make(chan error, 4)
		var wg sync.WaitGroup
		// read runs one statement shape through the rebalance; stmt names
		// its text, parameters and one partition's answer for key k.
		read := func(pinned bool, stmt func(k int64) (string, []types.Value, string)) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q, params, want := stmt(int64(i % keys))
				var res *pe.Result
				var err error
				if pinned {
					pin := st.PinSnapshot()
					res, err = st.QueryPinned(pin, q, params...)
					pin.Release()
				} else {
					res, err = st.Query(q, params...)
				}
				if err == nil && fmt.Sprint(res.Rows) != want {
					err = fmt.Errorf("%s %v reads %v during the rebalance, want %s", q, params, res.Rows, want)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}
		keyed := func(k int64) (string, []types.Value, string) {
			return point, []types.Value{types.NewInt(k)}, want[k]
		}
		ranged := func(k int64) (string, []types.Value, string) {
			return span, []types.Value{types.NewInt(k), types.NewInt(k + 9)}, spans[k]
		}
		summed := func(k int64) (string, []types.Value, string) {
			return agg, []types.Value{types.NewInt(k)}, aggs[k]
		}
		wg.Add(4)
		go read(false, keyed)
		go read(true, keyed)
		go read(false, ranged)
		go read(true, summed)
		err := st.Rebalance(4)
		close(stop)
		wg.Wait()
		must(t, err)
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
	})
}

func TestRebalanceReplicatedAndNoop(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Exec("INSERT INTO ref (id, v) VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	// Replicated tables were seeded onto the new partition.
	for i := 0; i < 3; i++ {
		if n := st.partList()[i].cat.Relation("ref").Table.Count(); n != 1 {
			t.Fatalf("partition %d ref rows = %d", i, n)
		}
	}
	q, err := st.Query("SELECT COUNT(*) FROM ref")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0].Int() != 1 {
		t.Fatalf("replicated count = %v", q.Rows)
	}
	// Same-size rebalance is a no-op, shrinking is refused.
	if err := st.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebalance(2); err == nil ||
		!strings.Contains(err.Error(), "shrinking the partition count is not supported") {
		t.Fatalf("shrink err = %v", err)
	}
}

func TestRebalanceDurableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 2, Sync: wal.SyncEveryRecord})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 12, 2)
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 12, 1)
	want := totals(t, st)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 4, Sync: wal.SyncEveryRecord})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered totals = %v want %v", got, want)
	}
	checkCanonical(t, st2)
}

func TestRebalanceCrashBetweenCopiedAndCommit(t *testing.T) {
	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 2, Sync: wal.SyncEveryRecord})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 12, 2)
	want := totals(t, st)

	// Abort the first migration after its bulk copy: no log holds its
	// commit record, the exact state a crash in that window leaves behind.
	testHookAfterCopy = func(slot int) error { return fmt.Errorf("injected crash after the copy") }
	err := st.Rebalance(4)
	testHookAfterCopy = nil
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("rebalance err = %v", err)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	// The growth intent was stamped, so the old count is refused...
	stOld := buildPartApp(t, Config{Dir: dir, Partitions: 2, Sync: wal.SyncEveryRecord})
	if err := stOld.Start(); err == nil ||
		!strings.Contains(err.Error(), "shrinking the partition count is not supported") {
		stOld.Stop()
		t.Fatalf("old-count err = %v", err)
	}
	// ...and reopening with the target count finishes the redistribution.
	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 4, Sync: wal.SyncEveryRecord})
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered totals = %v want %v", got, want)
	}
	checkCanonical(t, st2)
	for k := 0; k < 12; k++ {
		if res, err := st2.Call("bump", types.NewInt(int64(k))); err != nil || res.RowsAffected != 1 {
			t.Fatalf("bump(%d) = %v, %v", k, res, err)
		}
	}
}

// TestSlotMigrationLegDurableBeforeCommit: under SyncNever a migration's
// one record (the destination's leg and the move) is still forced, because
// recovery hands the slot to the destination (and evicts it everywhere
// else) on that record alone. A recording file system follows growths
// ended by a Checkpoint, which must make the log durable and write every
// snapshot before it truncates the log: recovery folds every slot move a
// crash left untruncated.
//
// The first case is Rebalance(2→3), which moves slots both to a lower and
// to a higher partition index. A truncated log would otherwise drop the
// move a source still recovering from its old snapshot needs.
//
// The second case is Rebalance(2→3) and then Rebalance(3→4), which moves a
// slot back to the lower index it left and is aborted right after. Were
// the move back lost once the log is truncated, recovery would fold only
// the first move and evict the slot from the one snapshot that holds it.
//
// The directory a crash leaves after any operation of the first case's
// growth and checkpoint, or of the second case's second growth and
// checkpoint, in every image variant, must reopen with every row on its
// canonical owner.
func TestSlotMigrationLegDurableBeforeCommit(t *testing.T) {
	// start opens a two-partition store on a recording file system with
	// rows in every slot of slots, checkpointed.
	start := func(slots ...int) (*Store, *crashfs.FS, map[int64]int64) {
		st := buildPartApp(t, Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncNever})
		fsys := recordStore(t, st)
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Stop() })
		ingestKeys(t, st, 12, 2)
		for _, slot := range slots {
			k := int64(0)
			for catalog.SlotOf(types.NewInt(k)) != slot {
				k++
			}
			if err := st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
				t.Fatal(err)
			}
		}
		st.FlushBatches()
		st.Drain()
		want := totals(t, st)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return st, fsys, want
	}
	recovers := func(partitions int, want map[int64]int64) func(string, int) error {
		return func(img string, _ int) error {
			st2 := buildPartApp(t, Config{Dir: img, Partitions: partitions, Sync: wal.SyncNever})
			if err := st2.Start(); err != nil {
				return err
			}
			defer st2.Stop()
			if got := totals(t, st2); fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("recovered totals = %v want %v", got, want)
			}
			return misplacedRows(st2)
		}
	}

	two := catalog.NewSlotTable(2)
	moves := two.Moves(3)
	if moves[0].To < moves[0].From || moves[1].To > moves[1].From {
		t.Fatalf("moves %v do not go both ways", moves[:2])
	}
	// back is the first slot the second growth returns to the lower index
	// it owned before the first; the move after it is aborted.
	again := catalog.NewSlotTable(3).Moves(4)
	back, abortAt := -1, -1
	for i, mv := range again[:len(again)-1] {
		if mv.To < mv.From && int(two.Owner[mv.Slot]) == mv.To {
			back, abortAt = mv.Slot, again[i+1].Slot
			break
		}
	}
	if back < 0 {
		t.Fatal("no slot moves there and back")
	}

	// The last slot to move gets a row too: nothing after its cutover
	// flushes the destination's log on its own account.
	st, fsys, want := start(moves[len(moves)-1].Slot)
	from := fsys.Len()
	if err := st.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eachCrashImage(t, fsys, crashPoints(from, fsys.Len()), recovers(3, want))

	st, fsys, want = start(back)
	if err := st.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	from = fsys.Len()
	testHookAfterCopy = func(slot int) error {
		if slot == abortAt {
			return fmt.Errorf("injected crash after slot %d's copy", slot)
		}
		return nil
	}
	err := st.Rebalance(4)
	testHookAfterCopy = nil
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("rebalance err = %v", err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eachCrashImage(t, fsys, crashPoints(from, fsys.Len()), recovers(4, want))
}

// TestNullPartitionKeyDefault pins the routing contract for NULL partition
// keys: a NULL with a column DEFAULT routes (and is stored) as the default,
// so the keyed read path finds the row without a fan-out; a NULL without a
// default is stored as NULL on a deterministic owner and survives rebalance.
func TestNullPartitionKeyDefault(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE nd (k INT PRIMARY KEY DEFAULT 7, v BIGINT) PARTITION BY k;
		CREATE TABLE nn (k INT, v BIGINT) PARTITION BY k;
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()

	if _, err := st.Exec("INSERT INTO nd (k, v) VALUES (NULL, 1)"); err != nil {
		t.Fatal(err)
	}
	// The defaulted key must live on hash(7)'s owner and be visible to the
	// single-partition keyed read.
	q, err := st.Query("SELECT v FROM nd WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 1 {
		t.Fatalf("keyed read of defaulted NULL key = %v", q.Rows)
	}
	owner := st.partitionFor(types.NewInt(7))
	if n := st.partList()[owner].cat.Relation("nd").Table.Count(); n != 1 {
		t.Fatalf("partition %d nd rows = %d", owner, n)
	}

	// No default: the NULL key is kept as NULL and routes deterministically.
	if _, err := st.Exec("INSERT INTO nn (k, v) VALUES (NULL, 2)"); err != nil {
		t.Fatal(err)
	}
	q, err = st.Query("SELECT v FROM nn")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 2 {
		t.Fatalf("fan-out read of NULL key = %v", q.Rows)
	}
	nullOwner := st.partitionFor(types.Null)
	if n := st.partList()[nullOwner].cat.Relation("nn").Table.Count(); n != 1 {
		t.Fatalf("partition %d nn rows = %d", nullOwner, n)
	}

	// Both rows survive a rebalance and stay on their canonical owners.
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	q, err = st.Query("SELECT v FROM nd WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("post-rebalance keyed read = %v", q.Rows)
	}
	checkCanonical(t, st)
}

// TestRebalanceUnderConcurrentTraffic hammers a migrating store: ingest,
// keyed calls, fan-out queries, and a multi-partition transaction mix run
// while the store grows 2 -> 4. Run with -race.
func TestRebalanceUnderConcurrentTraffic(t *testing.T) {
	st := buildPartApp(t, Config{Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(t, st, 32, 1)

	const feeders = 4
	const perFeeder = 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, feeders+2)
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				k := int64((f*perFeeder + i) % 32)
				if err := st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
					errCh <- err
					return
				}
			}
		}(f)
	}
	wg.Add(1)
	go func() { // fan-out reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Query("SELECT COUNT(*), SUM(n) FROM totals"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // cross-partition writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := st.MultiPartitionTxn(func(tx *MPTxn) error {
				_, err := tx.ExecAll("UPDATE ref SET v = v + 1 WHERE id = 1")
				return err
			})
			if err != nil {
				errCh <- err
				return
			}
		}
	}()
	if _, err := st.Exec("INSERT INTO ref (id, v) VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}

	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st.FlushBatches()
	st.Drain()

	got := totals(t, st)
	// Every ingested tuple doubled and applied exactly once: 32 keys seeded
	// once, then feeders*perFeeder spread round-robin over the 32 keys.
	wantPer := int64(2 * (1 + feeders*perFeeder/32))
	for k := int64(0); k < 32; k++ {
		if got[k] != wantPer {
			t.Fatalf("key %d total = %d want %d (lost or duplicated work)", k, got[k], wantPer)
		}
	}
	checkCanonical(t, st)
}

// registerDel adds a keyed delete procedure (mirrors bump's routing) so a
// durable test can kill a totals row through the logged procedure path.
func registerDel(t *testing.T, st *Store) {
	t.Helper()
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "del",
		ReadSet:        []string{"totals"},
		WriteSet:       []string{"totals"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("DELETE FROM totals WHERE k = ?", ctx.Params[0])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceMigrateBackRestart covers slots whose ownership history
// returns to an earlier owner (e.g. 0 -> 1 -> 0 across 2 -> 3 -> 4): the
// returning partition's own log already re-creates the slot's rows during
// replay, so the slot-move leg must supersede those stale local copies —
// including keys deleted while the slot lived elsewhere, which must NOT
// be resurrected by the old insert records.
func TestRebalanceMigrateBackRestart(t *testing.T) {
	// Keys whose slot stays put 2 -> 3 would not exercise anything; pick
	// keys whose slot moves away at 3 partitions and returns at 4.
	var back []int64
	for k := int64(0); len(back) < 2 && k < 10_000; k++ {
		s := catalog.SlotOf(types.NewInt(k))
		if s%4 == s%2 && s%3 != s%2 {
			back = append(back, k)
		}
	}
	if len(back) < 2 {
		t.Fatal("no migrate-back keys found")
	}
	keep, kill := back[0], back[1]

	dir := t.TempDir()
	st := buildPartApp(t, Config{Dir: dir, Partitions: 2, Sync: wal.SyncEveryRecord})
	registerDel(t, st)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	ingestKeys(t, st, 32, 1)
	for _, k := range []int64{keep, kill} {
		if err := st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(2)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()

	if err := st.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	// While the slot lives on its interim owner: update keep, delete kill —
	// both through logged procedures on the interim partition's segment.
	if _, err := st.Call("bump", types.NewInt(keep)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Call("del", types.NewInt(kill)); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebalance(4); err != nil {
		t.Fatal(err)
	}
	want := totals(t, st)
	if _, ok := want[kill]; ok {
		t.Fatalf("key %d still present before restart", kill)
	}
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	st2 := buildPartApp(t, Config{Dir: dir, Partitions: 4, Sync: wal.SyncEveryRecord})
	registerDel(t, st2)
	if err := st2.Start(); err != nil {
		t.Fatal(err)
	}
	defer st2.Stop()
	got := totals(t, st2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered totals = %v want %v", got, want)
	}
	if _, ok := got[kill]; ok {
		t.Fatalf("deleted key %d resurrected by recovery", kill)
	}
	checkCanonical(t, st2)
}

// TestRebalanceAddedPartitionsFeedPrepareBatchStats: a partition added by
// Rebalance logs to the store's log, whose commit daemon's sync-batch
// callback drains pendCoord into the coordinated-commit batch-size
// histogram. Added
// partitions used to open logs of their own, with an options literal
// that lacked the callback.
func TestRebalanceAddedPartitionsFeedPrepareBatchStats(t *testing.T) {
	st := buildKV(t, gcTestConfig(t.TempDir(), 2))
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebalance(4); err != nil {
		st.Stop()
		t.Fatal(err)
	}
	before := st.Metrics().Snapshot()[metrics.MPPrepareBatches]
	k2, k3 := keysOwnedBy(st, 2, 1, 0)[0], keysOwnedBy(st, 3, 1, 0)[0]
	err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(2, "INSERT INTO kv VALUES (?, 1)", types.NewInt(k2)); err != nil {
			return err
		}
		_, err := tx.Exec(3, "INSERT INTO kv VALUES (?, 1)", types.NewInt(k3))
		return err
	})
	// Stop joins the commit daemons, so every sync-batch callback has run.
	if serr := st.Stop(); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if got := st.Metrics().Snapshot()[metrics.MPPrepareBatches]; got == before {
		t.Errorf("coordinated commits on added partitions observed no batch (count stays %d)", got)
	}
	if n := st.pendCoord.Load(); n != 0 {
		t.Errorf("pendCoord = %d, never drained", n)
	}
}
