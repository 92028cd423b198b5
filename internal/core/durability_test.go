package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// The durability script checks what recovery promises (paper §2.4,
// DESIGN.md §1.4): every acknowledged write survives, a coordinated
// transaction is all or nothing, and each border batch's downstream effects
// apply exactly once. A journal records where in the file operations each
// write began and where its ack came back; one oracle (journal.check)
// judges a recovered store.

// span places a write in the recording: begun is the operation count when
// it was issued, acked when its acknowledgement came back. A crash at
// point p may keep it if begun < p, and must keep it if acked <= p.
type span struct{ begun, acked int }

// end is the crash point of a clean stop; never is past it: the ack of a
// write never acknowledged, or the start of one that never began.
const end, never = math.MaxInt - 1, math.MaxInt

// count is how many of spans must (acked) and may (begun) survive a crash
// at point p.
func count(spans []span, p int) (acked, begun int) {
	for _, s := range spans {
		if s.acked <= p {
			acked++
		}
		if s.begun < p {
			begun++
		}
	}
	return acked, begun
}

// journal is what the durability script did to a store.
type journal struct {
	pos    func() int       // the recording's length; 0 without one
	events map[int64]int64  // one event per key; a negative amount aborts apply
	bumps  map[int64][]span // each key's bump calls
	txns   []txn            // coordinated writes
	adHoc  []adHocRun
	pauses []span // pause, resume, pause, … of the events dataflow
}

// txn is a coordinated write: all of its totals rows or none.
type txn struct {
	rows map[int64]int64
	span
}

// adHocRun is one adHocWrites sequence: the totals rows of its keys after
// each statement (states[0] before the first), and each statement's span.
type adHocRun struct {
	keys   []int64
	states []map[int64]int64
	steps  []span
}

func newJournal(pos func() int) *journal {
	return &journal{pos: pos, events: map[int64]int64{}, bumps: map[int64][]span{}}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// do runs one write and returns where it began and where its ack came back.
func (j *journal) do(t *testing.T, write func() error) span {
	t.Helper()
	s := span{begun: j.pos()}
	must(t, write())
	s.acked = j.pos()
	return s
}

func keyRange(lo, hi int64) []int64 {
	var keys []int64
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// ingest feeds one event of amount amt per key as border batches and waits
// for their workflows.
func (j *journal) ingest(t *testing.T, st *Store, keys []int64, amt int64) {
	t.Helper()
	for _, k := range keys {
		j.events[k] = amt
		must(t, st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(amt)}))
	}
	st.FlushBatches()
	st.Drain()
}

// bump pipelines one keyed bump call per key, then takes every ack.
func (j *journal) bump(t *testing.T, st *Store, keys []int64) {
	t.Helper()
	begun := j.pos()
	acks := make([]<-chan pe.CallResult, len(keys))
	for i, k := range keys {
		acks[i] = st.CallAsync("bump", types.NewInt(k))
	}
	for i, k := range keys {
		cr := <-acks[i]
		if cr.Err != nil || cr.Result.RowsAffected != 1 {
			t.Fatalf("bump(%d) = %v, %v", k, cr.Result, cr.Err)
		}
		j.bumps[k] = append(j.bumps[k], span{begun, j.pos()})
	}
}

// pair commits one coordinated transaction inserting a totals row on each
// of partitions pa and pb.
func (j *journal) pair(t *testing.T, st *Store, pa, pb int, start int64) {
	t.Helper()
	ka, kb := keysOwnedBy(st, pa, 1, start)[0], keysOwnedBy(st, pb, 1, start)[0]
	s := j.do(t, func() error {
		return st.MultiPartitionTxn(func(tx *MPTxn) error {
			if _, err := tx.Exec(pa, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(ka)); err != nil {
				return err
			}
			_, err := tx.Exec(pb, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(kb))
			return err
		})
	})
	j.txns = append(j.txns, txn{map[int64]int64{ka: 1, kb: 1}, s})
}

// pause pauses (on) or resumes the events dataflow.
func (j *journal) pause(t *testing.T, st *Store, on bool) {
	t.Helper()
	op := st.ResumeDataflow
	if on {
		op = st.PauseDataflow
	}
	j.pauses = append(j.pauses, j.do(t, func() error { return op("events") }))
}

// adHocWrites runs one of each ad-hoc write shape through st.Exec on
// totals, with keys from base up: a keyed INSERT (routed to its owner), a
// keyed UPDATE and DELETE (which the router runs on every partition of a
// partitioned table), a two-row INSERT spanning partitions 0 and 1, and a
// broadcast UPDATE. The store needs two partitions or more, and no other
// totals key at or above base.
func (j *journal) adHocWrites(t *testing.T, st *Store, base int64) {
	t.Helper()
	on0, on1 := keysOwnedBy(st, 0, 2, base), keysOwnedBy(st, 1, 1, base)
	x, y, z := on0[0], on0[1], on1[0]
	run := adHocRun{keys: []int64{x, y, z}, states: []map[int64]int64{{}}}
	for _, w := range []struct {
		q        string
		params   []types.Value
		affected int
		after    map[int64]int64
	}{
		{"INSERT INTO totals (k, n) VALUES (?, 5)", []types.Value{types.NewInt(x)}, 1, map[int64]int64{x: 5}},
		{"UPDATE totals SET n = n + 1 WHERE k = ?", []types.Value{types.NewInt(x)}, 1, map[int64]int64{x: 6}},
		{"INSERT INTO totals (k, n) VALUES (?, 1), (?, 1)", []types.Value{types.NewInt(y), types.NewInt(z)}, 2, map[int64]int64{x: 6, y: 1, z: 1}},
		{"DELETE FROM totals WHERE k = ?", []types.Value{types.NewInt(y)}, 1, map[int64]int64{x: 6, z: 1}},
		{"UPDATE totals SET n = n * 2 WHERE k >= ?", []types.Value{types.NewInt(base)}, 2, map[int64]int64{x: 12, z: 2}},
	} {
		run.steps = append(run.steps, j.do(t, func() error {
			res, err := st.Exec(w.q, w.params...)
			if err == nil && res.RowsAffected != w.affected {
				err = fmt.Errorf("%s affected %d rows, want %d", w.q, res.RowsAffected, w.affected)
			}
			return err
		}))
		run.states = append(run.states, w.after)
	}
	j.adHoc = append(j.adHoc, run)
}

// phase1 is the part of the script every run drives, on a started
// two-partition store: events, pipelined bumps, one interior abort per
// partition, ad-hoc writes, a coordinated pair, a pause, a checkpoint
// (after beforeCheckpoint) that must keep it, with bumps on both partitions
// and a coordinated pair committed between its cut and its snapshots, a
// resume, more calls and a final pause.
func (j *journal) phase1(t *testing.T, st *Store, beforeCheckpoint func()) {
	t.Helper()
	j.ingest(t, st, keyRange(0, 8), 1)
	j.bump(t, st, keyRange(0, 8))
	// The apply stage aborts on these and leaves them in derived. Under
	// LogAllTEs replay, each later triggered record must GC its own tuple,
	// not an aborted one.
	j.ingest(t, st, []int64{keysOwnedBy(st, 0, 1, 500)[0], keysOwnedBy(st, 1, 1, 500)[0]}, -1)
	j.ingest(t, st, keyRange(8, 16), 1)
	j.adHocWrites(t, st, 5000)
	j.pair(t, st, 0, 1, 1000)
	j.pause(t, st, true)
	beforeCheckpoint()
	testHookAfterCut = func() {
		j.bump(t, st, keyRange(0, 16))
		j.pair(t, st, 0, 1, 1500)
	}
	err := st.Checkpoint()
	testHookAfterCut = nil
	must(t, err)
	j.pause(t, st, false)
	j.bump(t, st, keyRange(0, 16))
	j.pause(t, st, true)
}

// phase2 resumes the dataflow, writes a replicated row and grows the store
// to four partitions: the first Rebalance completes one slot migration and
// aborts the second after its bulk copy (nothing of it is logged); the
// retry migrates the rest. Writes land between and after the migrations,
// and a pause ends it.
func (j *journal) phase2(t *testing.T, st *Store) {
	t.Helper()
	j.pause(t, st, false)
	must(t, st.MultiPartitionTxn(func(tx *MPTxn) error { // seeded onto the new partitions
		_, err := tx.ExecAll("INSERT INTO ref VALUES (1, 10)")
		return err
	}))
	migrations := 0
	testHookAfterCopy = func(int) error {
		if migrations++; migrations == 2 {
			return errors.New("injected abort after the copy")
		}
		return nil
	}
	err := st.Rebalance(4)
	testHookAfterCopy = nil
	if err == nil || !strings.Contains(err.Error(), "injected abort") {
		t.Fatalf("first rebalance err = %v", err)
	}
	j.bump(t, st, keyRange(0, 16))
	must(t, st.Rebalance(4))
	j.ingest(t, st, keyRange(16, 24), 1)
	j.bump(t, st, keyRange(0, 24))
	j.pair(t, st, 2, 3, 2000)
	j.adHocWrites(t, st, 7000)
	j.pause(t, st, true)
}

// check is the oracle: what a store recovered from a crash at point p (end:
// a clean stop) must hold. It reads storage, so the store must not run.
func (j *journal) check(st *Store, p int) error {
	totals := map[int64]int64{}
	applied, pending := map[int64][]int64{}, map[int64][]int64{}
	for _, part := range st.partList() {
		for _, r := range part.cat.Relation("totals").Table.ScanRows() {
			totals[r[0].Int()] = r[1].Int()
		}
		for _, r := range part.cat.Relation("applied").Table.ScanRows() {
			applied[r[0].Int()] = append(applied[r[0].Int()], r[1].Int())
		}
		for _, r := range part.cat.Relation("derived").Table.ScanRows() {
			pending[r[0].Int()] = append(pending[r[0].Int()], r[1].Int())
		}
	}
	// Exactly once: an event is applied by one batch, or (aborted) still
	// waits in derived.
	for k, amt := range j.events {
		a, w := applied[k], pending[k]
		switch {
		case len(a)+len(w) > 1:
			return fmt.Errorf("event %d applied by batches %v and waiting in derived as %v", k, a, w)
		case len(w) == 1 && w[0] != 2*amt:
			return fmt.Errorf("event %d of amount %d waits in derived as %d", k, amt, w[0])
		case amt < 0 && len(a) > 0:
			return fmt.Errorf("aborted event %d applied by batch %v", k, a)
		case amt < 0 && p == end && len(w) == 0:
			return fmt.Errorf("aborted event %d left derived", k)
		case amt > 0 && len(w) == 1:
			return fmt.Errorf("event %d never applied, waiting in derived", k)
		case amt > 0 && p == end && len(a) == 0:
			return fmt.Errorf("event %d lost", k)
		}
		delete(applied, k)
		delete(pending, k)
		// Acknowledged bumps survive: n is 2 per applied event plus 100
		// per bump.
		n, ok := totals[k]
		delete(totals, k)
		acked, begun := count(j.bumps[k], p)
		if len(a) == 0 {
			if ok || acked > 0 {
				return fmt.Errorf("totals[%d] = %d (row %v) with no applied event and %d acked bumps", k, n, ok, acked)
			}
			continue
		}
		if b := (n - 2*amt) / 100; (n-2*amt)%100 != 0 || b < int64(acked) || b > int64(begun) {
			return fmt.Errorf("totals[%d] = %d, want 2 + 100 × %d..%d bumps", k, n, acked, begun)
		}
	}
	if len(applied)+len(pending) > 0 {
		return fmt.Errorf("applied %v and derived %v hold events never ingested", applied, pending)
	}
	// All or nothing, and acknowledged means all.
	for _, tx := range j.txns {
		seen := 0
		for k, n := range tx.rows {
			if got, ok := totals[k]; ok {
				if got != n {
					return fmt.Errorf("coordinated row totals[%d] = %d, want %d", k, got, n)
				}
				seen++
				delete(totals, k)
			}
		}
		switch {
		case seen > 0 && seen < len(tx.rows):
			return fmt.Errorf("coordinated write %v half visible (%d of %d rows)", tx.rows, seen, len(tx.rows))
		case seen == 0 && tx.acked <= p:
			return fmt.Errorf("acknowledged coordinated write %v lost", tx.rows)
		case seen > 0 && tx.begun >= p:
			return fmt.Errorf("coordinated write %v visible before it began", tx.rows)
		}
	}
	// Ad-hoc writes: the state after some statement between the last
	// acknowledged one and the last begun one.
	for _, run := range j.adHoc {
		got := map[int64]int64{}
		for _, k := range run.keys {
			if n, ok := totals[k]; ok {
				got[k] = n
				delete(totals, k)
			}
		}
		acked, begun := count(run.steps, p)
		matched := false
		for _, state := range run.states[acked : begun+1] {
			matched = matched || fmt.Sprint(state) == fmt.Sprint(got)
		}
		if !matched {
			return fmt.Errorf("ad-hoc rows %v match no state after statements %d..%d of %v", got, acked, begun, run.states)
		}
	}
	if len(totals) > 0 {
		return fmt.Errorf("totals holds rows no write made: %v", totals)
	}
	// The pause state of some operation between the last acknowledged and
	// the last begun (odd: paused).
	acked, begun := count(j.pauses, p)
	if paused := st.schema.Load().Dataflow("events").Paused; acked == begun && paused != (acked%2 == 1) {
		return fmt.Errorf("dataflow paused = %v after %d acknowledged pause / resume operations", paused, acked)
	}
	return nil
}

// growingSource ships a primary that grows to the follower's width later.
type growingSource struct{ st *Store }

func (s growingSource) FetchBatch(afterLSN uint64, maxBytes int) (ReplBatch, error) {
	return s.st.FetchBatch(afterLSN, maxBytes)
}

// TestCommitPoliciesAgree runs the whole script under each sync policy and
// log mode, a clean stop, then three feeds of the log — recovery, a follower
// declared final, a promoted follower — which must agree with each other,
// with every other run and with the oracle.
func TestCommitPoliciesAgree(t *testing.T) {
	var first, firstName string
	for _, pn := range []string{"never", "every", "group"} {
		for _, mn := range []string{"border", "all"} {
			name := pn + "/" + mn
			t.Run(name, func(t *testing.T) {
				got := durabilityEndOfRun(t, Config{Dir: t.TempDir(), Partitions: 2, Sync: syncPolicies[pn], LogMode: logModes[mn]}, false)
				switch {
				case first == "":
					first, firstName = got, name
				case got != first:
					t.Errorf("recovered state differs from %s:\n--- %s\n%s--- %s\n%s", firstName, firstName, first, name, got)
				}
			})
		}
	}
}

// TestRecoverFollowPromoteAgree runs the whole script, then leaves the crash
// state an earlier version's pipelined commit could leave behind — an
// undecided PREPARE with a decided transaction's legs after it. Recovery
// must agree with the oracle, and the followers must refuse the records
// and their promotion.
func TestRecoverFollowPromoteAgree(t *testing.T) {
	for _, mn := range []string{"border", "all"} {
		t.Run(map[string]string{"border": "LogBorderOnly", "all": "LogAllTEs"}[mn], func(t *testing.T) {
			durabilityEndOfRun(t, Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncEveryRecord, LogMode: logModes[mn]}, true)
		})
	}
}

var (
	syncPolicies = map[string]wal.SyncPolicy{"never": wal.SyncNever, "every": wal.SyncEveryRecord, "group": wal.SyncGroupCommit}
	logModes     = map[string]pe.LogMode{"border": pe.LogBorderOnly, "all": pe.LogAllTEs}
)

// imageSource ships a crash image's log as a primary's server reads its
// own: the image is the primary that died there.
type imageSource struct{ dir string }

func (s imageSource) FetchBatch(afterLSN uint64, maxBytes int) (ReplBatch, error) {
	frames, end, err := wal.ReadFrames(wal.LogPath(s.dir), afterLSN, maxBytes)
	return ReplBatch{Frames: frames, EndLSN: end}, err
}

// TestDurabilityScript runs phase 1 of the script under group commit in
// each log mode, and the oracle on every crash point in every variant, on
// the image's recovery and on a volatile follower of the image promoted
// there, which must hold what recovery holds. Where the checkpoint has cut
// the log's head off, the follower reports the gap instead and is not
// promoted.
func TestDurabilityScript(t *testing.T) {
	for _, mn := range []string{"border", "all"} {
		t.Run("crash/"+mn, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncGroupCommit, LogMode: logModes[mn]}
			st := buildPartApp(t, cfg)
			fsys := recordStore(t, st)
			must(t, st.Start())
			j := newJournal(fsys.Len)
			j.phase1(t, st, func() {})
			must(t, st.Stop())
			last := fsys.Len()
			promotions := 0
			eachCrashImage(t, fsys, crashPoints(0, last), func(img string, p int) error {
				if p == last {
					p = end
				}
				// The follower first: recovery appends to the image.
				promoted, err := promoteImage(t, Config{Partitions: 2, LogMode: cfg.LogMode}, img)
				if err != nil {
					return err
				}
				cfg := cfg
				cfg.Dir = img
				re := buildPartApp(t, cfg)
				if err := re.Recover(); err != nil {
					return err
				}
				defer re.Stop()
				if err := j.check(re, p); err != nil {
					return err
				}
				if promoted == nil {
					return nil
				}
				promotions++
				if err := j.check(promoted, p); err != nil {
					return fmt.Errorf("promoted follower: %w", err)
				}
				if got, want := storeState(promoted), storeState(re); got != want {
					return fmt.Errorf("promoted follower and recovery disagree:\n--- promoted\n%s--- recovered\n%s", got, want)
				}
				return nil
			})
			if promotions == 0 {
				t.Fatal("no image promoted a follower")
			}
			t.Logf("%d of %d images promoted a follower", promotions, len(crashfs.Variants)*(last+1))
		})
	}
}

// promoteImage feeds a follower opened with cfg the log of the crash image
// at dir, promotes it and stops it, so its storage can be read. It returns
// nil and no error when the image's log no longer starts at its first
// record (a checkpoint cut it), which the follower must report as a gap.
func promoteImage(t *testing.T, cfg Config, dir string) (*Store, error) {
	f, err := NewFollower(buildPartApp(t, cfg), imageSource{dir})
	if err != nil {
		return nil, err
	}
	promoted, err := f.Promote()
	if errors.Is(err, wal.ErrShipGap) {
		first := uint64(0)
		_, serr := wal.ScanLog(wal.LogPath(dir), func(lsn uint64, _ []byte) error {
			first = cmp.Or(first, lsn)
			return nil
		})
		if serr != nil || first <= 1 {
			return nil, fmt.Errorf("follower reports a gap in a log that starts at LSN %d: %w", first, err)
		}
		return nil, f.Stop()
	}
	if err != nil {
		return nil, err
	}
	return promoted, promoted.Stop()
}

// TestCheckpointBetweenAppendAndFsync checkpoints inside a coordinated
// pair's commit, after its record is appended and its slots are released,
// before its coordinator waits for the record's fsync, and runs the oracle
// on every crash point of the pair, the checkpoint and the stop, in every
// variant.
func TestCheckpointBetweenAppendAndFsync(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncGroupCommit}
	st := buildPartApp(t, cfg)
	fsys := recordStore(t, st)
	must(t, st.Start())
	j := newJournal(fsys.Len)
	checkpoints := 0
	testHookBeforeDurable = func() {
		checkpoints++
		must(t, st.Checkpoint())
	}
	j.pair(t, st, 0, 1, 1000)
	testHookBeforeDurable = nil
	must(t, st.Stop())
	if checkpoints != 1 {
		t.Fatalf("%d checkpoints inside the commit, want 1", checkpoints)
	}
	last := fsys.Len()
	eachCrashImage(t, fsys, crashPoints(0, last), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re := buildPartApp(t, cfg)
		if err := re.Recover(); err != nil {
			return err
		}
		defer re.Stop()
		if p == last {
			p = end
		}
		return j.check(re, p)
	})
}

// TestCheckpointInsidePausedChain checkpoints while a pause holds the rest
// of a chain: the pause lands while a border batch's ingest stage runs, so
// the apply execution it triggers is deferred, and the snapshot must carry
// it. Ingest queued behind the pause after the checkpoint is
// upstream backup's and is lost at the stop. The oracle runs on every
// crash point in every variant, and the clean stop's image, started and
// resumed, has applied the batch once.
func TestCheckpointInsidePausedChain(t *testing.T) {
	for _, mn := range []string{"border", "all"} {
		t.Run(mn, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 1, Sync: wal.SyncGroupCommit, LogMode: logModes[mn]}
			st := buildPartApp(t, cfg)
			fsys := recordStore(t, st)
			must(t, st.Start())
			j := newJournal(fsys.Len)
			event := func(k int64) types.Row { return types.Row{types.NewInt(k), types.NewInt(5)} }
			entered, release := make(chan struct{}), make(chan struct{})
			testHookIngest = func() {
				close(entered)
				<-release
			}
			j.events[1], j.events[2] = 5, 5
			must(t, st.Ingest("events", event(1), event(2)))
			<-entered
			testHookIngest = nil
			begun := fsys.Len()
			paused := make(chan error, 1)
			go func() { paused <- st.PauseDataflow("events") }()
			for !st.schema.Load().Dataflow("events").Paused {
				time.Sleep(100 * time.Microsecond)
			}
			close(release)
			must(t, <-paused)
			j.pauses = append(j.pauses, span{begun, fsys.Len()})
			if _, deferred := st.partList()[0].pe.Held("events"); deferred != 1 {
				t.Fatalf("%d executions deferred behind the pause, want 1", deferred)
			}
			must(t, st.Checkpoint())
			must(t, st.Ingest("events", event(3), event(4)))
			must(t, st.Stop())
			last := fsys.Len()
			eachCrashImage(t, fsys, crashPoints(0, last), func(img string, p int) error {
				cfg := cfg
				cfg.Dir = img
				re := buildPartApp(t, cfg)
				if err := re.Recover(); err != nil {
					return err
				}
				defer re.Stop()
				if p < last {
					return j.check(re, p)
				}
				if err := j.check(re, end); err != nil {
					return err
				}
				if err := re.Start(); err != nil {
					return err
				}
				if err := re.ResumeDataflow("events"); err != nil {
					return err
				}
				re.Drain()
				derived := re.partList()[0].cat.Relation("derived").Table.ScanRows()
				if got := fmt.Sprint(totalsOf(re), derived); got != "map[1:10 2:10] []" {
					return fmt.Errorf("resumed store holds totals and derived %s", got)
				}
				return nil
			})
		})
	}
}

// TestCheckpointAfterTornTail recovers a store whose logs end in a torn
// frame, commits, and checkpoints with calls and a coordinated pair
// committed after the cut: the records after the recovery follow the last
// intact frame, and the ones after the cut survive the prefix drop. The
// oracle runs on every crash point in every variant of the recovered run.
func TestCheckpointAfterTornTail(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Partitions: 2, Sync: wal.SyncGroupCommit}
	st := buildPartApp(t, cfg)
	must(t, st.Start())
	j := newJournal(func() int { return -1 }) // before the recording: kept at every point
	j.ingest(t, st, keyRange(0, 8), 1)
	j.bump(t, st, keyRange(0, 8))
	must(t, st.Stop())
	f, err := os.OpenFile(wal.LogPath(cfg.Dir), os.O_WRONLY|os.O_APPEND, 0)
	must(t, err)
	_, err = f.Write([]byte{64, 0, 0, 0, 1, 2, 3}) // a frame header whose body never landed
	must(t, errors.Join(err, f.Close()))
	re := buildPartApp(t, cfg)
	fsys := recordStore(t, re)
	must(t, re.Recover())
	must(t, re.Start())
	j.pos = fsys.Len
	j.bump(t, re, keyRange(0, 8))
	testHookAfterCut = func() {
		j.bump(t, re, keyRange(0, 8))
		j.pair(t, re, 0, 1, 1000)
	}
	err = re.Checkpoint()
	testHookAfterCut = nil
	must(t, err)
	j.bump(t, re, keyRange(0, 8))
	must(t, re.Stop())
	last := fsys.Len()
	eachCrashImage(t, fsys, crashPoints(0, last), func(img string, p int) error {
		cfg := cfg
		cfg.Dir = img
		re := buildPartApp(t, cfg)
		if err := re.Recover(); err != nil {
			return err
		}
		defer re.Stop()
		if p == last {
			p = end
		}
		return j.check(re, p)
	})
}

// buildAbortApp is buildPartApp's dataflow with an apply whose abort
// depends on state: it aborts a row whose key has no totals row yet, and
// adds to the row otherwise.
func buildAbortApp(t testing.TB, cfg Config) *Store {
	t.Helper()
	st := Open(cfg)
	must(t, st.ExecScript(partDDL))
	must(t, st.RegisterProcedure(ingestProc()))
	must(t, st.RegisterProcedure(&pe.Procedure{
		Name:     "apply",
		ReadSet:  []string{"totals"},
		WriteSet: []string{"totals"},
		Handler: func(ctx *pe.ProcCtx) error {
			for _, r := range ctx.Batch {
				res, err := ctx.Exec("UPDATE totals SET n = n + ? WHERE k = ?", r[1], r[0])
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					return ctx.Abort("no totals row")
				}
			}
			return nil
		},
	}))
	must(t, st.Deploy(eventsDF()))
	return st
}

// TestLiveInteriorAbortStaysAborted: a border batch's two apply stages
// abort live (no totals row), then an ad-hoc insert creates the row they
// needed. Recovery must not run them after that insert: under LogAllTEs
// their RecAborted records drop them, under LogBorderOnly replay re-derives
// them where they ran. Every crash point in every variant recovers one of
// the three states the run passed through, and a clean stop the last.
func TestLiveInteriorAbortStaysAborted(t *testing.T) {
	for _, mn := range []string{"border", "all"} {
		t.Run(mn, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Partitions: 1, Sync: wal.SyncGroupCommit, LogMode: logModes[mn]}
			st := buildAbortApp(t, cfg)
			fsys := recordStore(t, st)
			must(t, st.Start())
			must(t, st.Ingest("events", types.Row{types.NewInt(1), types.NewInt(5)}, types.Row{types.NewInt(1), types.NewInt(5)}))
			st.Drain()
			if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (1, 0)"); err != nil {
				t.Fatal(err)
			}
			state := func(st *Store) string {
				return fmt.Sprint(st.partList()[0].cat.Relation("totals").Table.ScanRows(), " ",
					st.partList()[0].cat.Relation("derived").Table.ScanRows())
			}
			const none, derived, live = "[] []", "[] [(1, 10) (1, 10)]", "[(1, 0)] [(1, 10) (1, 10)]"
			if got := state(st); got != live {
				t.Fatalf("live state %s, want %s", got, live)
			}
			must(t, st.Stop())
			last := fsys.Len()
			eachCrashImage(t, fsys, crashPoints(0, last), func(img string, p int) error {
				cfg := cfg
				cfg.Dir = img
				re := buildAbortApp(t, cfg)
				if err := re.Recover(); err != nil {
					return err
				}
				defer re.Stop()
				switch got := state(re); {
				case p == last && got != live:
					return fmt.Errorf("recovered %s after a clean stop, want %s", got, live)
				case got != none && got != derived && got != live:
					return fmt.Errorf("recovered %s", got)
				}
				return nil
			})
		})
	}
}

// durabilityEndOfRun runs the whole script on a fresh durable store and
// returns the state all three feeds agreed on. The followers are durable:
// each is stopped after phase 1 and restarted on its directory, where it
// must hold the state it stopped with. With twoPhase, it appends an earlier
// version's two-phase records to the log after the stop: the followers
// refuse them, and only recovery is checked.
func durabilityEndOfRun(t *testing.T, cfg Config, twoPhase bool) string {
	st := buildPartApp(t, cfg)
	must(t, st.Start())
	var followers [2]*Follower
	dirs := [2]string{t.TempDir(), t.TempDir()}
	follow := func(i int) {
		var err error
		fcfg := Config{Dir: dirs[i], Partitions: 4, Sync: cfg.Sync, LogMode: cfg.LogMode}
		followers[i], err = NewFollower(buildPartApp(t, fcfg), growingSource{st})
		must(t, err)
	}
	for i := range followers {
		follow(i)
	}
	j := newJournal(func() int { return 0 })
	// The checkpoint truncates the logs: the followers take everything
	// before it first.
	j.phase1(t, st, func() {
		must(t, st.log.Sync())
		for _, f := range followers {
			pollUntilIdle(t, f)
			must(t, f.Err())
		}
	})
	for i, f := range followers {
		pollUntilIdle(t, f)
		must(t, f.Err())
		stopped := storeState(f.st)
		must(t, f.Stop())
		follow(i)
		if got := storeState(followers[i].st); got != stopped {
			t.Fatalf("follower %d restarted as\n%s, stopped as\n%s", i, got, stopped)
		}
	}
	j.phase2(t, st)
	must(t, st.Stop())

	if twoPhase {
		// The crash state an earlier version's pipelined commit could leave:
		// an undecided PREPARE (no decision anywhere) with a decided
		// transaction's legs behind it. The decided transaction's only
		// surviving marker is under partition 1, and partition 0's leg must
		// apply by it. The undecided leg never began as far as the oracle
		// goes: it must not appear.
		undecided, decided0 := keysOwnedBy(st, 0, 2, 3000)[0], keysOwnedBy(st, 0, 2, 3000)[1]
		decided1 := keysOwnedBy(st, 1, 1, 3000)[0]
		put := func(k int64) []pe.LoggedOp {
			return []pe.LoggedOp{{SQL: "INSERT INTO totals (k, n) VALUES (?, 7)", Params: []types.Value{types.NewInt(k)}}}
		}
		appendRecords(t, cfg.Dir, 0,
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9001, Ops: put(undecided)},
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9002, Ops: put(decided0)})
		appendRecords(t, cfg.Dir, 1,
			&pe.LogRecord{Kind: pe.RecPrepare, MPTxnID: 9002, Ops: put(decided1)},
			&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: 9002, Commit: true})
		j.txns = append(j.txns,
			txn{map[int64]int64{undecided: 7}, span{never, never}},
			txn{map[int64]int64{decided0: 7, decided1: 7}, span{}})
	}

	for _, f := range followers {
		pollUntilIdle(t, f)
		if err := f.Err(); (err != nil) != twoPhase || twoPhase && !strings.Contains(err.Error(), "re-seed") {
			t.Fatalf("follower error %v after the log (two-phase records: %v)", err, twoPhase)
		}
	}
	var followed string
	var promoted *Store
	if twoPhase {
		for _, f := range followers {
			if p, err := f.Promote(); err == nil {
				p.Stop()
				t.Fatal("a follower that met a two-phase record was promoted")
			}
			must(t, f.Stop())
		}
	} else {
		must(t, followers[0].settle())
		followed = storeState(followers[0].st)
		must(t, followers[0].Stop())
		var err error
		promoted, err = followers[1].Promote()
		must(t, err)
		must(t, promoted.Stop())
	}
	// Crash recovery last: it appends to the directory.
	cfg.Partitions = 4
	re := buildPartApp(t, cfg)
	must(t, re.Recover())
	defer re.Stop()
	recovered := storeState(re)
	if !twoPhase && followed != recovered {
		t.Errorf("follower (final drain) and crash recovery disagree:\n--- followed\n%s--- recovered\n%s", followed, recovered)
	}
	if !twoPhase && storeState(promoted) != recovered {
		t.Errorf("promoted follower and crash recovery disagree:\n--- promoted\n%s--- recovered\n%s", storeState(promoted), recovered)
	}
	if err := j.check(re, end); err != nil {
		t.Error(err)
	}
	return recovered
}
