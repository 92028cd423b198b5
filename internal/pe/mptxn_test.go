package pe

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/types"
)

// TestMPLegServesInboxInOrder runs three write fragments on one leg of an
// idle partition, whose engine is lent to the coordinator with no worker
// parked: they run in the order they were issued (the arithmetic only
// comes out right in that order), each answers its count at once, and the
// vote's logged ops list the three statements in order. (A leg collects
// its ops only on an engine with a logger to append them to.)
func TestMPLegServesInboxInOrder(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	e.SetLogger(loggerFunc(func(*LogRecord) error { return nil }), LogBorderOnly)
	must(t, e.Start())
	defer e.Stop()
	e.Drain() // the worker sleeps: the leg borrows its engine

	before := e.met.Load(metrics.MPLegsParked)
	s, err := e.EnlistMP(1, false)
	must(t, err)
	stmts := []string{
		"INSERT INTO counter (id, n) VALUES (?, 1)",
		"UPDATE counter SET n = n * 10 WHERE id = ?",
		"UPDATE counter SET n = n + 3 WHERE id = ?",
	}
	for i, q := range stmts {
		res, err := s.Exec(q, types.NewInt(7))
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("fragment %d affected %d rows, want 1", i, res.RowsAffected)
		}
	}
	must(t, s.Prepare())
	if parked := e.met.Load(metrics.MPLegsParked) - before; parked != 0 {
		t.Fatalf("a leg on an idle partition parked %d workers, want 0", parked)
	}
	ops := s.LoggedOps()
	if len(ops) != len(stmts) {
		t.Fatalf("vote carries %d ops, want %d", len(ops), len(stmts))
	}
	for i, op := range ops {
		if op.SQL != stmts[i] || len(op.Params) != 1 || op.Params[0].Int() != 7 {
			t.Fatalf("op %d = %q %v, want %q [7]", i, op.SQL, op.Params, stmts[i])
		}
	}
	s.Decide(true)
	s.Release()
	res, err := e.Query("SELECT n FROM counter WHERE id = 7")
	must(t, err)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 13 {
		t.Fatalf("counter = %v, want 13 (insert, then *10, then +3)", res.Rows)
	}
}

// TestMPFailedWriteVetoesVote: a write fragment that fails turns the leg's
// vote into a veto that carries its error, even if the caller ignores the
// fragment's answer; the abort then rolls back the leg's earlier write.
func TestMPFailedWriteVetoesVote(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.Start())
	defer e.Stop()

	s, err := e.EnlistMP(1, false)
	must(t, err)
	_, err = s.Exec("INSERT INTO counter (id, n) VALUES (1, 1)")
	must(t, err)
	_, fragErr := s.Exec("INSERT INTO counter (id, n) VALUES (1, 2)")
	if fragErr == nil || !strings.Contains(fragErr.Error(), "duplicate key") {
		t.Fatalf("duplicate insert answered %v, want a duplicate key error", fragErr)
	}
	vote := s.Prepare()
	if vote == nil {
		t.Fatal("a leg with a failed write voted yes")
	}
	if !errors.Is(vote, fragErr) {
		t.Fatalf("veto %v does not wrap the fragment's error %v", vote, fragErr)
	}
	s.Decide(false)
	s.Release()
	res, err := e.Query("SELECT COUNT(*) FROM counter")
	must(t, err)
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("aborted leg left %d rows", n)
	}
	// The worker is free again.
	if _, err := e.Exec("INSERT INTO counter (id, n) VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
}

// TestMPSessionReusedAfterAbortStartsEmpty: sessions are recycled, and one
// that comes back after an aborted leg starts empty — no stale vote,
// decision, logged op or hand-off token — whatever shape the abort had:
// the coordinator's rerun after a slot-order violation (fragments run,
// then the leg released with no vote), a vote vetoed by a failed write,
// and a read-only leg released at its vote. Each reused session then
// serves a transaction that must come out right. The leg borrows an idle
// engine, so the coordinator is its only holder and gives it back to the
// pool on this goroutine, where the next enlistment takes it again; a pool
// that drops some (as under the race detector) only makes fewer rounds
// reuse one.
func TestMPSessionReusedAfterAbortStartsEmpty(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	e.SetLogger(loggerFunc(func(*LogRecord) error { return nil }), LogBorderOnly)
	must(t, e.Start())
	defer e.Stop()
	read, err := e.ee.PrepareCached("SELECT n FROM counter WHERE id = ?")
	must(t, err)
	aborts := map[string]func(s *MPSession){
		"retry": func(s *MPSession) {
			_, err := s.Exec("INSERT INTO counter (id, n) VALUES (1, 1)")
			must(t, err)
			_, err = s.QueryPlan(read, types.NewInt(1))
			must(t, err)
			_, err = s.Exec("UPDATE counter SET n = n + 1 WHERE id = 1")
			must(t, err)
		},
		"veto": func(s *MPSession) {
			_, err := s.Exec("INSERT INTO counter (id, n) VALUES (1, 1)")
			must(t, err)
			s.Exec("INSERT INTO counter (id, n) VALUES (1, 2)")
			if s.Prepare() == nil {
				t.Fatal("a leg with a failed write voted yes")
			}
			s.Decide(false)
		},
		"read-only": func(s *MPSession) {
			_, err := s.QueryPlan(read, types.NewInt(1))
			must(t, err)
			must(t, s.Prepare())
			s.Decide(false)
		},
	}
	const rounds = 50
	seen := map[*MPSession]bool{}
	reused := 0 // sessions back in the pool right after an abort
	enlist := func() *MPSession {
		e.Drain() // the worker sleeps: the leg borrows its engine
		s, err := e.EnlistMP(1, false)
		must(t, err)
		seen[s] = true
		return s
	}
	// pooled looks at the session the pool hands out next and gives it
	// back: one that served an earlier leg must be empty.
	pooled := func(after string) {
		s := mpSessions.Get().(*MPSession)
		defer mpSessions.Put(s)
		if !seen[s] {
			return
		}
		empty := &MPSession{handed: s.handed, back: s.back}
		if !reflect.DeepEqual(s, empty) || len(s.handed)+len(s.back) != 0 {
			t.Fatalf("a session back in the pool after %s is not empty", after)
		}
		if after != "commit" {
			reused++
		}
	}
	next := int64(100)
	for _, shape := range []string{"retry", "veto", "read-only"} {
		for i := 0; i < rounds; i++ {
			s := enlist()
			aborts[shape](s)
			s.Release()
			pooled(shape)

			// The session taken next serves a committing leg correctly.
			s = enlist()
			next++
			ins, err := s.Exec("INSERT INTO counter (id, n) VALUES (?, 5)", types.NewInt(next))
			must(t, err)
			res, err := s.QueryPlan(read, types.NewInt(next))
			must(t, err)
			must(t, s.Prepare())
			if ins.RowsAffected != 1 || len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
				t.Fatalf("after a %s abort: insert %d; read %v", shape, ins.RowsAffected, res.Rows)
			}
			if ops := s.LoggedOps(); len(ops) != 1 || ops[0].Params[0].Int() != next {
				t.Fatalf("after a %s abort the vote carries %v, want the one insert", shape, ops)
			}
			s.Decide(true)
			s.Release()
			pooled("commit")
		}
	}
	if reused == 0 {
		t.Fatal("no session was reused after an abort: the test checked nothing")
	}
	res, err := e.Query("SELECT COUNT(*) FROM counter")
	must(t, err)
	if n := res.Rows[0][0].Int(); n != 3*rounds {
		t.Fatalf("counter holds %d rows, want the %d committed", n, 3*rounds)
	}
}

// TestMPLegParksBusyWorker: a leg that finds its worker running a
// transaction is queued behind it and parks the worker when the worker
// reaches it. No fragment runs before the transaction ahead has finished;
// then the leg runs on the engine the worker handed over and commits.
func TestMPLegParksBusyWorker(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	entered, gate := make(chan struct{}), make(chan struct{})
	must(t, e.RegisterProcedure(&Procedure{Name: "hold", Handler: func(*ProcCtx) error {
		close(entered)
		<-gate
		return nil
	}}))
	must(t, e.Start())
	defer e.Stop()
	held := e.CallAsync("hold")
	<-entered

	before := e.met.Load(metrics.MPLegsParked)
	s, err := e.EnlistMP(1, false)
	must(t, err)
	if parked := e.met.Load(metrics.MPLegsParked) - before; parked != 1 {
		t.Fatalf("a leg on a busy worker parked %d workers, want 1", parked)
	}
	counter := e.ee.Catalog().Relation("counter").Table
	ran := make(chan error, 1)
	go func() {
		_, err := s.Exec("INSERT INTO counter (id, n) VALUES (1, 1)")
		ran <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case <-ran:
		t.Fatal("a fragment ran while the worker was busy ahead of the leg")
	default:
	}
	if n := counter.Count(); n != 0 {
		t.Fatalf("the fragment inserted %d rows before the worker reached the leg", n)
	}
	close(gate)
	if cr := <-held; cr.Err != nil {
		t.Fatal(cr.Err)
	}
	must(t, <-ran)
	must(t, s.Prepare())
	s.Decide(true)
	s.Release()
	e.Drain()
	res, err := e.Query("SELECT n FROM counter WHERE id = 1")
	must(t, err)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("counter = %v, want the leg's row", res.Rows)
	}
}

// TestMPLentEngineHoldsDrainAndStop: while a leg holds an idle worker's
// engine, the worker counts as busy: Drain waits for the engine to come
// back, and so does Stop, whose worker must not exit with the engine out.
func TestMPLentEngineHoldsDrainAndStop(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.Start())
	e.Drain()
	before := e.met.Load(metrics.MPLegsParked)
	s, err := e.EnlistMP(1, false)
	must(t, err)
	if e.met.Load(metrics.MPLegsParked) != before {
		t.Fatal("a leg on an idle worker parked it")
	}
	// waitFor waits, in steps, until cond holds on the scheduler, then
	// gives the worker its chances to run.
	waitFor := func(cond func() bool) {
		for {
			e.sched.mu.Lock()
			ok := cond()
			e.sched.mu.Unlock()
			if ok {
				break
			}
			runtime.Gosched()
		}
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
	}
	drained, stopped := make(chan struct{}), make(chan struct{})
	go func() { e.Drain(); close(drained) }()
	waitFor(func() bool { return e.sched.drainWaiters == 1 })
	select {
	case <-drained:
		t.Fatal("Drain returned while the engine was lent")
	default:
	}
	go func() { e.Stop(); close(stopped) }()
	waitFor(func() bool { return e.sched.closed })
	select {
	case <-drained:
		t.Fatal("Drain returned on Stop while the engine was lent")
	case <-stopped:
		t.Fatal("Stop returned while the engine was lent")
	default:
	}
	_, err = s.Exec("INSERT INTO counter (id, n) VALUES (1, 1)")
	must(t, err)
	must(t, s.Prepare())
	s.Decide(true)
	s.Release()
	<-drained
	<-stopped
	if n := e.ee.Catalog().Relation("counter").Table.Count(); n != 1 {
		t.Fatalf("the leg committed %d rows, want 1", n)
	}
}
