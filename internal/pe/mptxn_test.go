package pe

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/types"
)

// TestMPLegServesInboxInOrder queues three write fragments and the vote
// request back to back on one leg and waits once: the worker serves them
// in queue order (the arithmetic only comes out right in that order), the
// vote's logged ops list the three statements in order, and every
// fragment's result is in by the time the vote is. (A leg collects its
// ops only on an engine with a logger to append them to.)
func TestMPLegServesInboxInOrder(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	e.SetLogger(loggerFunc(func(*LogRecord) error { return nil }), LogBorderOnly)
	must(t, e.Start())
	defer e.Stop()

	s, err := e.EnlistMP(1, false)
	must(t, err)
	stmts := []string{
		"INSERT INTO counter (id, n) VALUES (?, 1)",
		"UPDATE counter SET n = n * 10 WHERE id = ?",
		"UPDATE counter SET n = n + 3 WHERE id = ?",
	}
	var frags []Frag
	for _, q := range stmts {
		frags = append(frags, s.SendExec(q, types.NewInt(7)))
	}
	s.SendPrepare()
	before := e.met.Load(metrics.MPLegWaits)
	must(t, s.Prepare())
	for i, f := range frags {
		n, err := f.Wait()
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if n != 1 {
			t.Fatalf("fragment %d affected %d rows, want 1", i, n)
		}
	}
	if waits := e.met.Load(metrics.MPLegWaits) - before; waits != 1 {
		t.Fatalf("fragments and vote took %d waits, want 1", waits)
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
	must(t, s.SendDecision(true))
	s.Published()
	s.Resolve()
	res, err := e.Query("SELECT n FROM counter WHERE id = 7")
	must(t, err)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 13 {
		t.Fatalf("counter = %v, want 13 (insert, then *10, then +3)", res.Rows)
	}
}

// TestMPFailedWriteVetoesVote: a write fragment that fails, with nobody
// waiting for its result, turns the leg's vote into a veto that carries its
// error; the abort then rolls back the leg's earlier write.
func TestMPFailedWriteVetoesVote(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.Start())
	defer e.Stop()

	s, err := e.EnlistMP(1, false)
	must(t, err)
	s.SendExec("INSERT INTO counter (id, n) VALUES (1, 1)")
	dup := s.SendExec("INSERT INTO counter (id, n) VALUES (1, 2)")
	vote := s.Prepare()
	if vote == nil {
		t.Fatal("a leg with a failed write voted yes")
	}
	_, fragErr := dup.Wait()
	if fragErr == nil || !strings.Contains(fragErr.Error(), "duplicate key") {
		t.Fatalf("duplicate insert answered %v, want a duplicate key error", fragErr)
	}
	if !errors.Is(vote, fragErr) {
		t.Fatalf("veto %v does not wrap the fragment's error %v", vote, fragErr)
	}
	must(t, s.SendDecision(false))
	s.Published()
	s.Resolve()
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
// that comes back after an aborted leg starts empty — no stale reply,
// vote, decision, fragment entry or completion — whatever shape the abort
// had: the coordinator's rerun after a slot-order violation (fragments
// queued, some never waited for, then the abort decision with no vote), a
// vote vetoed by a failed write, and a read-only leg released at its vote.
// Each reused session then serves a transaction that must come out right.
// The coordinator lets go last here (the worker is drained first), so the
// session goes back to the pool on this goroutine and the next enlistment
// takes it again; a pool that drops some (as under the race detector)
// only makes fewer rounds reuse one.
func TestMPSessionReusedAfterAbortStartsEmpty(t *testing.T) {
	e := newTestPE(t, Config{}, counterDDL)
	must(t, e.Start())
	defer e.Stop()
	read, err := e.ee.PrepareCached("SELECT n FROM counter WHERE id = ?")
	must(t, err)
	aborts := map[string]func(s *MPSession){
		"retry": func(s *MPSession) {
			s.SendExec("INSERT INTO counter (id, n) VALUES (1, 1)")
			s.SendQueryPlan(read, types.NewInt(1))
			if _, err := s.SendExec("UPDATE counter SET n = n + 1 WHERE id = 1").Wait(); err != nil {
				t.Fatal(err)
			}
			s.SendExec("UPDATE counter SET n = n + 1 WHERE id = 1")
			must(t, s.SendDecision(false))
		},
		"veto": func(s *MPSession) {
			s.SendExec("INSERT INTO counter (id, n) VALUES (1, 1)")
			s.SendExec("INSERT INTO counter (id, n) VALUES (1, 2)")
			if s.Prepare() == nil {
				t.Fatal("a leg with a failed write voted yes")
			}
			must(t, s.SendDecision(false))
		},
		"read-only": func(s *MPSession) {
			s.SendQueryPlan(read, types.NewInt(1))
			must(t, s.Prepare())
			must(t, s.SendDecision(false))
		},
	}
	const rounds = 50
	seen := map[*MPSession]bool{}
	reused := 0 // sessions back in the pool right after an abort
	enlist := func() *MPSession {
		s, err := e.EnlistMP(1, false)
		must(t, err)
		seen[s] = true
		return s
	}
	// pooled looks at the session the pool hands out next, before any leg
	// parks a worker on it, and gives it back: one that served an earlier
	// leg must be empty.
	pooled := func(after string) {
		s := mpSessions.Get().(*MPSession)
		defer mpSessions.Put(s)
		if !seen[s] {
			return
		}
		empty := &MPSession{inbox: s.inbox, replies: s.replies, done: s.done}
		if !reflect.DeepEqual(s, empty) || len(s.inbox)+len(s.replies)+len(s.done) != 0 {
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
			s.Published()
			e.Drain() // the worker lets go first
			s.Resolve()
			pooled(shape)

			// The session taken next serves a committing leg correctly.
			s = enlist()
			next++
			ins := s.SendExec("INSERT INTO counter (id, n) VALUES (?, 5)", types.NewInt(next))
			q := s.SendQueryPlan(read, types.NewInt(next))
			must(t, s.Prepare())
			res, err := q.Result()
			must(t, err)
			if n, err := ins.Wait(); err != nil || n != 1 || len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
				t.Fatalf("after a %s abort: insert %d, %v; read %v", shape, n, err, res.Rows)
			}
			must(t, s.SendDecision(true))
			s.Published()
			e.Drain()
			s.Resolve()
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
