package pe

import (
	"errors"
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
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("fragment %d affected %d rows, want 1", i, res.RowsAffected)
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
	must(t, s.Resolve())
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
	must(t, s.Resolve())
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
