package pe

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

// This file is one partition's side of a two-phase-commit transaction: the
// prepare/commit/abort barrier the cross-partition coordinator
// (internal/core) drives. A leg holds its partition's serial slot from
// enlistment until the decision, like any local transaction, so nothing
// else executes there or sees its uncommitted writes, and the paper's
// per-partition serializability holds with the multi-partition transaction
// as one entry in every participant's serial history.
//
// The leg runs on the coordinator's goroutine, on the partition's engine.
// An idle worker with nothing queued lends its engine (scheduler.lend) and
// sleeps on; a busy one is queued the leg's request and, when it reaches
// it, hands the engine over and blocks until the engine comes back. The
// coordinator runs the fragments, the vote and the decision, then hands
// the engine back without waiting, with the chain the leg's commit
// triggered: the worker runs that chain before its next request. The
// scheduler's mutex or the hand-off channels order the worker's use of the
// engine before the coordinator's and after.
//
// A leg never writes the log. The vote hands the leg's re-executable write
// ops to the coordinator, which appends every leg's ops as one record
// itself and waits for its fsync after the engine has gone back. Abort
// writes nothing.

// LoggedOp is one re-executable write of a prepared leg, in one of two
// forms: an ad-hoc SQL statement with its parameters, or a raw row batch
// into a relation (the router's coordinated INSERT legs). Replay executes
// the ops in order to reconstruct a committed leg.
type LoggedOp struct {
	SQL    string // statement form (empty for the row-batch form)
	Params []types.Value
	Table  string // row-batch form: target relation
	Rows   []types.Row
}

// errFragmentPhaseOver answers a fragment run after the leg's vote or
// decision.
var errFragmentPhaseOver = errors.New("pe: mp fragment after the leg's vote or decision")

// MPSession is one partition's enlistment in a coordinated transaction.
// The coordinator runs fragments on it, then the vote (Prepare), then the
// decision (Decide, which may come at any point after enlistment on the
// abort path), and lets go of it with Release. Its methods may be called
// from several goroutines.
//
// A session is recycled. Two parties may hold it: the coordinator until
// Release returns, and, for a leg that parked its worker, the worker until
// it has finished with the request (Engine.recycle). The last one out
// empties it and returns it to mpSessions.
type MPSession struct {
	e     *Engine
	txnID uint64
	adHoc bool // a router leg, an ad-hoc write's share: it fires no PE trigger

	// A leg that found its worker busy parks it: req is queued, and the
	// worker hands the engine over on handed and waits on back for it.
	parked bool
	req    txnRequest
	handed chan struct{}
	back   chan struct{}
	refs   atomic.Int32 // holders left

	mu      sync.Mutex // the coordinator side below
	held    bool       // the coordinator holds the engine
	over    bool       // the engine has gone back
	ops     []LoggedOp // the logged writes the vote hands over
	failed  error      // the first failed write: the vote vetoes with it
	wrote   bool
	voted   bool
	decided bool
	commit  bool
}

// mpSessions holds emptied sessions, channels included, for EnlistMP.
var mpSessions = sync.Pool{New: func() any {
	return &MPSession{handed: make(chan struct{}, 1), back: make(chan struct{}, 1)}
}}

// release lets go of the session for one of its holders. The last one out
// empties it and returns it to mpSessions.
func (s *MPSession) release() {
	if s.refs.Add(-1) == 0 {
		*s = MPSession{handed: s.handed, back: s.back}
		mpSessions.Put(s)
	}
}

// EnlistMP enlists this partition in coordinated transaction txnID. If the
// worker is asleep with nothing queued, its engine is lent to the session
// at once; otherwise the worker is queued the leg's request and the
// session's first use waits until the worker reaches it and hands the
// engine over (mp_legs_parked counts these). On an engine with a logger,
// write fragments are recorded and handed to the coordinator with the
// vote. adHoc marks a router leg of an ad-hoc write (see MPSession.adHoc).
func (e *Engine) EnlistMP(txnID uint64, adHoc bool) (*MPSession, error) {
	if err := e.errNotStarted(); err != nil {
		return nil, err
	}
	s := mpSessions.Get().(*MPSession)
	s.e, s.txnID, s.adHoc = e, txnID, adHoc
	s.req.kind, s.req.mp, s.req.origin = reqMP, s, Now()
	if e.sched.lend() {
		s.refs.Store(1)
		s.req.started = s.req.origin
		s.hold()
		return s, nil
	}
	s.refs.Store(2)
	s.parked = true
	if !e.sched.push(&s.req) {
		return nil, fmt.Errorf("pe: engine stopped")
	}
	e.met.Add(metrics.MPLegsParked, 1)
	return s, nil
}

// hold takes the engine for the leg, waiting for a parked worker to hand
// it over, and readies its transaction state. Caller holds s.mu (or is
// EnlistMP, before anyone else has the session).
func (s *MPSession) hold() {
	if s.held {
		return
	}
	if s.parked {
		<-s.handed
	}
	s.held = true
	ectx := s.e.beginTE()
	// A router leg fires no PE trigger, like a single-partition Exec: a
	// statement must not behave differently because its tuples span
	// partitions. Application transactions drive workflows.
	if !s.adHoc {
		ectx.OnStreamInsert = s.e.onEmit
	}
}

// begin holds the engine for a fragment. Caller holds s.mu.
func (s *MPSession) begin() (*ee.ExecCtx, error) {
	if s.voted || s.decided {
		return nil, errFragmentPhaseOver
	}
	s.hold()
	return &s.e.ectx, nil
}

// noteWrite notes a write fragment's outcome: even a failed write disqualifies
// the read-only release (it may have left undo entries the abort must roll
// back), and the first failure turns the vote into a veto. Caller holds
// s.mu.
func (s *MPSession) noteWrite(err error, op LoggedOp) {
	s.wrote = true
	switch {
	case err != nil:
		if s.failed == nil {
			s.failed = err
		}
	case s.e.logger != nil: // a volatile store's legs collect no ops
		s.ops = append(s.ops, op)
	}
}

// Enter holds the engine: once it returns, everything the partition
// committed before the transaction is published and nothing else commits
// there until the decision.
func (s *MPSession) Enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.begin()
	return err
}

// Exec runs one SQL statement inside the leg's transaction; the rows of a
// statement that returns rows are the caller's. The statement (with its
// concrete parameters) becomes part of the commit record, so it must be a
// write whose re-execution is deterministic — which concrete-parameter DML
// is.
func (s *MPSession) Exec(sqlText string, params ...types.Value) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ectx, err := s.begin()
	if err != nil {
		return nil, err
	}
	res, err := s.e.ee.ExecSQL(ectx, sqlText, params...)
	s.noteWrite(err, LoggedOp{SQL: sqlText, Params: params})
	if err != nil {
		return nil, err
	}
	return ownResult(res), nil
}

// InsertRows inserts a pre-evaluated row batch into a relation — the
// router's coordinated INSERT form, which avoids re-serializing values
// (timestamps have no SQL literal) and reuses the engine's default/NOT
// NULL/coercion checks — and returns the rows inserted.
func (s *MPSession) InsertRows(table string, rows []types.Row) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ectx, err := s.begin()
	if err != nil {
		return 0, err
	}
	n, err := s.e.ee.InsertRows(ectx, table, rows)
	s.noteWrite(err, LoggedOp{Table: table, Rows: rows})
	return n, err
}

// QueryPlan runs a read of a plan the caller got from this partition's
// execution engine. It sees the leg's own uncommitted writes; reads are
// never logged. The rows are the caller's.
func (s *MPSession) QueryPlan(p *ee.Prepared, params ...types.Value) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ectx, err := s.begin()
	if err != nil {
		return nil, err
	}
	res, err := s.e.ee.Execute(ectx, p, params...)
	if err != nil {
		return nil, err
	}
	return ownResult(res), nil
}

// Prepare ends the fragment phase and returns this partition's vote. A nil
// vote means the leg is ready to commit; its logged write set is then
// available through LoggedOps for the coordinator to log as the leg's share
// of the commit record. A non-nil vote obliges the coordinator to abort; a
// failed write makes one that wraps its error. A leg that wrote nothing
// takes the read-only 2PC optimization: it votes yes with no ops and its
// engine goes back at once — nothing logged, and Decide does nothing.
func (s *MPSession) Prepare() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.decided && !s.voted {
		return fmt.Errorf("pe: mp session already finished")
	}
	if !s.voted {
		s.voted = true
		if s.failed != nil {
			s.failed = fmt.Errorf("pe: mp txn %d leg vetoes: %w", s.txnID, s.failed)
		} else if !s.wrote {
			s.hold()
			s.decided, s.commit = true, true
			s.req.committed = Now()
			s.e.met.Add(metrics.MPReadOnlyLegs, 1)
			s.giveBack()
		}
	}
	return s.failed
}

// LoggedOps returns the leg's logged write set — valid after a successful
// Prepare. Nil for read-only or not-yet-prepared legs and on an engine with
// no logger. The coordinator appends these in the commit record before
// delivering the commit decision.
func (s *MPSession) LoggedOps() []LoggedOp { return s.ops }

// Decide applies the coordinator's decision to the leg's memory: the commit
// published (the coordinator delivers commit only once the commit record
// is appended; it waits for its durability after the engine has gone back,
// and gates the client's ack on it), or the rollback applied. It
// is valid at any time after enlistment — aborting mid-fragment-phase is
// the error path — and a no-op for a leg released at its vote or decided
// already.
func (s *MPSession) Decide(commit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decide(commit)
}

// decide is Decide. Caller holds s.mu.
func (s *MPSession) decide(commit bool) {
	if s.decided {
		return
	}
	s.hold()
	s.decided, s.commit = true, commit
	if !commit {
		s.e.undo.Rollback()
		s.e.met.Add(metrics.TxnAborted, 1)
		return
	}
	s.e.commitPublish()
	s.req.committed = Now()
	s.e.met.Add(metrics.TxnCommitted, 1)
	s.e.met.Add(metrics.MPLegsCommitted, 1)
}

// Release ends the leg, aborting it if it was never decided: the engine
// goes back to its worker, with the triggered work a commit started, and
// the coordinator lets go of the session. Nothing of the session may be
// touched afterwards; the results its fragments returned are the caller's.
func (s *MPSession) Release() {
	s.mu.Lock()
	if !s.over {
		s.decide(false)
		s.giveBack()
	}
	s.mu.Unlock()
	s.release()
}

// giveBack hands the engine back to its worker without waiting for it: a
// committed leg's stream emissions become triggered executions in the
// worker's chain, which the worker runs before its next request. A lent
// leg observes its execution here; a parked worker observes it itself.
// Caller holds s.mu and the engine.
func (s *MPSession) giveBack() {
	e, r := s.e, &s.req
	if s.commit {
		e.dispatchEmits(0, r.origin, false)
	}
	s.held, s.over = false, true
	if s.parked {
		s.back <- struct{}{}
		return
	}
	if s.commit {
		e.observe(r, r.committed)
	}
	e.sched.giveBack(len(e.chain) > 0)
}

// executeMP is the worker's side of a parked leg: it hands the engine to
// the coordinator and waits until the engine comes back with the leg
// decided. It reports whether the leg committed (a read-only release
// counts), with r.committed stamped.
func (e *Engine) executeMP(r *txnRequest) bool {
	r.mp.handed <- struct{}{}
	<-r.mp.back
	return r.committed != 0
}

// replayPreparedLeg re-executes a committed leg's ops (a reqLeg request)
// during recovery. The transaction committed before the crash, so the ops
// must re-apply cleanly; an error fails recovery loudly rather than
// diverging. Stream emissions re-derive their triggered descendants exactly
// like the live commit path: dispatchEmits queues them, and the runChain
// that called this runs them. A router leg, a slot migration's and a
// seed's (their records name AdHocProc) fire no PE trigger here either.
func (e *Engine) replayPreparedLeg(r *txnRequest) {
	ectx, undo := e.beginTE(), e.undo
	if r.proc != adHoc {
		ectx.OnStreamInsert = e.onEmit
	}
	for _, op := range r.ops {
		var err error
		if op.Table != "" {
			_, err = e.ee.InsertRows(ectx, op.Table, op.Rows)
		} else {
			_, err = e.ee.ExecSQL(ectx, op.SQL, op.Params...)
		}
		if err != nil {
			undo.Rollback()
			r.respond(nil, err)
			return
		}
	}
	e.commitPublish()
	e.dispatchEmits(0, 0, true)
	r.respond(nil, nil)
}

// dispatchEmits turns the committed execution's stream emissions (e.emits)
// into downstream transaction executions (PE triggers) — shared by the
// local and multi-partition commit paths, live and in replay. Each batch
// and its ids are copied into the request that carries them: it runs
// after this TE's memory has been reused. origin is the chain root's
// admission time, inherited by descendants for end-to-end latency
// accounting. The returned count is the descendants this execution's chain
// continues into — zero means the chain ends here.
func (e *Engine) dispatchEmits(batchID uint64, origin Stamp, replay bool) int {
	continued := 0
	for i := range e.emits {
		em := &e.emits[i]
		e.ingestMu.Lock()
		b := e.bindings[strings.ToLower(em.stream)]
		e.ingestMu.Unlock()
		if b == nil {
			continue
		}
		e.trigger(b, em.stream, em.rows, em.ids, batchID, origin, replay)
		continued++
	}
	return continued
}

// trigger places one execution of b's procedure over rows, the tuples ids
// of stream: in the worker's chain, which runChain runs before the next
// request, or, when replay re-derives it under LogAllTEs, where a
// descendant is a log record of its own, held until that record arrives
// (Replay) or replay finishes (FinishReplay). It counts in its graph's
// in-flight total from here.
func (e *Engine) trigger(b *binding, stream string, rows []types.Row, ids []storage.RowID, batchID uint64, origin Stamp, replay bool) {
	tr := e.newTriggered()
	tr.proc = b.proc
	tr.batch = append(tr.batch, rows...)
	tr.batchID = batchID
	tr.inputStream = stream
	tr.gcIDs = append(tr.gcIDs, ids...)
	tr.origin = origin
	tr.stats = b.stats
	tr.graph = b.graph
	tr.replay = replay
	e.graphTakeoff(tr.graph)
	if replay && e.logMode == LogAllTEs {
		e.held = append(e.held, tr)
	} else {
		e.chain = append(e.chain, tr)
	}
}

// newTriggered returns an empty reqTriggered request, a recycled one when
// the worker has one. Its batch and gcIDs are empty buffers to append to.
func (e *Engine) newTriggered() *txnRequest {
	if n := len(e.freeReqs); n > 0 {
		tr := e.freeReqs[n-1]
		e.freeReqs[n-1] = nil
		e.freeReqs = e.freeReqs[:n-1]
		return tr
	}
	return &txnRequest{kind: reqTriggered, recycle: true}
}

// recycle takes an executed request back for newTriggered. Only the worker
// calls it, after executeRequest: nothing refers to a triggered request
// once it has run (it has no responder, so it never reaches the acker).
// An MP leg's request is its session's, and the worker lets go of the
// session here, the last it touches either.
func (e *Engine) recycle(r *txnRequest) {
	if r.kind == reqMP {
		r.mp.release()
		return
	}
	if !r.recycle || len(e.freeReqs) == freeReqsMax {
		return
	}
	*r = txnRequest{kind: reqTriggered, recycle: true, batch: retained(r.batch), gcIDs: retained(r.gcIDs)}
	e.freeReqs = append(e.freeReqs, r)
}
