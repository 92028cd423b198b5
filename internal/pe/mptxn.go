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
// (internal/core) drives. The partition worker parks on the session from
// enlistment until the decision, so the leg occupies the partition's serial
// slot exactly like any local transaction — no other execution can observe
// or interleave with its uncommitted writes. The paper's per-partition
// serializability is preserved: a multi-partition transaction is one entry
// in every participant's serial history.
//
// The coordinator talks to the parked worker through one ordered inbox:
// fragments, the PREPARE vote request and the decision are queued on it and
// served in the order they were queued, each answered in place. A write
// fragment that fails turns the leg's vote into a veto carrying its error,
// so the coordinator can queue a leg's fragments and its vote back to back
// and wait once: enlistment, fragments and vote ride one worker pickup, the
// decision is the second.
//
// Durability follows presumed-abort 2PC, pipelined: the worker never
// writes the log. The vote hands the leg's re-executable write ops back to
// the coordinator, which appends the PREPARE record (and later the DECIDE
// marker) itself and waits for the fsyncs only after this worker is
// released — the coordinator gates the client acknowledgement on that
// durability chain, not the worker. The worker is freed the moment the
// commit is delivered to memory. Abort writes nothing: recovery treats a
// PREPARE with no commit decision as aborted.

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

// mpKind tags one entry of a leg's inbox.
type mpKind uint8

const (
	mpInsert mpKind = iota // row batch into a relation (a write)
	mpExec                 // SQL statement with its parameters (a write)
	mpQuery                // planned read
	mpEnter                // nothing: answered once the worker serves the leg
	mpVote                 // PREPARE: end the fragment phase and vote
	mpDecide               // the coordinator's decision
)

// mpMsg is one entry of a leg's inbox. The worker writes its answer into
// the entry and hands the entry back on the session's replies channel.
type mpMsg struct {
	kind mpKind
	// answered is the coordinator's: the entry's reply has been taken.
	answered bool
	commit   bool // mpDecide

	sql    string
	params []types.Value
	plan   *ee.Prepared
	table  string
	rows   []types.Row

	// The answer, written by the worker before it hands the entry back: a
	// fragment's count and, for a statement that returns rows, its columns
	// and a copy of its rows (runFragment).
	n        int
	cols     []string
	out      []types.Row
	err      error
	readOnly bool       // mpVote: the leg wrote nothing and was released
	ops      []LoggedOp // mpVote: the leg's logged write set
}

// mpWindow bounds the entries a coordinator may have queued on one leg
// without taking their replies. Both channels hold that many, so the worker
// never blocks handing a reply back, and a coordinator that would exceed
// the window takes the oldest reply first.
const mpWindow = 8

// mpInlineFrags is how many fragment entries a session carries inline; a
// leg queued more takes the rest from the heap. A router leg queues one.
const mpInlineFrags = 4

// errFragmentPhaseOver answers a fragment queued after the leg's vote or
// decision: the worker may have left the leg, so nothing would serve it.
var errFragmentPhaseOver = errors.New("pe: mp fragment queued after the leg's vote or decision")

// MPSession is one partition's enlistment in a coordinated transaction.
// The coordinator queues fragments, then the vote request, then the
// decision (which may come at any point after enlistment on the abort
// path); the worker executes everything. The coordinator side may be used
// from several goroutines.
//
// A session is recycled: its channels, its vote, decision and inline
// fragment entries and the request that parks the worker on it are used
// again by a later enlistment. Two parties hold it, the worker until it has
// finished with the request (Engine.recycle) and the coordinator until
// Resolve returns; the last one out empties it and returns it to
// mpSessions. Neither touches it, nor a Frag of it, after letting go.
type MPSession struct {
	e     *Engine
	txnID uint64
	adHoc bool // a router leg, an ad-hoc write's share: it fires no PE trigger

	inbox   chan *mpMsg
	replies chan *mpMsg
	done    chan struct{} // the worker has left the leg
	req     txnRequest    // the leg's entry in the worker's queue
	refs    atomic.Int32  // holders left: worker and coordinator

	mu     sync.Mutex // the coordinator side below
	queued int        // entries queued whose reply has not been taken
	vote   mpMsg
	decide mpMsg
	frags  [mpInlineFrags]mpMsg
	nfrags int // inline entries in use

	voteSent bool
	finished bool
	// releasedPrep is set when the vote took the read-only release: the
	// leg is done and no decision may be queued to it.
	releasedPrep bool
}

// mpSessions holds emptied sessions, channels included, for EnlistMP.
var mpSessions = sync.Pool{New: func() any {
	return &MPSession{
		inbox:   make(chan *mpMsg, mpWindow),
		replies: make(chan *mpMsg, mpWindow),
		done:    make(chan struct{}, 1),
	}
}}

// release lets go of the session for one of its two holders. The last one
// out empties it — both channels are drained by then: every entry queued
// was served and every reply taken — and returns it to mpSessions.
func (s *MPSession) release() {
	if s.refs.Add(-1) == 0 {
		*s = MPSession{inbox: s.inbox, replies: s.replies, done: s.done}
		mpSessions.Put(s)
	}
}

// EnlistMP queues this partition's participation in coordinated transaction
// txnID. The worker parks on the session when it reaches the request and
// serves its inbox until the decision; entries queued before it gets there
// wait in the inbox and ride the same pickup. On an engine with a logger,
// write fragments are recorded and handed to the coordinator with the vote.
// adHoc marks a router leg of an ad-hoc write (see MPSession.adHoc).
func (e *Engine) EnlistMP(txnID uint64, adHoc bool) (*MPSession, error) {
	if err := e.errNotStarted(); err != nil {
		return nil, err
	}
	s := mpSessions.Get().(*MPSession)
	s.e, s.txnID, s.adHoc = e, txnID, adHoc
	s.refs.Store(2)
	s.req.kind, s.req.mp, s.req.origin = reqMP, s, Now()
	if !e.sched.push(&s.req) {
		return nil, fmt.Errorf("pe: engine stopped")
	}
	return s, nil
}

// send queues m on the inbox. Caller holds s.mu.
func (s *MPSession) send(m *mpMsg) {
	if s.queued == mpWindow {
		s.e.met.Add(metrics.MPLegWaits, 1)
		s.take()
	}
	s.queued++
	s.inbox <- m
}

// take receives the oldest queued entry's reply. Caller holds s.mu.
func (s *MPSession) take() {
	m := <-s.replies
	m.answered = true
	s.queued--
}

// await takes replies until m's is in: the worker answers in queue order,
// so everything queued before m is answered too. Caller holds s.mu.
func (s *MPSession) await(m *mpMsg) {
	if m.answered {
		return
	}
	s.e.met.Add(metrics.MPLegWaits, 1)
	for !m.answered {
		s.take()
	}
}

// Frag is a fragment queued on a leg. Its result is there once Wait
// returns; a write fragment nobody waits for still counts, because its
// failure vetoes the leg's vote. A Frag is valid until its session's
// coordinator resolves it.
type Frag struct {
	s *MPSession
	m *mpMsg
}

// Wait returns the number of rows the fragment affected, waiting for the
// worker if it has not answered yet.
func (f Frag) Wait() (int, error) {
	f.s.mu.Lock()
	f.s.await(f.m)
	f.s.mu.Unlock()
	return f.m.n, f.m.err
}

// Result is Wait returning the fragment's whole result: its count and the
// columns and rows of a statement that returns rows, which are the
// caller's.
func (f Frag) Result() (*Result, error) {
	n, err := f.Wait()
	if err != nil {
		return nil, err
	}
	return &Result{Columns: f.m.cols, Rows: f.m.out, RowsAffected: n}, nil
}

// queue copies m into an entry, one of the session's inline entries while
// they last, and sends it unless the fragment phase is over.
func (s *MPSession) queue(m mpMsg) Frag {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e *mpMsg
	if s.nfrags < len(s.frags) {
		e = &s.frags[s.nfrags]
		s.nfrags++
	} else {
		e = new(mpMsg)
	}
	*e = m
	if s.voteSent || s.finished {
		e.answered, e.err = true, errFragmentPhaseOver
	} else {
		s.send(e)
	}
	return Frag{s: s, m: e}
}

// SendExec queues one SQL statement to run inside the leg's transaction
// context. The statement (with its concrete parameters) becomes part of
// the PREPARE record, so it must be a write whose re-execution is
// deterministic — which concrete-parameter DML is.
func (s *MPSession) SendExec(sqlText string, params ...types.Value) Frag {
	return s.queue(mpMsg{kind: mpExec, sql: sqlText, params: params})
}

// SendQueryPlan queues a read of a plan the caller got from this
// partition's execution engine. It sees the leg's own uncommitted writes;
// reads are never logged.
func (s *MPSession) SendQueryPlan(p *ee.Prepared, params ...types.Value) Frag {
	return s.queue(mpMsg{kind: mpQuery, plan: p, params: params})
}

// SendEnter queues an entry that does nothing: once it is answered, the
// worker is serving this leg, so everything the partition committed before
// the transaction is published and nothing else commits there until the
// decision.
func (s *MPSession) SendEnter() Frag {
	return s.queue(mpMsg{kind: mpEnter})
}

// SendInsertRows queues a pre-evaluated row batch into a relation — the
// router's coordinated INSERT form, which avoids re-serializing values
// (timestamps have no SQL literal) and reuses the engine's default/NOT
// NULL/coercion checks.
func (s *MPSession) SendInsertRows(table string, rows []types.Row) Frag {
	return s.queue(mpMsg{kind: mpInsert, table: table, rows: rows})
}

// SendPrepare queues the vote request behind every queued fragment. It is
// a no-op once queued, or after the decision.
func (s *MPSession) SendPrepare() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendPrepare()
}

func (s *MPSession) sendPrepare() {
	if s.voteSent || s.finished {
		return
	}
	s.voteSent = true
	s.vote.kind = mpVote
	s.send(&s.vote)
}

// Prepare ends the fragment phase and returns this partition's vote,
// queuing the request first unless SendPrepare did. A nil vote means the
// leg is ready to commit; its logged write set is then available through
// LoggedOps for the coordinator to append as the leg's PREPARE record (the
// worker does not log it — appending and forcing the vote is coordinator
// work, off the partition's serial slot). A non-nil vote obliges the
// coordinator to abort; a failed write fragment makes one that wraps its
// error. A leg that wrote nothing takes the read-only 2PC optimization: it
// votes yes with no ops and its worker is released immediately — no
// PREPARE record, no DECIDE, and no decision is queued to it. Writing legs
// keep their worker parked, waiting for the decision.
func (s *MPSession) Prepare() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished && !s.voteSent {
		return fmt.Errorf("pe: mp session already finished")
	}
	s.sendPrepare()
	s.awaitVote()
	return s.vote.err
}

// awaitVote takes the vote's reply and records a read-only release. Caller
// holds s.mu.
func (s *MPSession) awaitVote() {
	s.await(&s.vote)
	s.releasedPrep = s.vote.readOnly
}

// LoggedOps returns the leg's logged write set — valid after a successful
// Prepare. Nil for read-only or not-yet-prepared legs and on an engine with
// no logger. The coordinator appends these as the leg's PREPARE record
// before delivering the commit decision.
func (s *MPSession) LoggedOps() []LoggedOp { return s.vote.ops }

// SendDecision queues the coordinator's decision. It is valid at any time
// after enlistment — aborting mid-fragment-phase is the error path. A leg
// released at PREPARE (read-only optimization) has no parked worker any
// more: nothing is queued to it.
func (s *MPSession) SendDecision(commit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("pe: mp session already finished")
	}
	s.finished = true
	if s.voteSent {
		// The vote decides whether a worker is still parked to take it.
		s.awaitVote()
	}
	if s.releasedPrep {
		return nil
	}
	s.decide = mpMsg{kind: mpDecide, commit: commit}
	s.send(&s.decide)
	return nil
}

// Published waits until the decision SendDecision queued is reflected in
// the leg's memory — the commit sequence published, or the rollback
// applied. Durability has not necessarily happened yet; the coordinator
// settles it after the slots release. A no-op for a leg released at
// PREPARE.
func (s *MPSession) Published() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished && !s.releasedPrep {
		s.await(&s.decide)
	}
}

// Resolve waits for the worker's completion acknowledgement — sent as the
// worker unparks, right after the delivered decision is reflected in
// memory (or at a read-only release) — and lets go of the session: the
// coordinator must not touch it, or a Frag of it, afterwards. Durability
// is settled by the coordinator after the slots release.
func (s *MPSession) Resolve() {
	<-s.done
	s.release()
}

// executeMP is the worker side of the barrier: it parks on the session,
// serving its inbox in order in its own serial slot, until the vote
// releases a read-only leg or the decision resolves a writing one. It
// reports whether the leg committed (a read-only release counts), with
// r.committed stamped. Runs on the partition goroutine, in its own TE
// state: what a fragment hands back is copied out by runFragment.
func (e *Engine) executeMP(r *txnRequest) bool {
	s := r.mp
	ectx, undo := e.beginTE(), e.undo
	// A router leg fires no PE trigger, like a single-partition Exec: a
	// statement must not behave differently because its tuples span
	// partitions. Application transactions drive workflows.
	if !s.adHoc {
		ectx.OnStreamInsert = e.onEmit
	}
	logged := e.logger != nil // a volatile store's legs collect no ops
	var ops []LoggedOp
	// failed is the leg's first failed write: the vote vetoes with it.
	var failed error
	wrote := false
	for {
		m := <-s.inbox
		switch m.kind {
		case mpVote:
			switch {
			case failed != nil:
				m.err = fmt.Errorf("pe: mp txn %d leg vetoes: %w", s.txnID, failed)
			case !wrote:
				// Read-only 2PC optimization: the leg has nothing to
				// force and nothing to roll back — vote yes, skip the
				// PREPARE force and the DECIDE marker entirely, and free
				// the partition's serial slot one full phase early.
				m.readOnly = true
				s.replies <- m
				r.committed = Now()
				e.met.Add(metrics.MPReadOnlyLegs, 1)
				s.done <- struct{}{}
				return true
			default:
				// The vote hands the leg's logged ops to the coordinator,
				// which appends the PREPARE record itself (the worker stays
				// parked until the decision, so nothing else can slip a
				// record into this partition's log ahead of it). Durability
				// of the vote is the coordinator's to wait for — off this
				// worker, off the partition's serial slot.
				m.ops = ops
			}
			s.replies <- m
		case mpDecide:
			if !m.commit {
				undo.Rollback()
				s.replies <- m // nothing published; the rollback is applied
				e.met.Add(metrics.TxnAborted, 1)
				s.done <- struct{}{}
				return false
			}
			// The coordinator delivers commit only after every leg's
			// PREPARE record is appended (though not necessarily durable
			// yet — the coordinator waits for the forces after this worker
			// is freed, and gates the client ack on them). The leg's
			// effects publish and the worker frees immediately; the DECIDE
			// marker is likewise the coordinator's to append once the
			// decision itself is durable.
			e.commitPublish()
			s.replies <- m // in-memory commit visible; acks may lag
			r.committed = Now()
			e.met.Add(metrics.TxnCommitted, 1)
			e.met.Add(metrics.MPLegsCommitted, 1)
			e.dispatchEmits(0, r.origin, r.replay)
			s.done <- struct{}{}
			return true
		case mpEnter:
			s.replies <- m
		default:
			m.err = e.runFragment(ectx, m)
			if m.kind != mpQuery {
				// Even a failed write disqualifies the read-only release:
				// it may have left undo entries the abort path must roll
				// back on this worker.
				wrote = true
				switch {
				case m.err != nil:
					if failed == nil {
						failed = m.err
					}
				case logged && m.kind == mpInsert:
					ops = append(ops, LoggedOp{Table: m.table, Rows: m.rows})
				case logged:
					ops = append(ops, LoggedOp{SQL: m.sql, Params: m.params})
				}
			}
			s.replies <- m
		}
	}
}

// runFragment executes one fragment in the leg's context and writes its
// answer into m. That context is the worker's, reset at its next TE while
// the coordinator may still hold the answer, so this is a door of its own,
// beside ownResult: a statement's rows are copied out, a row batch's count
// is all it answers.
func (e *Engine) runFragment(ectx *ee.ExecCtx, m *mpMsg) error {
	var res *ee.Result
	var err error
	switch m.kind {
	case mpInsert:
		m.n, err = e.ee.InsertRows(ectx, m.table, m.rows)
		return err
	case mpExec:
		res, err = e.ee.ExecSQL(ectx, m.sql, m.params...)
	default:
		res, err = e.ee.Execute(ectx, m.plan, m.params...)
	}
	if err != nil {
		return err
	}
	m.n, m.cols, m.out = res.RowsAffected, res.Columns, types.CloneRows(res.Rows)
	return nil
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
