package pe

import (
	"fmt"
	"strings"
	"sync"

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

	// The answer, written by the worker before it hands the entry back.
	res      *ee.Result
	err      error
	readOnly bool       // mpVote: the leg wrote nothing and was released
	ops      []LoggedOp // mpVote: the leg's logged write set
}

// mpWindow bounds the entries a coordinator may have queued on one leg
// without taking their replies. Both channels hold that many, so the worker
// never blocks handing a reply back, and a coordinator that would exceed
// the window takes the oldest reply first.
const mpWindow = 8

// MPSession is one partition's enlistment in a coordinated transaction.
// The coordinator queues fragments, then the vote request, then the
// decision (which may come at any point after enlistment on the abort
// path); the worker executes everything. The coordinator side may be used
// from several goroutines.
type MPSession struct {
	e     *Engine
	txnID uint64
	adHoc bool // a router leg, an ad-hoc write's share: it fires no PE trigger

	inbox   chan *mpMsg
	replies chan *mpMsg
	done    chan CallResult

	mu     sync.Mutex // the coordinator side below
	queued int        // entries queued whose reply has not been taken
	vote   mpMsg
	decide mpMsg

	voteSent bool
	finished bool
	// releasedPrep is set when the vote took the read-only release: the
	// leg is done and no decision may be queued to it.
	releasedPrep bool
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
	s := &MPSession{
		e:       e,
		txnID:   txnID,
		adHoc:   adHoc,
		inbox:   make(chan *mpMsg, mpWindow),
		replies: make(chan *mpMsg, mpWindow),
		done:    make(chan CallResult, 1),
	}
	r := &txnRequest{kind: reqMP, mp: s, done: s.done, origin: Now()}
	if !e.sched.push(r) {
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
// failure vetoes the leg's vote.
type Frag struct {
	s *MPSession
	m *mpMsg
}

// Wait returns the fragment's result, waiting for the worker if it has not
// answered yet.
func (f Frag) Wait() (*Result, error) {
	f.s.mu.Lock()
	f.s.await(f.m)
	f.s.mu.Unlock()
	if f.m.err != nil {
		return nil, f.m.err
	}
	out := &Result{}
	if res := f.m.res; res != nil {
		out.Columns = res.Columns
		out.Rows = res.Rows
		out.RowsAffected = res.RowsAffected
	}
	return out, nil
}

func (s *MPSession) queue(m *mpMsg) Frag {
	s.mu.Lock()
	s.send(m)
	s.mu.Unlock()
	return Frag{s: s, m: m}
}

// SendExec queues one SQL statement to run inside the leg's transaction
// context. The statement (with its concrete parameters) becomes part of
// the PREPARE record, so it must be a write whose re-execution is
// deterministic — which concrete-parameter DML is.
func (s *MPSession) SendExec(sqlText string, params ...types.Value) Frag {
	return s.queue(&mpMsg{kind: mpExec, sql: sqlText, params: params})
}

// SendQueryPlan queues a read of a plan the caller got from this
// partition's execution engine. It sees the leg's own uncommitted writes;
// reads are never logged.
func (s *MPSession) SendQueryPlan(p *ee.Prepared, params ...types.Value) Frag {
	return s.queue(&mpMsg{kind: mpQuery, plan: p, params: params})
}

// SendEnter queues an entry that does nothing: once it is answered, the
// worker is serving this leg, so everything the partition committed before
// the transaction is published and nothing else commits there until the
// decision.
func (s *MPSession) SendEnter() Frag {
	return s.queue(&mpMsg{kind: mpEnter})
}

// SendInsertRows queues a pre-evaluated row batch into a relation — the
// router's coordinated INSERT form, which avoids re-serializing values
// (timestamps have no SQL literal) and reuses the engine's default/NOT
// NULL/coercion checks.
func (s *MPSession) SendInsertRows(table string, rows []types.Row) Frag {
	return s.queue(&mpMsg{kind: mpInsert, table: table, rows: rows})
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
// memory. It carries execution errors only; durability is settled by the
// coordinator after the slots release.
func (s *MPSession) Resolve() error {
	cr := <-s.done
	return cr.Err
}

// executeMP is the worker side of the barrier: it parks on the session,
// serving its inbox in order in its own serial slot, until the vote
// releases a read-only leg or the decision resolves a writing one. It
// reports whether the leg committed (a read-only release counts), with
// r.committed stamped. Runs on the partition goroutine.
func (e *Engine) executeMP(r *txnRequest) bool {
	s := r.mp
	// The worker's undo log and emission list, but a context of the leg's
	// own: fragment results cross to the coordinator's goroutine, which may
	// read them after this worker has moved on, so their memory is never
	// reset, only dropped.
	e.beginTE()
	undo := e.undo
	ectx := &ee.ExecCtx{
		Undo:              undo,
		DisableEETriggers: e.cfg.HStoreMode,
	}
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
				r.respond(nil, nil)
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
				r.respond(nil, nil)
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
			r.respond(nil, nil)
			return true
		case mpEnter:
			s.replies <- m
		default:
			m.res, m.err = e.runFragment(ectx, m)
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

// runFragment executes one fragment in the leg's context.
func (e *Engine) runFragment(ectx *ee.ExecCtx, m *mpMsg) (*ee.Result, error) {
	switch m.kind {
	case mpInsert:
		n, err := e.ee.InsertRows(ectx, m.table, m.rows)
		if err != nil {
			return nil, err
		}
		return &ee.Result{RowsAffected: n}, nil
	case mpExec:
		return e.ee.ExecSQL(ectx, m.sql, m.params...)
	default:
		return e.ee.Execute(ectx, m.plan, m.params...)
	}
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
func (e *Engine) recycle(r *txnRequest) {
	if !r.recycle || len(e.freeReqs) == freeReqsMax {
		return
	}
	*r = txnRequest{kind: reqTriggered, recycle: true, batch: retained(r.batch), gcIDs: retained(r.gcIDs)}
	e.freeReqs = append(e.freeReqs, r)
}
