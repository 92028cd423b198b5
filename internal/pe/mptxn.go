package pe

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ee"
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
// Durability follows presumed-abort 2PC, pipelined: the worker never
// writes the log. Prepare is a rendezvous that hands the leg's
// re-executable write ops back to the coordinator, which appends the
// PREPARE record (and later the DECIDE marker) itself and waits for the
// fsyncs only after this worker is released — the coordinator gates the
// client acknowledgement on that durability chain, not the worker. The
// worker is freed the moment the commit is delivered to memory. Abort
// writes nothing: recovery treats a PREPARE with no commit decision as
// aborted.

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

// mpReply carries one fragment's result back to the coordinator.
type mpReply struct {
	res *ee.Result
	err error
}

// mpFrag is one unit of work the coordinator sends to the parked worker.
type mpFrag struct {
	fn    func(ectx *ee.ExecCtx) (*ee.Result, error)
	op    *LoggedOp // non-nil: append to the PREPARE record on success
	write bool      // a write fragment disqualifies the read-only release
	reply chan mpReply
}

// prepReply is one partition's PREPARE vote. A readOnly vote means the leg
// wrote nothing and its worker was released at PREPARE — the coordinator
// must not deliver a decision to it.
type prepReply struct {
	err      error
	readOnly bool
	// ops is the leg's logged write set, handed to the coordinator so it
	// can append (and force) the PREPARE record off the partition worker.
	ops []LoggedOp
}

// MPSession is one partition's enlistment in a coordinated transaction.
// All methods are called by the coordinator goroutine, strictly in the
// order fragments → Prepare → Finish (Finish may come at any point after
// enlistment on the abort path). The worker executes everything; the
// session only carries the rendezvous channels.
type MPSession struct {
	e      *Engine
	txnID  uint64
	logged bool

	frags  chan mpFrag
	prep   chan chan prepReply
	decide chan bool
	// published is closed once the delivered decision is reflected in
	// memory (commit sequence published / rollback applied) — the point
	// the coordinator's publication lock must cover; durability acks
	// resolve later through done.
	published chan struct{}
	done      chan CallResult

	prepared bool
	finished bool
	// releasedPrep is set by Prepare when the worker took the read-only
	// release: the leg is done, Deliver must not rendezvous with it.
	releasedPrep bool
	// ops is the leg's logged write set as returned by the PREPARE vote;
	// the coordinator appends it as the leg's PREPARE record.
	ops []LoggedOp
}

// EnlistMP queues this partition's participation in coordinated transaction
// txnID. The worker parks on the session when it reaches the request and
// serves fragments until the decision. With logged set, write fragments are
// recorded and forced to the command log at Prepare; unlogged sessions (ad-
// hoc coordinated writes, which are never command-logged — matching
// single-partition Exec) skip the log entirely and are atomic in memory
// only.
func (e *Engine) EnlistMP(txnID uint64, logged bool) (*MPSession, error) {
	if err := e.errNotStarted(); err != nil {
		return nil, err
	}
	s := &MPSession{
		e:      e,
		txnID:  txnID,
		logged: logged,
		// frags is buffered one deep so the first fragment rides along
		// with the enlistment: the coordinator queues it before the worker
		// even reaches the request, and a woken worker executes
		// enlist + first fragment in one pickup instead of parking on an
		// empty session and waiting for a second rendezvous.
		frags:     make(chan mpFrag, 1),
		prep:      make(chan chan prepReply),
		decide:    make(chan bool),
		published: make(chan struct{}),
		done:      make(chan CallResult, 1),
	}
	r := &txnRequest{kind: reqMP, mp: s, done: s.done}
	if !e.sched.push(r) {
		return nil, fmt.Errorf("pe: engine stopped")
	}
	return s, nil
}

// run sends one fragment to the parked worker and waits for its result.
func (s *MPSession) run(f mpFrag) (*Result, error) {
	f.reply = make(chan mpReply, 1)
	s.frags <- f
	rep := <-f.reply
	if rep.err != nil {
		return nil, rep.err
	}
	out := &Result{}
	if rep.res != nil {
		out.Columns = rep.res.Columns
		out.Rows = rep.res.Rows
		out.RowsAffected = rep.res.RowsAffected
	}
	return out, nil
}

// Exec runs one SQL statement inside the leg's transaction context. On a
// logged session the statement (with its concrete parameters) becomes part
// of the PREPARE record, so it must be a write whose re-execution is
// deterministic — which concrete-parameter DML is.
func (s *MPSession) Exec(sqlText string, params ...types.Value) (*Result, error) {
	var op *LoggedOp
	if s.logged {
		op = &LoggedOp{SQL: sqlText, Params: params}
	}
	return s.run(mpFrag{
		fn: func(ectx *ee.ExecCtx) (*ee.Result, error) {
			return s.e.ee.ExecSQL(ectx, sqlText, params...)
		},
		op:    op,
		write: true,
	})
}

// Query runs a read inside the leg's transaction context (it sees the
// leg's own uncommitted writes). Reads are never logged.
func (s *MPSession) Query(sqlText string, params ...types.Value) (*Result, error) {
	p, err := s.e.ee.PrepareCached(sqlText)
	if err != nil {
		return nil, err
	}
	return s.QueryPlan(p, params...)
}

// QueryPlan is Query of a plan the caller got from this partition's
// execution engine (the router's door for a leg it built the tree of).
func (s *MPSession) QueryPlan(p *ee.Prepared, params ...types.Value) (*Result, error) {
	return s.run(mpFrag{
		fn: func(ectx *ee.ExecCtx) (*ee.Result, error) {
			return s.e.ee.Execute(ectx, p, params...)
		},
	})
}

// InsertRows inserts a pre-evaluated row batch into a relation inside the
// leg — the router's coordinated INSERT form, which avoids re-serializing
// values (timestamps have no SQL literal) and reuses the engine's
// default/NOT NULL/coercion checks.
func (s *MPSession) InsertRows(table string, rows []types.Row) (*Result, error) {
	var op *LoggedOp
	if s.logged {
		op = &LoggedOp{Table: table, Rows: rows}
	}
	return s.run(mpFrag{
		fn: func(ectx *ee.ExecCtx) (*ee.Result, error) {
			n, err := s.e.ee.InsertRows(ectx, table, rows)
			if err != nil {
				return nil, err
			}
			return &ee.Result{RowsAffected: n}, nil
		},
		op:    op,
		write: true,
	})
}

// Prepare ends the fragment phase and returns this partition's vote. A
// nil vote means the leg is ready to commit; its logged write set is then
// available through LoggedOps for the coordinator to append as the leg's
// PREPARE record (the worker does not log it — appending and forcing the
// vote is coordinator work, off the partition's serial slot). A non-nil
// vote obliges the coordinator to abort. A leg that wrote nothing takes
// the read-only 2PC optimization: it votes yes with no ops and its worker
// is released immediately — no PREPARE record, no DECIDE, and Deliver
// becomes a no-op for it. Writing legs keep their worker parked, waiting
// for Finish.
func (s *MPSession) Prepare() error {
	if s.prepared || s.finished {
		return fmt.Errorf("pe: mp session already prepared")
	}
	s.prepared = true
	ch := make(chan prepReply, 1)
	s.prep <- ch
	rep := <-ch
	if rep.readOnly {
		s.releasedPrep = true
	}
	s.ops = rep.ops
	return rep.err
}

// LoggedOps returns the leg's logged write set — valid after a successful
// Prepare. Nil for read-only, unlogged, or not-yet-prepared sessions. The
// coordinator appends these as the leg's PREPARE record before delivering
// the commit decision.
func (s *MPSession) LoggedOps() []LoggedOp { return s.ops }

// Finish delivers the coordinator's decision and waits for the leg's
// worker to wind down: on commit, after the effects publish (durability is
// the coordinator's to settle afterwards); on abort, after the undo log is
// rolled back. Finish is valid at any time after enlistment — aborting
// mid-fragment-phase is the error path. It is Deliver followed by Resolve;
// the coordinator calls the halves separately so its publication lock
// covers only the in-memory window.
func (s *MPSession) Finish(commit bool) error {
	if err := s.Deliver(commit); err != nil {
		return err
	}
	return s.Resolve()
}

// Deliver sends the decision to the parked worker and returns once the
// leg's in-memory state reflects it — the commit sequence published (or
// the rollback applied). Durability has not necessarily happened yet;
// Resolve waits for that. A leg released at PREPARE (read-only
// optimization) has no parked worker anymore: Deliver is a no-op for it.
func (s *MPSession) Deliver(commit bool) error {
	if s.finished {
		return fmt.Errorf("pe: mp session already finished")
	}
	s.finished = true
	if s.releasedPrep {
		return nil
	}
	s.decide <- commit
	<-s.published
	return nil
}

// Resolve waits for the worker's completion acknowledgement — sent as the
// worker unparks, right after the delivered decision is reflected in
// memory. It carries execution errors only; durability is settled by the
// coordinator after the slots release.
func (s *MPSession) Resolve() error {
	cr := <-s.done
	return cr.Err
}

// ReleasedAtPrepare reports whether this leg took the read-only release:
// it wrote nothing, voted yes, and freed its worker at PREPARE. Meaningful
// after Prepare returned.
func (s *MPSession) ReleasedAtPrepare() bool { return s.releasedPrep }

// executeMP is the worker side of the barrier: it parks on the session,
// serving fragments in its own serial slot, then resolves the decision.
// Runs on the partition goroutine.
func (e *Engine) executeMP(r *txnRequest) {
	s := r.mp
	start := time.Now()
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
	// Only logged (application-level) transactions drive workflows: they
	// are procedure-like, and their replay re-derives the triggered work.
	// Unlogged ad-hoc legs match single-partition ad-hoc Exec, which never
	// fires PE triggers — the same statement must not behave differently
	// just because its tuples happened to span partitions.
	if s.logged {
		ectx.OnStreamInsert = e.onEmit
	}
	var ops []LoggedOp
	wrote := false
	for {
		select {
		case f := <-s.frags:
			res, err := f.fn(ectx)
			if err == nil && f.op != nil {
				ops = append(ops, *f.op)
			}
			if f.write {
				// Even a failed write disqualifies the read-only release:
				// it may have left undo entries the abort path must roll
				// back on this worker.
				wrote = true
			}
			f.reply <- mpReply{res: res, err: err}
		case reply := <-s.prep:
			if !wrote {
				// Read-only 2PC optimization: the leg has nothing to
				// force and nothing to roll back — vote yes, skip the
				// PREPARE force and the DECIDE marker entirely, and free
				// the partition's serial slot one full phase early.
				reply <- prepReply{readOnly: true}
				e.met.MPReadOnlyLegs.Add(1)
				e.met.ObserveLatency(time.Since(start))
				r.respond(nil, nil)
				return
			}
			// The vote hands the leg's logged ops to the coordinator, which
			// appends the PREPARE record itself (the worker stays parked
			// until the decision, so nothing else can slip a record into
			// this partition's log ahead of it). Durability of the vote is
			// the coordinator's to wait for — off this worker, off the
			// partition's serial slot.
			reply <- prepReply{ops: ops}
		case commit := <-s.decide:
			if !commit {
				undo.Rollback()
				close(s.published) // nothing published; unblock Deliver
				e.met.TxnAborted.Add(1)
				r.respond(nil, nil)
				return
			}
			// The coordinator delivers commit only after every leg's
			// PREPARE record is appended (though not necessarily durable
			// yet — the coordinator waits for the forces after this worker
			// is freed, and gates the client ack on them). The leg's
			// effects publish and the worker frees immediately; the DECIDE
			// marker is likewise the coordinator's to append once the
			// decision itself is durable.
			e.commitPublish()
			close(s.published) // in-memory commit visible; acks may lag
			e.met.TxnCommitted.Add(1)
			e.met.MPLegsCommitted.Add(1)
			e.dispatchEmits(0, r.origin, r.replay)
			e.met.ObserveLatency(time.Since(start))
			r.respond(nil, nil)
			return
		}
	}
}

// replayPreparedLeg re-executes a committed leg's ops (a reqLeg request)
// during recovery. The transaction committed before the crash, so the ops
// must re-apply cleanly; an error fails recovery loudly rather than
// diverging. Stream emissions re-derive their triggered descendants exactly
// like the live commit path: dispatchEmits queues them, and the runChain
// that called this runs them.
func (e *Engine) replayPreparedLeg(r *txnRequest) {
	ectx, undo := e.beginTE(), e.undo
	ectx.OnStreamInsert = e.onEmit
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
	e.dispatchEmits(0, time.Time{}, true)
	r.respond(nil, nil)
}

// dispatchEmits turns the committed execution's stream emissions (e.emits)
// into downstream transaction executions (PE triggers) — shared by the
// local and multi-partition commit paths, live and in replay. Each batch
// and its ids are copied into the request that carries them: it runs
// after this TE's memory has been reused. The requests join the worker's
// chain, which runChain runs before the next request; each counts in its
// graph's in-flight total from here. origin is the chain root's admission
// time, inherited by descendants for end-to-end latency accounting. A
// replayed record under LogAllTEs dispatches nothing: its descendants are
// log records of their own. The returned count is the descendants this
// execution's chain continues into — zero means the chain ends here.
func (e *Engine) dispatchEmits(batchID uint64, origin time.Time, replay bool) int {
	if replay && e.logMode == LogAllTEs {
		return 0
	}
	continued := 0
	for i := range e.emits {
		em := &e.emits[i]
		e.ingestMu.Lock()
		b := e.bindings[strings.ToLower(em.stream)]
		e.ingestMu.Unlock()
		if b == nil {
			continue
		}
		tr := e.newTriggered()
		tr.proc = b.proc
		tr.batch = append(tr.batch, em.rows...)
		tr.batchID = batchID
		tr.inputStream = em.stream
		tr.gcIDs = append(tr.gcIDs, em.ids...)
		tr.origin = origin
		tr.stats = b.stats
		tr.graph = b.graph
		tr.replay = replay
		e.graphTakeoff(tr.graph)
		e.chain = append(e.chain, tr)
		continued++
	}
	return continued
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
