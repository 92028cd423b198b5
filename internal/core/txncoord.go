package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ee"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
)

// This file is the cross-partition transaction coordinator: a lightweight
// two-phase-commit protocol over the partition engines' serial-slot
// barrier (pe.MPSession). It is what lifts §4.3's workflow-locality limit:
// a statement batch (or an application handler) that touches several
// partitions executes as ONE atomic transaction instead of being rejected
// by the router.
//
// Concurrency: slot enlistment. Each partition carries one 2PC enlistment
// slot (partition.mpSlot); a coordinator acquires the slots of exactly the
// partitions its legs touch and holds each from enlistment until the
// decision is delivered. Transactions over disjoint partition sets
// therefore run fully concurrently; only transactions whose sets overlap
// serialize, and only on the shared partitions. All-partition barriers
// (checkpoint, rebalance cutover) acquire every slot, so "no coordinator
// is mid-protocol" still holds at a barrier.
//
// Deadlock freedom (the lock-ordering argument):
//
//   - A coordinator BLOCKS on a slot only when that slot's index is
//     greater than every slot it already holds — acquisition is ascending.
//   - A slot needed out of order (index below one already held) is taken
//     with TryLock only. On failure the attempt aborts its legs, releases
//     everything, and retries with the accumulated partition set
//     pre-acquired in ascending order (after a few failed attempts it
//     pre-acquires every slot, which trivially succeeds and cannot
//     livelock).
//   - Barriers hold exclMu (one barrier at a time) and acquire ALL slots
//     ascending before parking any worker.
//
//   Every blocking slot wait is therefore by a goroutine whose held slots
//   are all smaller than the one it waits for. A waits-for cycle would
//   need some participant waiting on a slot smaller than one it holds —
//   impossible. Slot holders always make progress: a leg runs on the
//   coordinator's own goroutine once its worker lends or hands over the
//   engine, which a worker does as soon as it is idle or reaches the leg,
//   and the group-commit daemons resolve force futures independently of
//   any coordination lock.
//
// One record: a coordinated commit appends one log record and waits for
// no fsync while it holds a slot. The protocol runs in two stretches —
//
//   - Under the slots (the serial part): the coordinator holds each
//     enlisted partition's engine (an idle worker lends it, a busy one
//     hands it over on reaching the leg; pe.MPSession) and runs the
//     handler's fragments on it itself; prepareAll collects the votes,
//     forcing nothing (each writing leg hands its logged ops back); the
//     coordinator appends one record carrying every writing leg's ops
//     under its partition (logCommit: append, not fsync), publishes every
//     leg's commit under seqMu, gives the engines back without waiting,
//     and releases the slots.
//   - Off the slots: the coordinator waits for that record's future and
//     acks the client.
//
// The record is the decision: a torn copy applies no leg at recovery and
// an intact one applies every leg, so a crash leaves a coordinated write
// whole or absent. Nothing else is needed to chain the commits that
// follow: one that runs on a leg's partition after the engine came back
// appends its own record after this one, in the same log, and the log
// resolves futures in LSN order and fails every future after a failed
// fsync (wal.Log). Its ack therefore implies this record is durable, and a
// failure here fails it too. Successive transactions overlap their
// durability waits: the next coordinator enlists, executes and appends
// while the previous one waits on the disk, so the records pool behind the
// fsync in flight and share the log's next one — the batching E11
// measures. A leg that wrote nothing votes yes and gives its engine back at
// once, and a transaction that wrote nothing logs nothing.
//
// Admission control (Store.mpAdmit) caps how many coordinators occupy
// the slot-holding stretch at once. Unbounded admission is metastable:
// past a knee, queue depth feeds hold time (every enlistment waits
// behind deeper slot queues) and throughput collapses to a stable bad
// equilibrium. The cap — one token per partition, covering only the
// slot stretch, never the durability tail — keeps slot queues shallow
// while leaving the pipeline depth unbounded.
//
// Commit publication and snapshot reads: a read never takes slots — it
// pins per-partition MVCC snapshot sequences under seqMu, whose exclusive
// side covers only the commit delivery window, so a read over several
// partitions sees a coordinated transaction entirely or not at all while
// running concurrently with the rest of the protocol.
//
// Recovery and followers apply the record through the log applier
// (applier.go), each leg on its partition.

// testHookBeforeDurable, when set, runs on the coordinator's goroutine
// once a committed transaction's record is appended and its slots are
// released, before it waits for the record's fsync; the crash-point tests
// checkpoint there.
var testHookBeforeDurable func()

// errMPRetry is the internal sentinel a slot-order violation raises: the
// attempt must abort and rerun with the needed slots pre-acquired. It
// poisons the transaction, so it surfaces even through handlers that
// swallow fragment errors.
var errMPRetry = errors.New("core: mp slot order retry")

// mpMaxTryAttempts bounds optimistic retries before the coordinator gives
// up on partial acquisition and pre-acquires every slot (which always
// succeeds — ascending blocking acquisition cannot deadlock and is not
// subject to TryLock failure).
const mpMaxTryAttempts = 3

// logCommit appends the transaction's one record: every writing leg's ops
// (the ops each vote handed back) under its partition, the record tagged
// with the first writing leg's. Its future, ack, resolves once the record
// is durable. Append order is safe: the coordinator still holds each leg's
// engine, so nothing else can log a later commit of those partitions
// first. A transaction that wrote nothing logs nothing.
func (tx *MPTxn) logCommit() error {
	for i, sess := range tx.sess {
		if sess != nil && len(sess.LoggedOps()) > 0 {
			tx.written = append(tx.written, pe.Leg{Part: i, Ops: sess.LoggedOps()})
		}
	}
	if len(tx.written) == 0 {
		return nil
	}
	rec := &pe.LogRecord{Kind: pe.RecCoordCommit, Proc: tx.proc, MPTxnID: tx.id, Legs: tx.written}
	ack, err := tx.parts[tx.written[0].Part].Append(rec, true)
	if err != nil {
		return fmt.Errorf("core: mp commit append: %w", err)
	}
	if len(tx.written) == 1 {
		tx.s.met.Add(metrics.MPOnePhase, 1)
	}
	tx.ack = ack
	return nil
}

// MPTxn is the handle a coordinated transaction's handler works through.
// Methods route fragments to partition legs and are safe for concurrent
// use; a fragment runs on the caller's goroutine, on its partition's
// engine. ExecAll and QueryAll enlist every leg before they wait for any
// busy worker. Do not call Store query/exec methods from inside the
// handler (the coordinator holds the enlisted partitions' slots); use the
// MPTxn methods instead.
type MPTxn struct {
	s  *Store
	id uint64
	// proc is what the commit record names: pe.AdHocProc for a router
	// write (its legs fire no PE trigger), empty for an application's.
	proc string
	// parts is the partition list captured at start — stable for the
	// transaction's lifetime (the caller holds routingMu's read side, so a
	// rebalance cutover cannot swap the list mid-transaction).
	parts []*partition

	// written are the writing legs the commit record carries, and ack is
	// its future (nil: nothing logged). Coordinator-goroutine-only, set
	// post-handler.
	written []pe.Leg
	ack     <-chan error
	// The committing attempt's stages on pe's clock, coordinator-goroutine
	// only: entry to runMP, the handler's start and the slots' release.
	// observe turns them into the mp_* samples.
	entry, handled, released pe.Stamp
	// need marks the slots the next attempt pre-acquires (runMP), and
	// admitted that the coordinator still holds its admission token.
	need     []bool
	admitted bool

	mu        sync.Mutex
	sess      []*pe.MPSession
	held      []bool // slot i is acquired
	requested []bool // slot i was needed at least once (retry pre-set)
	maxHeld   int    // highest held slot index (-1 when none)
	err       error  // sticky: poisons the transaction, forcing abort
}

// mpTxns recycles transaction handles, their per-partition slices
// included: runMP takes one and puts it back when the transaction is over.
var mpTxns = sync.Pool{New: func() any { return new(MPTxn) }}

// newMPTxn takes a handle for a transaction over parts, entered at entry,
// holding an admission token.
func (s *Store) newMPTxn(proc string, parts []*partition, entry pe.Stamp) *MPTxn {
	tx := mpTxns.Get().(*MPTxn)
	if n := len(parts); cap(tx.sess) < n {
		tx.sess, tx.held, tx.requested, tx.need = make([]*pe.MPSession, n), make([]bool, n), make([]bool, n), make([]bool, n)
	} else {
		tx.sess, tx.held, tx.requested, tx.need = tx.sess[:n], tx.held[:n], tx.requested[:n], tx.need[:n]
	}
	tx.s, tx.proc, tx.parts, tx.entry, tx.admitted = s, proc, parts, entry, true
	return tx
}

// begin readies tx for an attempt: a new id, no slot held but those need
// marks (taken by the attempt), no session, nothing logged.
func (tx *MPTxn) begin() {
	tx.id = tx.s.nextMPTxnID.Add(1)
	clear(tx.sess)
	clear(tx.held)
	clear(tx.requested)
	tx.written, tx.ack, tx.err, tx.maxHeld = tx.written[:0], nil, nil, -1
}

// admitDone hands the admission token back, once: as soon as the slots
// release, or when the transaction ends if that comes first.
func (tx *MPTxn) admitDone() {
	if tx.admitted {
		tx.admitted = false
		<-tx.s.mpAdmit
	}
}

// free ends the transaction: the token goes back if it has not, and the
// emptied handle goes back to mpTxns. Nothing may touch tx afterwards.
func (tx *MPTxn) free() {
	tx.admitDone()
	clear(tx.sess)
	clear(tx.need)
	clear(tx.written)
	*tx = MPTxn{sess: tx.sess, held: tx.held, requested: tx.requested, need: tx.need, written: tx.written[:0]}
	mpTxns.Put(tx)
}

// NumPartitions returns the store's partition count.
func (tx *MPTxn) NumPartitions() int { return len(tx.parts) }

// PartitionFor maps a partition-key value to its owning partition per the
// slot table, which is likewise stable while the transaction runs.
func (tx *MPTxn) PartitionFor(v types.Value) int { return tx.s.slots.Load().Partition(v) }

// session lazily acquires partition part's enlistment slot and enlists the
// partition (pe.Engine.EnlistMP: the engine is lent, or the worker is
// queued the leg and parks on it when it gets there). Slots already held
// (pre-acquired on a retry) enlist directly. An in-order slot (above every
// held one) is acquired blocking; an out-of-order slot is TryLock-only —
// failure poisons the transaction with errMPRetry and the coordinator
// reruns the handler with the needed set pre-acquired.
func (tx *MPTxn) session(part int) (*pe.MPSession, error) {
	if part < 0 || part >= len(tx.parts) {
		return nil, fmt.Errorf("core: mp txn: no partition %d", part)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.err != nil {
		return nil, tx.err
	}
	if tx.sess[part] != nil {
		return tx.sess[part], nil
	}
	tx.requested[part] = true
	if !tx.held[part] {
		if part > tx.maxHeld {
			tx.parts[part].mpSlot.Lock()
		} else if !tx.parts[part].mpSlot.TryLock() {
			tx.err = errMPRetry
			return nil, errMPRetry
		}
		tx.held[part] = true
		if part > tx.maxHeld {
			tx.maxHeld = part
		}
	}
	sess, err := tx.parts[part].pe.EnlistMP(tx.id, tx.proc == pe.AdHocProc)
	if err != nil {
		tx.err = err
		return nil, err
	}
	tx.sess[part] = sess
	return sess, nil
}

// Enlist pre-declares the transaction's partition set, acquiring every
// slot before any fragment runs. A handler that knows its access set up
// front — the common case; H-Store-style procedures declare their
// partitions — should call it: lazy per-fragment acquisition blocks on a
// slot while holding others, and under load that hold-and-wait couples
// queue depth to hold time, a metastable convoy.
//
// Enlist avoids hold-and-wait entirely when the transaction holds nothing
// yet: each round blocks on exactly one contended slot while holding no
// others (which can never join a deadlock cycle), then claims the rest
// with TryLock; any failure releases the round and blocks on the slot
// that refused. With slots pre-held (a coordinator retry), a blocking
// acquire is legal only above them (the ascending-order rule), so a
// contended lower slot falls back to the errMPRetry protocol instead.
// Partitions already enlisted are skipped, so Enlist composes with lazy
// sessions on the same transaction.
func (tx *MPTxn) Enlist(parts ...int) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.err != nil {
		return tx.err
	}
	sorted := append([]int(nil), parts...)
	sort.Ints(sorted)
	want := sorted[:0]
	for i, p := range sorted {
		if p < 0 || p >= len(tx.parts) {
			return fmt.Errorf("core: mp txn: no partition %d", p)
		}
		tx.requested[p] = true
		if !tx.held[p] && (i == 0 || sorted[i-1] != p) {
			want = append(want, p)
		}
	}
	first := 0
	for len(want) > 0 {
		got := want[:0:0]
		release := func() {
			for _, p := range got {
				tx.parts[p].mpSlot.Unlock()
			}
		}
		b := want[first]
		if b > tx.maxHeld {
			tx.parts[b].mpSlot.Lock()
		} else if !tx.parts[b].mpSlot.TryLock() {
			tx.err = errMPRetry
			return errMPRetry
		}
		got = append(got, b)
		retry := -1
		for _, p := range want {
			if p == b {
				continue
			}
			if !tx.parts[p].mpSlot.TryLock() {
				retry = p
				break
			}
			got = append(got, p)
		}
		if retry >= 0 {
			release()
			if tx.maxHeld >= 0 {
				// Slots are pre-held below the contended one: blocking
				// here could deadlock, so fall back to the coordinator's
				// rerun-with-preacquired protocol.
				tx.err = errMPRetry
				return errMPRetry
			}
			for i, p := range want {
				if p == retry {
					first = i
					break
				}
			}
			continue
		}
		for _, p := range got {
			tx.held[p] = true
			if p > tx.maxHeld {
				tx.maxHeld = p
			}
		}
		break
	}
	for _, p := range sorted {
		if tx.sess[p] != nil {
			continue
		}
		sess, err := tx.parts[p].pe.EnlistMP(tx.id, tx.proc == pe.AdHocProc)
		if err != nil {
			tx.err = err
			return err
		}
		tx.sess[p] = sess
	}
	return nil
}

// releaseSlots unlocks every held slot (idempotent; order is irrelevant
// for release).
func (tx *MPTxn) releaseSlots() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for i, h := range tx.held {
		if h {
			tx.parts[i].mpSlot.Unlock()
			tx.held[i] = false
		}
	}
	tx.maxHeld = -1
}

// poison records a write-fragment failure. A failed write may have been
// statement-level rolled back in memory, but it was never recorded in the
// leg's logged ops — committing anyway could diverge recovered state from
// memory, so the transaction is forced to abort even if the handler
// swallows the error.
func (tx *MPTxn) poison(err error) {
	tx.mu.Lock()
	if tx.err == nil {
		tx.err = err
	}
	tx.mu.Unlock()
}

// legs enlists, in ascending order, every partition want accepts (every
// partition when want is nil) before it waits for any parked worker to
// hand its engine over, then holds every leg's engine: once it returns, no
// fragment of the caller's waits on a worker. The sessions are appended to
// buf in partition order.
func (tx *MPTxn) legs(buf []*pe.MPSession, want func(part int) bool) ([]*pe.MPSession, error) {
	n := len(buf)
	for part := range tx.parts {
		if want != nil && !want(part) {
			continue
		}
		sess, err := tx.session(part)
		if err != nil {
			return nil, err
		}
		buf = append(buf, sess)
	}
	for _, sess := range buf[n:] {
		if err := sess.Enter(); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// exec runs a write statement on a leg. A failed write poisons the
// transaction, so it aborts even if the handler swallows the error.
func (tx *MPTxn) exec(sess *pe.MPSession, sqlText string, params []types.Value) (*pe.Result, error) {
	res, err := sess.Exec(sqlText, params...)
	if err != nil {
		tx.poison(err)
	}
	return res, err
}

// insertRows inserts a row batch on a leg, poisoning the transaction if it
// fails.
func (tx *MPTxn) insertRows(sess *pe.MPSession, table string, rows []types.Row) (int, error) {
	n, err := sess.InsertRows(table, rows)
	if err != nil {
		tx.poison(err)
	}
	return n, err
}

// query runs a read on partition part's leg.
func (tx *MPTxn) query(part int, sess *pe.MPSession, sqlText string, params []types.Value) (*pe.Result, error) {
	p, err := tx.parts[part].ee.PrepareCached(sqlText)
	if err != nil {
		return nil, err
	}
	return sess.QueryPlan(p, params...)
}

// readCut reads a plan over a cut of the whole store taken inside the
// transaction, once it holds every slot and every partition's engine:
// commits publish at execute time (pe.Engine), so the cut holds every
// commit serialized before the transaction on any partition, and nothing
// else commits until the decision. The rows are the caller's.
func (tx *MPTxn) readCut(p *ee.Prepared, params []types.Value) ([]types.Row, error) {
	if _, err := tx.legs(nil, nil); err != nil {
		return nil, err
	}
	c := cutPool.Get().(*snapCut)
	tx.s.acquireCut(c, true)
	res, err := tx.parts[0].pe.QueryCut(&c.cut, p, params...)
	c.release()
	cutPool.Put(c)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// Exec runs one write statement on partition part inside the transaction.
// On a durable store the statement (with concrete parameters) becomes part
// of the commit record and is re-executed at recovery, so it must not
// depend on hidden nondeterminism.
func (tx *MPTxn) Exec(part int, sqlText string, params ...types.Value) (*pe.Result, error) {
	sess, err := tx.session(part)
	if err != nil {
		return nil, err
	}
	return tx.exec(sess, sqlText, params)
}

// InsertRows inserts a pre-evaluated row batch into a relation on
// partition part.
func (tx *MPTxn) InsertRows(part int, table string, rows []types.Row) (*pe.Result, error) {
	sess, err := tx.session(part)
	if err != nil {
		return nil, err
	}
	n, err := tx.insertRows(sess, table, rows)
	if err != nil {
		return nil, err
	}
	return &pe.Result{RowsAffected: n}, nil
}

// Query runs a read on partition part. The read sees the transaction's own
// uncommitted writes and, because the transaction holds every enlisted
// partition's serial slot, a stable snapshot of each partition.
func (tx *MPTxn) Query(part int, sqlText string, params ...types.Value) (*pe.Result, error) {
	sess, err := tx.session(part)
	if err != nil {
		return nil, err
	}
	return tx.query(part, sess, sqlText, params)
}

// QueryRow is Query returning at most one row (nil when none matched).
func (tx *MPTxn) QueryRow(part int, sqlText string, params ...types.Value) (types.Row, error) {
	res, err := tx.Query(part, sqlText, params...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return res.Rows[0], nil
}

// ExecAll runs the same write on every partition (enlisting them all) —
// the coordinated form of a broadcast statement. Results come back in
// partition order.
func (tx *MPTxn) ExecAll(sqlText string, params ...types.Value) ([]*pe.Result, error) {
	return tx.eachPartition(func(_ int, sess *pe.MPSession) (*pe.Result, error) {
		return tx.exec(sess, sqlText, params)
	})
}

// QueryAll runs the same read on every partition (enlisting them all) and
// returns the per-partition results in partition order — the caller
// combines them.
func (tx *MPTxn) QueryAll(sqlText string, params ...types.Value) ([]*pe.Result, error) {
	return tx.eachPartition(func(part int, sess *pe.MPSession) (*pe.Result, error) {
		return tx.query(part, sess, sqlText, params)
	})
}

// eachPartition enlists every partition, then runs fn on each leg in
// partition order and returns the results, stopping at the first error.
func (tx *MPTxn) eachPartition(fn func(part int, sess *pe.MPSession) (*pe.Result, error)) ([]*pe.Result, error) {
	legs, err := tx.legs(nil, nil)
	if err != nil {
		return nil, err
	}
	results := make([]*pe.Result, len(legs))
	for part, sess := range legs {
		if results[part], err = fn(part, sess); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// MultiPartitionTxn runs fn as one atomic cross-partition transaction:
// every write either commits on all partitions it touched or on none, the
// enlisted partitions' serial slots are held from enlistment until the
// decision (no other execution interleaves), and on a durable store the
// writes are command-logged as one record, so recovery applies them
// atomically too. Returning an error from fn — or any failed
// write fragment — aborts every leg. tx is valid until fn returns; the
// results its methods return are the caller's.
//
// Transactions over disjoint partition sets run concurrently; overlapping
// sets serialize on the shared partitions only. The per-partition fast
// path stays preferable for single-partition work. Call only from client
// goroutines — never from inside a stored-procedure handler (the handler's
// own partition worker would be enlisted while it is busy running the
// handler, a self-deadlock).
func (s *Store) MultiPartitionTxn(fn func(tx *MPTxn) error) error {
	// The routing fence pins the slot table and partition list for the
	// transaction's lifetime: a migration cutover (write side) waits until
	// no coordinator is mid-protocol. Internal callers (coordinated router
	// writes) already hold the read side and call runMP directly.
	s.routingMu.RLock()
	defer s.routingMu.RUnlock()
	return s.runMP("", fn)
}

// runMP is the coordinator; proc is what the commit record names
// (MPTxn.proc). Callers must hold routingMu's read side.
//
// Each attempt acquires slots optimistically as fragments route; a slot-
// order violation (errMPRetry) aborts the attempt's legs and reruns fn
// with every partition requested so far pre-acquired in ascending order.
// Handlers are re-executable by the same determinism argument command
// logging already relies on. After mpMaxTryAttempts the coordinator
// pre-acquires all slots, which cannot fail.
func (s *Store) runMP(proc string, fn func(tx *MPTxn) error) error {
	entry := pe.Now()
	if err := s.Err(); err != nil {
		return err
	}
	s.met.Add(metrics.MPConcurrent, 1)
	defer s.met.Add(metrics.MPConcurrent, -1)
	parts := s.partList()
	// Admission: bound the coordinators competing for enlistment slots
	// (see mpAdmit). The token covers the slot-holding phase only —
	// attempt hands it back as soon as the slots release, so the
	// durability tail pipelines without consuming a token.
	s.mpAdmitOnce.Do(func() {
		s.mpAdmit = make(chan struct{}, len(parts))
	})
	s.mpAdmit <- struct{}{}
	tx := s.newMPTxn(proc, parts, entry)
	defer tx.free()
	for attempt := 0; ; attempt++ {
		if attempt == mpMaxTryAttempts {
			for i := range tx.need {
				tx.need[i] = true
			}
		}
		err, retry := tx.attempt(fn)
		if !retry {
			return err
		}
	}
}

// attempt runs one optimistic attempt of a coordinated transaction,
// pre-acquiring the slots marked in tx.need (ascending). retry reports a
// slot-order violation; the caller reruns with need extended by every
// partition this attempt requested. The attempt that commits observes the
// transaction, from entry (runMP's) to its ack, when it returns.
func (tx *MPTxn) attempt(fn func(tx *MPTxn) error) (err error, retry bool) {
	s := tx.s
	tx.begin()
	defer tx.releaseSlots() // no-op on the paths that released already
	for i, n := range tx.need {
		if n {
			tx.parts[i].mpSlot.Lock()
			tx.held[i] = true
			tx.maxHeld = i
		}
	}

	tx.handled = pe.Now()
	ferr := runMPHandler(fn, tx)
	tx.mu.Lock()
	if ferr == nil {
		ferr = tx.err // a poisoned transaction aborts even if fn returned nil
	}
	if errors.Is(tx.err, errMPRetry) {
		// Slot-order violation: roll the attempt back and rerun with the
		// accumulated need-set pre-acquired. Not counted as an abort — the
		// transaction has not failed, it is being re-ordered.
		for i, r := range tx.requested {
			if r {
				tx.need[i] = true
			}
		}
		tx.mu.Unlock()
		tx.deliverAll(false)
		return nil, true
	}
	tx.mu.Unlock()
	if ferr == nil {
		ferr = tx.prepareAll()
	}
	if ferr != nil {
		tx.deliverAll(false)
		tx.releaseSlots()
		s.met.Add(metrics.MPAborts, 1)
		return ferr, false
	}
	s.met.Add(metrics.MPTxns, 1)
	// Every vote is in: the transaction commits. Its record is appended
	// now — an append failure is still a clean abort, nothing has been
	// delivered — but its fsync is not waited for under the slots.
	if err := tx.logCommit(); err != nil {
		tx.deliverAll(false)
		tx.releaseSlots()
		s.met.Add(metrics.MPAborts, 1)
		return err, false
	}
	// Commit publication window (deliverAll): the legs publish under
	// seqMu, and durability resolves after it is released, so snapshot
	// readers are never parked behind the disk. Then the slots release:
	// the next coordinator enlists, executes and appends its own record,
	// which batches into the fsync this transaction is about to wait on.
	// The client is acknowledged only once the record is durable.
	tx.deliverAll(true)
	tx.releaseSlots()
	tx.released = pe.Now()
	tx.admitDone()
	if tx.ack != nil {
		if testHookBeforeDurable != nil {
			testHookBeforeDurable()
		}
		if err := <-tx.ack; err != nil {
			// The legs already applied and published; a failed force
			// cannot abort them. This client and every commit after it
			// fails, and the store stops.
			err = fmt.Errorf("core: mp commit force (legs committed, log poisoned): %w", err)
			s.fail(err)
			return err, false
		}
	}
	tx.observe()
	return nil, false
}

// observe records a committed transaction, acked now: one sample of its
// latency and one of each stage, which sum to it.
func (tx *MPTxn) observe() {
	acked := pe.Now()
	m := tx.s.met
	m.Observe(metrics.MPLatency, int64(acked-tx.entry))
	m.Observe(metrics.MPSlotWait, int64(tx.handled-tx.entry))
	m.Observe(metrics.MPExecute, int64(tx.released-tx.handled))
	m.Observe(metrics.MPDurableWait, int64(acked-tx.released))
}

// runMPHandler executes fn, converting panics into aborts so a buggy
// handler cannot keep partition engines from their workers forever.
func runMPHandler(fn func(tx *MPTxn) error, tx *MPTxn) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: mp txn handler panicked: %v", rec)
		}
	}()
	return fn(tx)
}

// prepareAll collects every enlisted partition's vote. A vote writes no
// log: a writing leg hands its logged op set back for the coordinator to
// log after all votes are in, and a read-only leg votes yes and its
// engine goes back on the spot (its slot stays held until the decision
// window — releasing it early would let a conflicting transaction slip
// between this transaction's reads and its commit). Any non-nil vote is a
// veto; the first in partition order is returned.
func (tx *MPTxn) prepareAll() error {
	var veto error
	for i, sess := range tx.sess {
		if sess == nil {
			continue
		}
		if err := sess.Prepare(); err != nil && veto == nil {
			veto = fmt.Errorf("core: mp prepare (partition %d): %w", i, err)
		}
	}
	return veto
}

// deliverAll applies the decision on every enlisted leg, then gives every
// engine back and lets go of the sessions: no fragment of the transaction
// is read after. A commit publishes every leg's sequence under seqMu held
// exclusively, which keeps a reader's snapshot vector from cutting between
// two legs' publications (all-or-nothing visibility); the lock covers the
// publications alone. Rollbacks publish nothing and take no lock.
// Read-only legs released at their vote are skipped.
func (tx *MPTxn) deliverAll(commit bool) {
	if commit {
		tx.s.seqMu.Lock()
	}
	for _, sess := range tx.sess {
		if sess != nil {
			sess.Decide(commit)
		}
	}
	if commit {
		tx.s.seqMu.Unlock()
	}
	for i, sess := range tx.sess {
		if sess != nil {
			sess.Release()
			tx.sess[i] = nil
		}
	}
}

// acquireAllSlots locks every partition's enlistment slot in ascending
// order — the all-partition barrier's first step (after exclMu, before
// parking workers). With every slot held, no coordinator is mid-protocol
// anywhere in the store. sort keeps the contract obvious if partition
// lists ever stop being index-ordered.
func acquireAllSlots(parts []*partition) {
	idx := make([]int, len(parts))
	for i := range parts {
		idx[i] = i
	}
	sort.Ints(idx)
	for _, i := range idx {
		parts[i].mpSlot.Lock()
	}
}

// releaseAllSlots unlocks every partition's enlistment slot.
func releaseAllSlots(parts []*partition) {
	for _, p := range parts {
		p.mpSlot.Unlock()
	}
}
