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
//   impossible. Slot holders always make progress: fragment execution and
//   prepare/decide rendezvous complete because each enlisted worker is
//   dedicated to the transaction, and the group-commit daemons resolve
//   force futures independently of any coordination lock.
//
// Pipelined 2PC: no fsync is ever awaited while a slot is held. The
// protocol runs in two stretches —
//
//   - Under the slots (the serial part): the handler executes fragments
//     through the parked workers; prepareAll collects votes as pure
//     rendezvous (each writing leg hands its logged ops back, forcing
//     nothing); the coordinator appends the PREPARE records to the
//     participant logs (append, not fsync), installs the transaction's
//     durability future (mpOutcome) on those partitions, delivers the
//     commit to memory under seqMu, and releases the slots.
//   - Off the slots (the pipelined part): the coordinator waits for the
//     vote appends to become durable, then appends a DECIDE marker to
//     each writing leg's log — the markers are the commit records: once
//     every vote is durable, the first durable marker decides the whole
//     transaction, whether it has one writing leg or many — and finally
//     resolves the outcome and acks the client.
//
// Successive transactions on the same partitions therefore overlap their
// durability waits: the next coordinator enlists, executes, and appends
// its own votes while the previous one is still waiting on the disk, so
// PREPARE/DECIDE/commit records pool behind whichever fsync is in flight
// in the store's directory (the logs take turns on the disk, wal.Dir)
// and share their log's next one — the force batching E11 measures. The
// pool is as deep as the disk is busy; no force waits for a timer. The
// read-only optimization removes two forces outright: a leg that wrote
// nothing votes yes and releases its worker at PREPARE (no PREPARE
// record, no marker).
//
// The client ack is gated on the full chain — votes durable, markers
// durable, and every predecessor outcome this transaction may have read
// resolved (see mpOutcome) — so pipelining never acknowledges state that
// could vanish in a crash; un-acked transactions recover by presumed
// abort.
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
// Recovery and followers read these records through the log applier
// (applier.go): a logged PREPARE whose transaction id has a durable DECIDE
// marker in any partition log is re-applied; one without is presumed
// aborted and dropped once no decision can arrive any more.

// testHookBeforeMarkers, when set, runs on the coordinator's goroutine
// once a committed transaction's votes are durable and before its markers
// are appended; the crash-point tests checkpoint there.
var testHookBeforeMarkers func()

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

// mpOutcome is a committed multi-partition transaction's durability future.
// It is installed on every partition the transaction wrote (replacing, and
// chaining to, the previous occupant) before the commit is delivered to
// memory and the slots release. Anything that subsequently commits on one
// of those partitions — a successor coordinated transaction or an ordinary
// single-partition write — may have read this transaction's published but
// not-yet-durable state, so its own client acknowledgement must wait for
// this outcome too (resolved err == nil) or fail loudly (err != nil: the
// store's logs are poisoned and the observed state may not survive a
// restart). This is the speculation chain that lets the slots release
// before the PREPARE forces resolve: pipelined 2PC with acknowledgement
// dependencies instead of slot-held fsyncs.
type mpOutcome struct {
	done  chan struct{} // closed once err is final
	err   error
	preds []*mpOutcome // unresolved predecessors captured at install
	// id and legs name the transaction and the partitions it prepared on,
	// for a checkpoint that decides it before its coordinator does
	// (decidePublished).
	id   uint64
	legs []*partition
}

// installOutcome publishes tx's durability future on every partition that
// got a PREPARE record. Must run before deliverAll(true) — the workers are
// still parked, so nothing can commit against the published state and miss
// the dependency.
func (tx *MPTxn) installOutcome() {
	o := &mpOutcome{done: make(chan struct{}), id: tx.id}
	for _, i := range tx.prepParts {
		o.legs = append(o.legs, tx.parts[i])
		if prev := tx.parts[i].specTail.Swap(o); prev != nil {
			select {
			case <-prev.done:
				if prev.err != nil {
					o.preds = append(o.preds, prev)
				}
			default:
				o.preds = append(o.preds, prev)
			}
		}
	}
	tx.outcome = o
}

// resolveOutcome finalizes tx's durability future: it waits for every
// captured predecessor (transitively ordering the speculation chain), folds
// their failures into err, resolves the future, and clears the partitions'
// tails when still pointing here. Returns the final error the client sees.
func (tx *MPTxn) resolveOutcome(err error) error {
	o := tx.outcome
	for _, p := range o.preds {
		<-p.done
		if p.err != nil && err == nil {
			err = fmt.Errorf("core: mp txn read state of a predecessor whose durability failed: %w", p.err)
		}
	}
	o.err = err
	close(o.done)
	for _, i := range tx.prepParts {
		tx.parts[i].specTail.CompareAndSwap(o, nil)
	}
	return err
}

// decidePublished forces a commit marker into every leg's log for each
// transaction published on parts whose outcome has not resolved: its
// coordinator is between releasing its slots and its own markers. A
// checkpoint runs it under its barrier before writing any snapshot; the
// votes were appended before the barrier, so once every leg's log syncs
// they are durable and these markers say only what the coordinator's
// will. Without them, a crash between two partitions' snapshots would
// leave one leg in a new snapshot and the other an undecided PREPARE
// beside an old one.
func decidePublished(parts []*partition) error {
	var todo []*mpOutcome
	for _, p := range parts {
		if o := p.specTail.Load(); o != nil {
			todo = append(todo, o)
		}
	}
	decided := map[*mpOutcome]bool{}
	for len(todo) > 0 {
		o := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		select {
		case <-o.done:
			continue // resolved, and so are its predecessors
		default:
		}
		if decided[o] {
			continue
		}
		decided[o] = true
		todo = append(todo, o.preds...)
		for _, p := range o.legs {
			if err := p.log.SyncNow(); err != nil { // a vote that never became durable
				return err
			}
		}
		for _, p := range o.legs {
			if err := p.force(&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: o.id, Commit: true}); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendPrepares appends every writing leg's PREPARE record (the ops each
// vote handed back) to its partition's log and kicks the log's daemon. The
// appends are not yet durable — the returned futures in voteAcks resolve
// when they are, and waitVotes collects them after the slots release.
// Append order is safe: each leg's worker is still parked, so nothing else
// can put a later record into that partition's log first.
func (tx *MPTxn) appendPrepares() error {
	for i, sess := range tx.sess {
		if sess == nil {
			continue
		}
		ops := sess.LoggedOps()
		if len(ops) == 0 {
			continue
		}
		ack, err := tx.parts[i].Append(&pe.LogRecord{Kind: pe.RecPrepare, Proc: tx.proc, MPTxnID: tx.id, Ops: ops}, true)
		if err != nil {
			return fmt.Errorf("core: mp prepare append (partition %d): %w", i, err)
		}
		tx.prepParts = append(tx.prepParts, i)
		tx.voteAcks = append(tx.voteAcks, ack)
	}
	return nil
}

// waitVotes blocks until every PREPARE record appended by appendPrepares
// is durable — the classic 2PC forced-vote wait, except the enlistment
// slots were already released: successors execute (and append their own
// votes, which batch into the same daemon fsyncs) while this transaction
// waits only for the disk.
func (tx *MPTxn) waitVotes() error {
	var errs []error
	for k, ack := range tx.voteAcks {
		if err := <-ack; err != nil {
			errs = append(errs, fmt.Errorf("core: mp prepare force (partition %d): %w", tx.prepParts[k], err))
		}
	}
	return errors.Join(errs...)
}

// appendMarkers appends the commit DECIDE marker to every prepared leg's
// partition log and waits for durability. The markers are appended only
// after every vote is durable, so a surviving marker always witnesses a
// committed transaction: each one is a commit record, and recovery's
// pre-scan folds them from every partition log before any leg replays.
// The markers ride the partition daemons' batches alongside successor
// transactions' votes and commits.
func (tx *MPTxn) appendMarkers() error {
	acks := make([]<-chan error, 0, len(tx.prepParts))
	var errs []error
	for _, i := range tx.prepParts {
		p := tx.parts[i]
		ack, err := p.Append(&pe.LogRecord{Kind: pe.RecDecide, MPTxnID: tx.id, Commit: true}, true)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: mp decide marker append (partition %d): %w", i, err))
			continue
		}
		acks = append(acks, ack)
	}
	for _, ack := range acks {
		if err := <-ack; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// MPTxn is the handle a coordinated transaction's handler works through.
// Methods route fragments to partition legs and are safe for concurrent
// use; ExecAll and QueryAll queue a fragment on every leg before waiting
// for any, so the legs run concurrently without a goroutine per leg. Do
// not call Store query/exec methods from inside the handler (the
// coordinator holds the enlisted partitions' slots); use the MPTxn methods
// instead.
type MPTxn struct {
	s  *Store
	id uint64
	// proc is what the legs' PREPARE records name: pe.AdHocProc for a
	// router write (its legs fire no PE trigger), empty for an application's.
	proc string
	// parts is the partition list captured at start — stable for the
	// transaction's lifetime (the caller holds routingMu's read side, so a
	// rebalance cutover cannot swap the list mid-transaction).
	parts []*partition

	// prepParts/voteAcks track the writing legs whose PREPARE records were
	// appended (futures resolve when the votes are durable); outcome is the
	// transaction's durability future installed on those partitions for
	// successor-ack chaining. Coordinator-goroutine-only, set post-handler.
	prepParts []int
	voteAcks  []<-chan error
	outcome   *mpOutcome
	// The committing attempt's stages on pe's clock, coordinator-goroutine
	// only: entry to runMP, the handler's start, the slots' release and
	// every vote durable. observe turns them into the mp_* samples.
	entry, handled, released, votesDurable pe.Stamp
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
	clear(tx.voteAcks)
	tx.prepParts, tx.voteAcks = tx.prepParts[:0], tx.voteAcks[:0]
	tx.outcome, tx.err, tx.maxHeld = nil, nil, -1
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
	clear(tx.voteAcks)
	*tx = MPTxn{sess: tx.sess, held: tx.held, requested: tx.requested, need: tx.need,
		prepParts: tx.prepParts, voteAcks: tx.voteAcks}
	mpTxns.Put(tx)
}

// NumPartitions returns the store's partition count.
func (tx *MPTxn) NumPartitions() int { return len(tx.parts) }

// PartitionFor maps a partition-key value to its owning partition per the
// slot table, which is likewise stable while the transaction runs.
func (tx *MPTxn) PartitionFor(v types.Value) int { return tx.s.slots.Load().Partition(v) }

// session lazily acquires partition part's enlistment slot and enlists the
// partition, parking its worker on the 2PC barrier. Slots already held
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
// leg's PREPARE ops — committing anyway could diverge recovered state from
// memory, so the transaction is forced to abort even if the handler
// swallows the error.
func (tx *MPTxn) poison(err error) {
	tx.mu.Lock()
	if tx.err == nil {
		tx.err = err
	}
	tx.mu.Unlock()
}

// legFrag is a fragment queued on one partition's leg and not yet waited
// for. A coordinator queues every leg it knows up front before waiting for
// any, so the legs run concurrently on their workers.
type legFrag struct {
	tx    *MPTxn
	f     pe.Frag
	write bool
}

// wait returns the number of rows the fragment affected. A failed write
// poisons the transaction, so it aborts even if the handler swallows the
// error.
func (lf legFrag) wait() (int, error) {
	n, err := lf.f.Wait()
	if err != nil && lf.write {
		lf.tx.poison(err)
	}
	return n, err
}

// result is wait returning the fragment's whole result, rows included.
func (lf legFrag) result() (*pe.Result, error) {
	if _, err := lf.wait(); err != nil {
		return nil, err
	}
	return lf.f.Result()
}

// sendExec queues a write statement on partition part's leg.
func (tx *MPTxn) sendExec(part int, sqlText string, params ...types.Value) (legFrag, error) {
	sess, err := tx.session(part)
	if err != nil {
		return legFrag{}, err
	}
	return legFrag{tx: tx, f: sess.SendExec(sqlText, params...), write: true}, nil
}

// sendInsertRows queues a pre-evaluated row batch on partition part's leg.
func (tx *MPTxn) sendInsertRows(part int, table string, rows []types.Row) (legFrag, error) {
	sess, err := tx.session(part)
	if err != nil {
		return legFrag{}, err
	}
	return legFrag{tx: tx, f: sess.SendInsertRows(table, rows), write: true}, nil
}

// sendQuery queues a read on partition part's leg.
func (tx *MPTxn) sendQuery(part int, sqlText string, params ...types.Value) (legFrag, error) {
	sess, err := tx.session(part)
	if err != nil {
		return legFrag{}, err
	}
	p, err := tx.parts[part].ee.PrepareCached(sqlText)
	if err != nil {
		return legFrag{}, err
	}
	return legFrag{tx: tx, f: sess.SendQueryPlan(p, params...)}, nil
}

// readCut reads a plan over a cut of the whole store taken inside the
// transaction, once it holds every slot and every worker is serving its
// leg: commits publish at execute time (pe.Engine), so the cut holds every
// commit serialized before the transaction on any partition, and nothing
// else commits until the decision. The rows are the caller's.
func (tx *MPTxn) readCut(p *ee.Prepared, params []types.Value) ([]types.Row, error) {
	entered, err := tx.sendEach(func(part int) (legFrag, error) {
		sess, err := tx.session(part)
		if err != nil {
			return legFrag{}, err
		}
		return legFrag{tx: tx, f: sess.SendEnter()}, nil
	})
	for i := 0; err == nil && i < len(entered); i++ {
		_, err = entered[i].wait()
	}
	if err != nil {
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

// waitFor waits for a fragment that send queued.
func waitFor(lf legFrag, err error) (*pe.Result, error) {
	if err != nil {
		return nil, err
	}
	return lf.result()
}

// Exec runs one write statement on partition part inside the transaction.
// On a durable store the statement (with concrete parameters) becomes part
// of the partition's PREPARE record and is re-executed at recovery, so it
// must not depend on hidden nondeterminism.
func (tx *MPTxn) Exec(part int, sqlText string, params ...types.Value) (*pe.Result, error) {
	return waitFor(tx.sendExec(part, sqlText, params...))
}

// InsertRows inserts a pre-evaluated row batch into a relation on
// partition part.
func (tx *MPTxn) InsertRows(part int, table string, rows []types.Row) (*pe.Result, error) {
	return waitFor(tx.sendInsertRows(part, table, rows))
}

// Query runs a read on partition part. The read sees the transaction's own
// uncommitted writes and, because every enlisted worker is parked, a
// stable snapshot of each partition.
func (tx *MPTxn) Query(part int, sqlText string, params ...types.Value) (*pe.Result, error) {
	return waitFor(tx.sendQuery(part, sqlText, params...))
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

// ExecAll runs the same write on every partition concurrently (enlisting
// them all) — the coordinated form of a broadcast statement. Results come
// back in partition order.
func (tx *MPTxn) ExecAll(sqlText string, params ...types.Value) ([]*pe.Result, error) {
	return tx.eachPartition(func(part int) (legFrag, error) { return tx.sendExec(part, sqlText, params...) })
}

// QueryAll runs the same read on every partition concurrently (enlisting
// them all) and returns the per-partition results in partition order —
// the caller combines them.
func (tx *MPTxn) QueryAll(sqlText string, params ...types.Value) ([]*pe.Result, error) {
	return tx.eachPartition(func(part int) (legFrag, error) { return tx.sendQuery(part, sqlText, params...) })
}

// sendEach queues send's fragment on every partition in ascending order
// (so slots are acquired in order) and waits for none of them.
func (tx *MPTxn) sendEach(send func(part int) (legFrag, error)) ([]legFrag, error) {
	legs := make([]legFrag, len(tx.parts))
	for part := range legs {
		lf, err := send(part)
		if err != nil {
			return nil, err
		}
		legs[part] = lf
	}
	return legs, nil
}

// eachPartition queues send's fragment on every partition before waiting
// for any, so the legs run concurrently, and returns the results in
// partition order, or the first error in that order.
func (tx *MPTxn) eachPartition(send func(part int) (legFrag, error)) ([]*pe.Result, error) {
	legs, err := tx.sendEach(send)
	if err != nil {
		return nil, err
	}
	return waitAll(legs)
}

// waitAll waits for every leg's fragment, in order, and returns their
// results, or the first error in that order.
func waitAll(legs []legFrag) ([]*pe.Result, error) {
	results := make([]*pe.Result, len(legs))
	var first error
	for i, lf := range legs {
		res, err := lf.result()
		if err != nil && first == nil {
			first = err
		}
		results[i] = res
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// MultiPartitionTxn runs fn as one atomic cross-partition transaction:
// every write either commits on all partitions it touched or on none, the
// enlisted partitions' serial slots are held from enlistment until the
// decision (no other execution interleaves), and on a durable store the
// writes are command-logged through 2PC PREPARE/DECIDE records so recovery
// resolves them atomically too. Returning an error from fn — or any failed
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

// runMP is the coordinator; proc is what the legs' PREPARE records name
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
		tx.finishAll(false)
		return nil, true
	}
	tx.mu.Unlock()
	if ferr == nil {
		ferr = tx.prepareAll()
	}
	if ferr != nil {
		tx.deliverAll(false)
		tx.releaseSlots()
		tx.resolveAll()
		s.met.Add(metrics.MPAborts, 1)
		return ferr, false
	}
	s.met.Add(metrics.MPTxns, 1)
	// Every vote is in: the transaction commits. The votes' PREPARE
	// records are appended now — an append failure is still a clean
	// abort, nothing has been delivered — but their fsyncs are NOT
	// waited for under the slots. That wait moves below, after release:
	// pipelined 2PC.
	if err := tx.appendPrepares(); err != nil {
		tx.deliverAll(false)
		tx.releaseSlots()
		tx.resolveAll()
		s.met.Add(metrics.MPAborts, 1)
		return err, false
	}
	// The durability future goes up on the written partitions before any
	// of this transaction's state becomes visible: everything that
	// subsequently commits on those partitions chains its own client ack
	// on this outcome (see mpOutcome). Install while the workers are
	// still parked so no commit can slip between publication and the
	// dependency becoming observable.
	if len(tx.prepParts) > 0 {
		tx.installOutcome()
	}
	// Commit publication window: every leg publishes its partition's
	// commit sequence during delivery, and holding seqMu exclusively
	// keeps a reader's snapshot vector from cutting between two
	// legs' publications (all-or-nothing visibility). The lock covers
	// only the in-memory window — durability resolves after it is
	// released, so snapshot readers are never parked behind the disk.
	s.seqMu.Lock()
	derr := tx.deliverAll(true)
	s.seqMu.Unlock()
	// Slots release before every durability wait: the partitions'
	// in-memory state is committed and their workers are free, so the
	// next coordinator enlists, executes, and appends its own votes —
	// which batch into the same daemon fsyncs this transaction is about
	// to wait on — while this coordinator settles durability off-slot.
	// Crash safety rests on two rules. First, the client is acknowledged
	// only after the full chain below resolves (votes durable, markers
	// durable, predecessor outcomes resolved), so an acked transaction
	// always recovers committed. Second, anything that committed against
	// this transaction's published-but-undurable state had its ack
	// chained on this outcome, so the crash window exposes no
	// acknowledged dependent either. Un-acked transactions recover by
	// presumed abort: no marker in any partition log means aborted.
	tx.releaseSlots()
	tx.released = pe.Now()
	tx.admitDone()
	var derr2 error
	verr := tx.waitVotes()
	tx.votesDurable = pe.Now()
	if verr != nil {
		// The legs already applied and published; a failed vote force
		// cannot abort them. This client and every chained successor
		// fails, and the store stops (below).
		derr2 = fmt.Errorf("core: mp prepare force (legs committed, log poisoned): %w", verr)
	} else if len(tx.prepParts) > 0 {
		// Every vote is durable: each writing leg's DECIDE marker is a
		// commit record, and the first one durable decides the whole
		// transaction (recovery folds every partition log's markers).
		if len(tx.prepParts) == 1 {
			s.met.Add(metrics.MPOnePhase, 1)
		}
		if testHookBeforeMarkers != nil {
			testHookBeforeMarkers()
		}
		derr2 = tx.appendMarkers()
	}
	if derr2 != nil {
		s.fail(derr2) // published legs whose durability failed: fail-stop
	}
	var oerr error
	if tx.outcome != nil {
		oerr = tx.resolveOutcome(derr2)
	}
	tx.resolveAll()
	if err = errors.Join(derr, oerr); err == nil {
		tx.observe()
	}
	return err, false
}

// observe records a committed transaction, acked now: one sample of its
// latency and one of each stage, which sum to it.
func (tx *MPTxn) observe() {
	acked := pe.Now()
	m := tx.s.met
	m.Observe(metrics.MPLatency, int64(acked-tx.entry))
	m.Observe(metrics.MPSlotWait, int64(tx.handled-tx.entry))
	m.Observe(metrics.MPExecute, int64(tx.released-tx.handled))
	m.Observe(metrics.MPVoteWait, int64(tx.votesDurable-tx.released))
	m.Observe(metrics.MPMarkerWait, int64(acked-tx.votesDurable))
}

// runMPHandler executes fn, converting panics into aborts so a buggy
// handler cannot leave partition workers parked forever.
func runMPHandler(fn func(tx *MPTxn) error, tx *MPTxn) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: mp txn handler panicked: %v", rec)
		}
	}()
	return fn(tx)
}

// prepareAll collects every enlisted partition's vote: it queues the vote
// request on every leg (behind the fragments the handler left queued)
// before waiting for any. A vote is a pure rendezvous — no log write: a
// writing leg hands its logged op set back for the coordinator to append
// after all votes are in, and a read-only leg votes yes and releases its
// worker on the spot (its slot stays held until the decision window —
// releasing it early would let a conflicting transaction slip between this
// transaction's reads and its commit). Any non-nil vote is a veto; the
// first in partition order is returned.
func (tx *MPTxn) prepareAll() error {
	for _, sess := range tx.sess {
		if sess != nil {
			sess.SendPrepare()
		}
	}
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

// deliverAll queues the decision on every enlisted leg, then waits until
// each leg's in-memory state reflects it — the commit publications happen
// inside this call, which the caller covers with the publication lock.
// Read-only legs released at PREPARE are skipped.
func (tx *MPTxn) deliverAll(commit bool) error {
	var errs []error
	for _, sess := range tx.sess {
		if sess == nil {
			continue
		}
		if err := sess.SendDecision(commit); err != nil {
			errs = append(errs, err)
		}
	}
	for _, sess := range tx.sess {
		if sess != nil {
			sess.Published()
		}
	}
	return errors.Join(errs...)
}

// resolveAll waits for every delivered leg's final acknowledgement and
// lets go of the sessions: no fragment of the transaction is read after.
func (tx *MPTxn) resolveAll() {
	for i, sess := range tx.sess {
		if sess != nil {
			sess.Resolve()
			tx.sess[i] = nil
		}
	}
}

// finishAll is deliverAll + resolveAll — the abort path, which needs no
// publication lock (rollbacks publish nothing).
func (tx *MPTxn) finishAll(commit bool) error {
	derr := tx.deliverAll(commit)
	tx.resolveAll()
	return derr
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
