package core

// This file is the socket feed of the log applier (applier.go): a follower
// replica tails the primary's one log, hands the hardened records to the
// same applier crash recovery uses, and serves snapshot SELECTs from the
// replayed state. What is left here is what only a follower has: a cursor
// into a stream that has not ended yet, fetching, lag accounting, read
// sessions, and the decision to declare the stream final (Promote).
//
// A durable follower (one with a Dir) logs and forces each fetched batch
// under the primary's LSNs before applying it, restarts from its directory
// with its stream not final, and at promotion hands its log to engines.
//
// A failed fetch is retried, never taken for a dead primary: only the
// operator promotes (Promote, ALTER SYSTEM PROMOTE). The first answer after
// it must hold the frame at the follower's position, as after a restart,
// so another log at a re-dialed address is never tailed.
//
// Known limits, by design: a follower must attach, and restart, while the
// source still holds its position (a checkpoint keeps its cut's last
// record, so a follower stopped at the cut restarts; ErrShipGap, over the
// wire too, reports a truncated one: re-seed); it cannot follow a primary
// past its own partition count (re-seed a wider follower), nor a log that
// holds an earlier version's two-phase records (re-seed); and a
// coordinated commit's legs apply one partition after another, so a
// cross-partition read may see some of them, not an atomic cut.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// ReplBatch is one fetch's worth of shipped WAL: the intact frames past the
// follower's position and the log's current horizon LSN (for lag
// accounting; the horizon may be beyond the last returned frame when the
// byte budget truncated the batch).
type ReplBatch struct {
	Frames []wal.Frame
	EndLSN uint64
}

// ReplicationSource feeds a follower hardened WAL frames. Implementations:
// a durable primary *Store (in-process replica sets) and client.TCP (a
// second sstored following over the wire).
type ReplicationSource interface {
	FetchBatch(afterLSN uint64, maxBytes int) (ReplBatch, error)
}

// FetchBatch reads the hardened WAL frames of the store's log past
// afterLSN. It reads the log file directly rather than hooking the log
// writer: the read is race-free against Stop, ships only what an fsync made
// real, and keeps working after the primary process died — which is
// exactly when a promoting follower drains the tail.
func (s *Store) FetchBatch(afterLSN uint64, maxBytes int) (ReplBatch, error) {
	if s.cfg.Dir == "" {
		return ReplBatch{}, fmt.Errorf("core: replication requires a durable primary (no Dir configured)")
	}
	frames, end, err := wal.ReadFrames(wal.LogPath(s.cfg.Dir), afterLSN, maxBytes)
	return ReplBatch{Frames: frames, EndLSN: end}, err
}

// LSN returns the LSN of the last record appended to the store's log (0
// without one) — the write position a ReplicaSession forwards to get
// read-your-writes on a follower. An acknowledged write's record is at or
// before it.
func (s *Store) LSN() uint64 {
	if s.log == nil {
		return 0
	}
	return s.log.LSN()
}

// errReadOnlyReplica refuses a follower's every statement but SELECT and
// ALTER SYSTEM PROMOTE.
var errReadOnlyReplica = errors.New("core: this node is a read-only replica; it runs SELECT and ALTER SYSTEM PROMOTE")

// A follower's fixed limits: one fetch's payload, the idle delay between
// fetches, the delay after a failed one, and how long a session read waits
// for the follower to catch up to its LSN vector.
const (
	followerBatchBytes  = 1 << 20
	followerPoll        = 2 * time.Millisecond
	followerRetry       = 50 * time.Millisecond
	followerReadTimeout = 5 * time.Second
)

// replStream is the shipped log's cursor state. Owned by the apply
// goroutine except applied, which readers poll for session waits.
type replStream struct {
	applied atomic.Uint64 // every record up to it is taken and applied into storage
	horizon uint64        // last LSN known present in the source's log
	// last is the payload of the record at applied (nil if none). check
	// asks the source's next answer to hold that same frame first: set at
	// a restart and after every failed fetch, cleared once it matched.
	last  []byte
	check bool
}

// Follower is a read replica: a never-started Store kept by replay of the
// primary's shipped WAL, logged in its own directory if it has one. Reads
// are served from MVCC snapshots (pe.Engine.QueryAtSeq needs no partition
// worker); Promote, or the statement ALTER SYSTEM PROMOTE, turns it into a
// live primary. Nothing else does.
//
// The follower Store must be opened with the same DDL, procedures,
// dataflows, and partition count as the primary — replay executes the
// primary's logged procedure invocations against the local catalog.
type Follower struct {
	st  *Store
	src ReplicationSource

	// Owned by the apply goroutine, then by Promote once it has joined it.
	ap   *applier
	strm *replStream

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	running  atomic.Bool
	life     sync.Mutex // serializes Promote and Stop
	stopped  bool
	promoted atomic.Bool // set once Promote has succeeded
}

// NewFollower wires a follower replica over src. st must be a never-started
// Store with the primary's schema already applied (a durable one recovers
// from its directory first); call Run to start replication.
func NewFollower(st *Store, src ReplicationSource) (*Follower, error) {
	if st.partList()[0].pe.Started() {
		return nil, fmt.Errorf("core: follower store must not be started; replay requires stopped partition engines")
	}
	if ps, ok := src.(*Store); ok && ps.NumPartitions() != st.NumPartitions() {
		return nil, fmt.Errorf("core: follower has %d partitions, primary has %d; counts must match", st.NumPartitions(), ps.NumPartitions())
	}
	f := &Follower{
		st:   st,
		src:  src,
		strm: &replStream{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	st.follower = f
	if st.cfg.Dir == "" {
		f.ap = newApplier(st)
		return f, nil
	}
	// Recover's passes with the stream not final; no engine logs to the
	// log until Promote.
	ap, logs, err := st.loadDir()
	if err == nil && len(logs) > 1 {
		err = fmt.Errorf("core: %s holds one log per partition, as followers of earlier versions wrote; re-seed the follower", st.cfg.Dir)
	}
	if err == nil {
		err = st.replayDir(ap, logs, f.strm, false)
	}
	if err != nil {
		st.recoverErr = err
		st.Stop() // closes the log if replay got to open it
		return nil, err
	}
	f.ap, st.recovered = ap, true
	return f, nil
}

// Store exposes the follower's underlying store (stats, catalog). Do not
// write to it or start it (Promote does), nor stop it unpromoted (Stop does).
func (f *Follower) Store() *Store { return f.st }

// Err returns the sticky fatal error, if replication has diverged (a gap,
// or a record that cannot decode, fold or replay): its store's Err, since
// divergence stops the follower's store as a log failure stops a primary.
func (f *Follower) Err() error { return f.st.Err() }

// Lag returns the replication lag in log records (horizon minus applied;
// LSNs are dense, so the difference counts records).
func (f *Follower) Lag() int64 { return f.st.met.Load(metrics.ReplLag) }

// Applied returns the LSN up to which the follower has applied the log — a
// monotone caught-up-ness score: promote the follower with the highest.
func (f *Follower) Applied() uint64 { return f.strm.applied.Load() }

// Run starts the apply loop. One background goroutine owns all replication
// state; reads run on caller goroutines against MVCC snapshots, exactly as
// they do against a live primary's writer.
func (f *Follower) Run() error {
	if f.promoted.Load() {
		return fmt.Errorf("core: follower was promoted")
	}
	if !f.running.CompareAndSwap(false, true) {
		return fmt.Errorf("core: follower already running")
	}
	go f.run()
	return nil
}

func (f *Follower) run() {
	defer close(f.done)
	for wait := time.Duration(0); ; {
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
		progress, err := f.pollOnce()
		switch {
		case f.Err() != nil:
			return // diverged: hold state for inspection, refuse promotion
		case err != nil:
			wait = followerRetry
		case progress:
			wait = 0
		default:
			wait = followerPoll
		}
	}
}

// pollOnce runs one fetch-and-apply round. It returns whether any frame
// was applied, plus the fetch error, after which the next
// answer is checked against the frame at applied: it may come from another
// log. Divergence and apply failures set the sticky error.
func (f *Follower) pollOnce() (progress bool, fetchErr error) {
	strm := f.strm
	at := strm.applied.Load()
	after := at
	if strm.check {
		after-- // fetch the frame at applied too, to check it
	}
	batch, err := f.src.FetchBatch(after, followerBatchBytes)
	if err != nil {
		f.st.met.Add(metrics.ReplFetchErrors, 1)
		strm.check = strm.last != nil
		if errors.Is(err, wal.ErrShipGap) {
			f.st.fail(err) // the source no longer holds this position
		}
		return false, err
	}
	f.st.lastFetch.Store(time.Now().UnixNano())
	frames := batch.Frames
	if strm.check {
		if len(frames) == 0 || frames[0].LSN != at {
			f.st.fail(fmt.Errorf("core: the source holds no record at LSN %d to check the log against: %w",
				at, wal.ErrShipGap))
			return false, nil
		}
		if !bytes.Equal(frames[0].Payload, strm.last) {
			f.st.fail(fmt.Errorf("core: the log diverges from its source at LSN %d: "+
				"the directory was promoted or follows another primary", at))
			return false, nil
		}
		strm.check, frames = false, frames[1:]
	}
	if err := f.take(frames); err != nil {
		f.st.fail(err)
		return false, nil
	}
	strm.horizon = max(strm.horizon, batch.EndLSN)
	f.updateLag()
	return len(frames) > 0, nil
}

// take applies shipped frames: appended to the follower's own log and
// forced when it has one, and only then folded and applied, so whatever
// the follower applies is already on its disk.
func (f *Follower) take(frames []wal.Frame) error {
	if l := f.st.log; l != nil && len(frames) > 0 {
		if err := l.AppendFrames(frames); err != nil {
			return err
		}
		if err := l.SyncNow(); err != nil {
			return err
		}
	}
	for _, fr := range frames {
		part, rec, err := f.ap.entry(fr.Payload, -1)
		if err == nil {
			err = f.ap.fold(rec)
		}
		if err == nil {
			err = f.ap.apply(fr.LSN, part, rec, false)
		}
		if err != nil {
			return fmt.Errorf("core: replicated record at LSN %d: %w", fr.LSN, err)
		}
		f.strm.last = fr.Payload
		f.strm.applied.Store(fr.LSN)
	}
	return nil
}

// updateLag refreshes the replication gauges: lag is the records known
// hardened on the primary but not yet applied here.
func (f *Follower) updateLag() {
	lag := int64(0)
	if h, a := f.strm.horizon, f.strm.applied.Load(); h > a {
		lag = int64(h - a)
	}
	f.st.met.Store(metrics.ReplLag, lag)
	f.st.met.Store(metrics.ReplRecordsApplied, f.ap.replayed)
}

// Promote turns the follower into a live primary: stop the apply loop,
// drain every stream to its end (file reads outlive the primary process, so
// an in-process drain reaches the hardened tail even after a crash),
// finish exactly as crash recovery would, make each
// partition its engine's logger on the log it already has, and start the
// partition workers. The returned Store is the follower's own store, now
// serving reads and writes; a crash of a durable one is a Recover.
//
// Every acknowledged write survives promotion: an ack implies the record
// was fsynced on the primary, fsynced records are exactly what FetchBatch
// ships, and the drain loops until the log is dry.
func (f *Follower) Promote() (*Store, error) {
	f.life.Lock()
	defer f.life.Unlock()
	switch {
	case f.stopped:
		return nil, fmt.Errorf("core: follower was stopped")
	case f.promoted.Load():
		return nil, fmt.Errorf("core: follower already promoted")
	}
	f.halt()
	// Final drain: pull until a full round moves nothing. A fetch error
	// stops a round from progressing (a dead wire source, whose fetch and
	// re-dial are bounded in time), which ends the loop with whatever was
	// already hardened and shipped; a gap or a divergence is sticky and
	// refuses promotion.
	for progress := true; ; progress, _ = f.pollOnce() {
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("core: cannot promote a diverged follower: %w", err)
		}
		if !progress {
			break
		}
	}
	err := f.settle()
	if err == nil {
		err = f.st.Start()
	}
	if err != nil {
		f.st.fail(err) // a failed promotion is not retried; Stop closes the store
		return nil, err
	}
	f.promoted.Store(true)
	f.st.met.Add(metrics.Promotions, 1)
	return f.st, nil
}

// Stop ends a follower that was not promoted: it joins the apply loop,
// then stops the store, which syncs and closes its logs. Once Promote has
// succeeded, Stop does nothing: the promoted store is the caller's to stop.
func (f *Follower) Stop() error {
	f.life.Lock()
	defer f.life.Unlock()
	if f.stopped || f.promoted.Load() {
		return nil
	}
	f.stopped = true
	f.halt()
	return f.st.Stop()
}

// Promoted reports whether Promote has succeeded.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// halt stops the apply loop and waits for it to exit.
func (f *Follower) halt() {
	f.stopOnce.Do(func() { close(f.stop) })
	if f.running.Load() {
		<-f.done
	}
}

// settle declares the stream final: the applier finishes exactly as crash
// recovery does. The rows of migrated slots already sit on their new
// owners, so unlike recovery nothing is rehomed. Last, each partition
// becomes its engine's logger on the log the follower already has.
func (f *Follower) settle() error {
	if err := f.ap.finish(); err != nil {
		return err
	}
	f.updateLag()
	if f.st.log != nil {
		for _, p := range f.st.partList() {
			p.pe.SetLogger(p, f.st.cfg.LogMode)
		}
	}
	return nil
}

// Query runs a read-only SELECT against the follower's replayed state (no
// session ordering constraint), or ALTER SYSTEM PROMOTE.
func (f *Follower) Query(sqlText string, params ...types.Value) (*pe.Result, error) {
	res, _, err := f.query(0, sqlText, params)
	return res, err
}

// query is the follower's door to the snapshot read path: wait for the
// session's LSN floor, then read a cut of the replayed state. It returns the
// applied LSN observed before the cut, which the session folds back in for
// monotonic reads.
func (f *Follower) query(min uint64, sqlText string, params []types.Value) (*pe.Result, uint64, error) {
	if res, handled, err := f.st.systemStatement(sqlText); handled {
		return res, 0, err
	}
	if f.promoted.Load() {
		return nil, 0, fmt.Errorf("core: follower was promoted; query the promoted store directly")
	}
	if err := f.waitApplied(min); err != nil {
		return nil, 0, err
	}
	if err := parseSelect(sqlText, errReadOnlyReplica.Error()); err != nil {
		return nil, 0, err
	}
	f.st.met.Add(metrics.FollowerReads, 1)
	// The applied LSN is stored after each record's publish, so state
	// applied up to it is visible to the cut acquired below.
	seen := f.strm.applied.Load()
	res, err := f.st.readLatest(false, sqlText, params)
	if err != nil {
		return nil, 0, err
	}
	return res, seen, nil
}

// waitApplied blocks until the follower has applied the log up to min (a
// primary's LSN), within the read timeout.
func (f *Follower) waitApplied(min uint64) error {
	deadline := time.Now().Add(followerReadTimeout)
	for f.strm.applied.Load() < min {
		if err := f.Err(); err != nil {
			return err
		}
		if f.promoted.Load() {
			return fmt.Errorf("core: follower was promoted; query the promoted store directly")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: replica read timed out waiting for LSN %d (applied %d)", min, f.strm.applied.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// ReplicaSession orders one client's follower reads: Forward installs a
// floor (the primary's LSN after a write, for read-your-writes), and each
// successful Query raises the floor to the state it observed (monotonic
// reads across queries).
type ReplicaSession struct {
	f   *Follower
	mu  sync.Mutex
	min uint64
}

// Session opens a read session on the follower.
func (f *Follower) Session() *ReplicaSession { return &ReplicaSession{f: f} }

// Forward raises the session's LSN floor to lsn if it is lower.
func (rs *ReplicaSession) Forward(lsn uint64) {
	rs.mu.Lock()
	rs.min = max(rs.min, lsn)
	rs.mu.Unlock()
}

// Query runs a SELECT no staler than the session floor.
func (rs *ReplicaSession) Query(sqlText string, params ...types.Value) (*pe.Result, error) {
	rs.mu.Lock()
	min := rs.min
	rs.mu.Unlock()
	res, seen, err := rs.f.query(min, sqlText, params)
	if err != nil {
		return nil, err
	}
	rs.Forward(seen)
	return res, nil
}
