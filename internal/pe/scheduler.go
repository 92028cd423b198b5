package pe

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

// reqKind classifies queue entries.
type reqKind uint8

const (
	reqInvoke    reqKind = iota // direct OLTP procedure call
	reqBorder                   // border (BSP) batch from client ingest
	reqTriggered                // PE-triggered downstream (ISP) batch
	reqExec                     // ad-hoc write statement (own transaction)
	reqBarrier                  // drain marker
	reqMP                       // multi-partition leg: park on the 2PC barrier
)

// CallResult is the response to one request.
type CallResult struct {
	Result *Result
	Err    error
}

// Result mirrors ee.Result for clients of the partition engine.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int
}

type txnRequest struct {
	kind    reqKind
	proc    *Procedure
	params  []types.Value
	batch   []types.Row
	batchID uint64
	// inputStream / gcIDs identify the consumed stream tuples a triggered
	// execution must garbage-collect at commit.
	inputStream string
	gcIDs       []storage.RowID
	sqlText     string // for reqExec
	fn          func() error
	mp          *MPSession // for reqMP
	done        chan CallResult
	enqueued    time.Time
	// origin is the admission time of the chain's root request (border
	// ingest or OLTP call); PE-triggered descendants inherit it, so the
	// final stage's commit observes the workflow's end-to-end latency.
	origin time.Time
	// stats is the owning dataflow's counter set (nil for OLTP calls,
	// ad-hoc statements and replayed log records).
	stats *metrics.GraphStats
	// graph / tracked: the owning dataflow whose in-flight count this
	// request was admitted under (see Engine.graphTakeoff); tracked
	// requests retire the count when their execution finishes.
	graph   string
	tracked bool
	replay  bool // true during recovery: do not re-log
	// recycle marks a request dispatchEmits made: the worker takes it back,
	// buffers and all, once it has executed (Engine.recycle).
	recycle bool
}

// SchedulerMode selects the admission policy.
type SchedulerMode uint8

const (
	// ModeWorkflowSerial runs PE-triggered executions before any pending
	// border/client work. With a workflow whose procedures share writable
	// tables this yields the serial chain SP1(b), SP2(b), SP3(b) before
	// SP1(b+1) — the schedule §3.1 requires.
	ModeWorkflowSerial SchedulerMode = iota
	// ModeFIFO admits strictly in arrival order (triggered executions go
	// to the back). Legal only for workflows without shared writable
	// tables; provided for the scheduler ablation.
	ModeFIFO
)

// scheduler is the two-level priority FIFO feeding the partition worker.
// PE-triggered work never passes through it in ModeWorkflowSerial — the
// worker keeps those in a goroutine-local queue, so this lock only
// synchronizes client submissions.
type scheduler struct {
	mu           sync.Mutex
	cond         *sync.Cond
	triggered    []*txnRequest
	normal       []*txnRequest
	mode         SchedulerMode
	closed       bool
	idle         bool // worker parked with both queues empty
	drainWaiters int
}

func newScheduler(mode SchedulerMode) *scheduler {
	s := &scheduler{mode: mode}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *scheduler) push(r *txnRequest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if r.kind == reqTriggered && s.mode == ModeWorkflowSerial {
		s.triggered = append(s.triggered, r)
	} else {
		s.normal = append(s.normal, r)
	}
	s.cond.Signal()
	return true
}

// popAll blocks until work is available, then moves every queued request
// into buf (triggered first) in one lock acquisition — the partition worker
// then executes the batch without further synchronization.
func (s *scheduler) popAll(buf []*txnRequest) ([]*txnRequest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.triggered) > 0 || len(s.normal) > 0 {
			buf = append(buf, s.triggered...)
			buf = append(buf, s.normal...)
			s.triggered = s.triggered[:0]
			s.normal = s.normal[:0]
			return buf, true
		}
		if s.closed {
			return nil, false
		}
		s.idle = true
		if s.drainWaiters > 0 {
			s.cond.Broadcast() // wake Drain waiters
		}
		s.cond.Wait()
		s.idle = false
	}
}

func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.triggered) + len(s.normal)
}
