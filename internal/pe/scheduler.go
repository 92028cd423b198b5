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
	reqBarrier                  // drain marker
	reqMP                       // multi-partition leg: park on the 2PC barrier
	reqLeg                      // committed multi-partition leg re-applied at replay
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
	ops         []LoggedOp // for reqLeg
	fn          func() error
	mp          *MPSession // for reqMP, whose request this is (MPSession.req)
	done        chan CallResult
	// origin is the queue stamp of a request that crosses the scheduler (a
	// call, a border batch, resumed work, an MP leg): its admission.
	// PE-triggered descendants inherit their chain root's, so the final
	// stage's commit observes the workflow's end-to-end latency. started
	// and committed are the worker's stamps at execution start and at the
	// in-memory commit; Engine.observe turns the three and the ack's into
	// the stage rows.
	origin, started, committed Stamp
	// stats is the owning dataflow's counter set (nil for OLTP calls,
	// ad-hoc statements and replayed log records).
	stats *metrics.GraphStats
	// graph is the owning dataflow (empty for OLTP calls, ad-hoc statements
	// and replayed log records). A request with a graph counts in that
	// graph's in-flight total from admission until it executes or the
	// pause gate defers it (see Engine.graphTakeoff).
	graph  string
	replay bool // true during recovery: do not re-log, never deferred
	// recycle marks a request dispatchEmits made: the worker takes it back,
	// buffers and all, once it has executed (Engine.recycle).
	recycle bool
}

// A Stamp is an instant on the monotonic clock, in nanoseconds since
// stampBase; 0 is no stamp. Two stamps subtract to a span. A request
// carries three: one word each, not a time.Time's three, so it stays in
// its allocation size class. The coordinator stamps a coordinated write's
// stages on the same clock (core.MPTxn).
type Stamp int64

var stampBase = time.Now()

// Now stamps the present.
func Now() Stamp { return Stamp(time.Since(stampBase)) + 1 }

// scheduler is the FIFO feeding the partition worker: client submissions,
// border batches and resumed executions, in admission order. PE-triggered
// work never passes through it — the worker runs a chain to its end before
// it takes the next request (Engine.runChain).
type scheduler struct {
	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*txnRequest
	closed       bool
	idle         bool // worker parked with the queue empty
	drainWaiters int
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *scheduler) push(r *txnRequest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.queue = append(s.queue, r)
	s.cond.Signal()
	return true
}

// popAll blocks until work is available, then moves every queued request
// into buf in one lock acquisition — the partition worker then executes the
// batch without further synchronization.
func (s *scheduler) popAll(buf []*txnRequest) ([]*txnRequest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 {
			buf = append(buf, s.queue...)
			clear(s.queue)
			s.queue = s.queue[:0]
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

// drain blocks until the queue is empty and the worker has parked on it —
// every request pushed before the call, with the chains it started, has
// executed or been deferred by the pause gate — or the scheduler closes.
func (s *scheduler) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainWaiters++
	for !s.closed && !(len(s.queue) == 0 && s.idle) {
		s.cond.Wait()
	}
	s.drainWaiters--
}

func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
