package ee

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// TE-scoped memory (DESIGN.md §1.6.3). Most of what a statement allocates
// dies with the transaction execution that ran it: projected rows, Result
// headers and their row lists, a subquery's value set, UPDATE's new image
// before storage takes its own copy, INSERT's evaluated rows, match lists,
// a window slide's entered / evicted lists, the statement's parameters. An
// ExecCtx carries a scratch all of that is taken from. The owner of a
// long-lived context (the partition worker, the snapshot-read pool) calls
// ExecCtx.Reset between executions and the memory is used again; a context
// nobody resets (an MP leg, a seeding loop) just keeps taking fresh chunks,
// and the garbage collector frees the old ones once their results are
// dropped.
//
// The contract this puts on callers: a *Result, its rows, and every row a
// trigger body or OnStreamInsert hook is handed are valid until the
// context's next Reset. Whatever must outlive that is copied out
// (types.CloneRows).

const (
	// scratchRetain bounds, in elements, the chunk a slab keeps across a
	// Reset, so one bulk statement (DELETE FROM votes: a match list of every
	// row) cannot pin its high-water mark for the life of the worker. It is
	// also the largest chunk growth asks for on its own account.
	scratchRetain = 2048
	// scratchList is the capacity a list starts with (slab.push).
	scratchList = 4
	// subSetLinear is the size up to which an IN-subquery's value set is
	// probed by walking its list; past it the set builds a hash map.
	subSetLinear = 8
)

// slab hands out slices of T from one chunk, bump-allocated. A request the
// chunk cannot hold starts a new chunk and abandons the old one to whoever
// still holds slices of it; nothing handed out ever moves.
type slab[T any] struct {
	buf []T // the current chunk; its length is what has been handed out
}

// reserve makes room for n more elements in the current chunk, starting a
// new one if it must. A slab's first chunk is the first request, exactly,
// and chunks double from there: a read on a fresh context pays for what it
// returns, not for a vote's worth of scratch, and a reused context settles
// on one chunk that holds a whole TE.
func (s *slab[T]) reserve(n int) {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, min(2*cap(s.buf), scratchRetain)))
	}
}

// take returns n zeroed elements. The slice's capacity ends with it, so an
// append to it can never run into a neighbour.
func (s *slab[T]) take(n int) []T {
	s.reserve(n)
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// push appends v to list, a slice this slab handed out (or nil), moving the
// list to a larger piece of the slab when it is full. The old piece stays
// where it is until the next reset.
func (s *slab[T]) push(list []T, v T) []T {
	if len(list) == cap(list) {
		grown := s.take(max(2*cap(list), scratchList))
		list = grown[:copy(grown, list)]
	}
	return append(list, v)
}

// copyOf returns src copied into the slab.
func (s *slab[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := s.take(len(src))
	copy(dst, src)
	return dst
}

// reset takes back everything handed out. It clears what was used, not
// what is retained: the cost of a reset is the size of the TE it ends,
// whatever an earlier TE grew the chunk to. Chunks abandoned on the way
// were never cleared and need not be; a chunk past scratchRetain is let go.
func (s *slab[T]) reset() {
	if cap(s.buf) > scratchRetain {
		s.buf = nil
		return
	}
	clear(s.buf)
	s.buf = s.buf[:0]
}

// stack hands out frames for nested executions (a statement, its
// subqueries, the trigger bodies it fires) and takes them back in LIFO
// order. Frames are allocated once and stay where they are. The outermost
// frame has a field of its own: most contexts never nest, and a fresh one
// then allocates the frame and nothing to hold it.
type stack[T any] struct {
	outer *T
	inner []*T // frames of depth 2 and up
	n     int
}

func (s *stack[T]) push() *T {
	s.n++
	if s.n == 1 {
		if s.outer == nil {
			s.outer = new(T)
		}
		return s.outer
	}
	if s.n-1 > len(s.inner) {
		s.inner = append(s.inner, new(T))
	}
	return s.inner[s.n-2]
}

// pop returns the newest frame, zeroed so it holds nothing alive.
func (s *stack[T]) pop() {
	f := s.outer
	if s.n > 1 {
		f = s.inner[s.n-2]
	}
	var zero T
	*f = zero
	s.n--
}

// scratch is an ExecCtx's TE-scoped memory. The zero value is ready.
type scratch struct {
	vals    slab[types.Value]
	rows    slab[types.Row]
	ids     slab[storage.RowID]
	results slab[Result]
	subs    slab[subResult]
	outs    slab[outRow] // ORDER BY heaps
	aggs    slab[aggState]
	runs    stack[selectRun]
	ecs     stack[evalCtx]
	hits    storage.LookupBuf // a snapshot lookup's id and hit lists
}

func (m *scratch) reset() {
	m.vals.reset()
	m.rows.reset()
	m.ids.reset()
	m.results.reset()
	m.subs.reset()
	m.outs.reset()
	m.aggs.reset()
}

// result returns a Result header from the scratch.
func (m *scratch) result(cols []string, rows []types.Row, affected int) *Result {
	r := &m.results.take(1)[0]
	r.Columns, r.Rows, r.RowsAffected = cols, rows, affected
	return r
}

// Reset ends the context's use by one transaction execution and readies it
// for the next: every field returns to its zero value and the scratch
// takes back what the TE's statements were given, so every Result, row and
// list obtained through the context is invalid from here on. Only the
// context's owner may call it, between executions. A context that is never
// reset is fine: it is then never reused either.
func (c *ExecCtx) Reset() {
	c.mem.reset()
	mem := c.mem
	*c = ExecCtx{mem: mem}
}
