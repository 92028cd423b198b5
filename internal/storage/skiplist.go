package storage

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// skiplist is the ordered index: keys sorted by types.Row.Compare, each
// key node holding the RowIDs indexed under it. A deterministic xorshift
// generator drives level assignment so index shape (and therefore
// benchmarks) are reproducible run to run.
//
// The structure is single-writer / many-reader with zero reader locks:
// tower links and a node's RowID list are atomic pointers, and a published
// list is only appended to beyond every reader's length or replaced whole,
// so a snapshot reader traversing mid-mutation sees either the old or the
// new state of any link or list, never a torn one. Unlinked key nodes are
// epoch-retired (epoch.go) — a straggling reader that entered before the
// unlink keeps a fully intact node, including its outgoing links, until
// every such reader exits.
const maxLevel = 24

// slNode is one key's index entry, a single allocation (DESIGN.md §1.6.1):
// the key, one RowID and a tower of exactly as many lanes as the node's
// height class all live in it, so the common entry — a single-column key
// indexing one row — costs nothing beyond the node. An entry says only
// that some version of the row carries the key; readers ask the version
// chain whether it is visible (index.go).
//
// k0, nk and id are immutable once the node is published. The fields are
// rewritten in place only between pool reuse and republication, when the
// epoch grace period guarantees no reader holds the node — which is also
// why a reader must not keep a key slice (it aliases the node) past its
// epoch.
type slNode struct {
	// k0 is a single-column key itself; a multi-column key is a private
	// clone of its columns, held here as a VARCHAR whose bytes are the
	// clone's (key reads it back), so either way the key is one word pair
	// that keeps what it points at alive.
	k0 types.Value

	// id is the node's first RowID, current while more is nil. Once a
	// second arrives the full list moves to more and id freezes.
	id   RowID
	more atomic.Pointer[[]RowID]

	nk    uint32 // key columns
	class uint8  // index into slClasses: which tower follows
}

// The node type family. A node's tower is allocated with the node, sized
// by the drawn height rounded up to a class, and reached by offset from
// the node (lane) — a hop between nodes is one dependent load, as with a
// fixed array, but nine keys in ten carry one or three lanes, not 24.
type (
	slNode1 struct {
		slNode
		tower [1]atomic.Pointer[slNode]
	}
	slNode3 struct {
		slNode
		tower [3]atomic.Pointer[slNode]
	}
	slNode7 struct {
		slNode
		tower [7]atomic.Pointer[slNode]
	}
	slNode24 struct {
		slNode
		tower [maxLevel]atomic.Pointer[slNode]
	}
)

const (
	towerOff = unsafe.Offsetof(slNode1{}.tower)
	laneSize = unsafe.Sizeof(atomic.Pointer[slNode]{})
)

// Every family member keeps its tower at the same offset (compile-time:
// a non-zero index into a one-element array does not build).
var _ = [1]struct{}{}[(unsafe.Offsetof(slNode3{}.tower)-towerOff)|
	(unsafe.Offsetof(slNode7{}.tower)-towerOff)|(unsafe.Offsetof(slNode24{}.tower)-towerOff)]

// slClass is one member of the family: its lane count, the heap bytes of
// one node, and the pool epoch-retired nodes of the class return to.
type slClass struct {
	lanes int
	bytes int64
	pool  sync.Pool
}

var slClasses = [...]slClass{
	{lanes: 1, bytes: allocBytes(unsafe.Sizeof(slNode1{})), pool: sync.Pool{New: func() any { return &new(slNode1).slNode }}},
	{lanes: 3, bytes: allocBytes(unsafe.Sizeof(slNode3{})), pool: sync.Pool{New: func() any { return &new(slNode3).slNode }}},
	{lanes: 7, bytes: allocBytes(unsafe.Sizeof(slNode7{})), pool: sync.Pool{New: func() any { return &new(slNode7).slNode }}},
	{lanes: maxLevel, bytes: allocBytes(unsafe.Sizeof(slNode24{})), pool: sync.Pool{New: func() any { return &new(slNode24).slNode }}},
}

// allocBytes is what the heap hands out for an n-byte object: n rounded up
// to its allocator size class. append rounds a slice's growth the same way,
// so the class is read off it rather than copied from the runtime's table
// (exact up to 512 B, where an object holding pointers gains no header).
func allocBytes(n uintptr) int64 {
	return int64(cap(append([]byte(nil), make([]byte, n)...)))
}

// listBoxBytes is the box a published RowID list's header lives in.
var listBoxBytes = allocBytes(unsafe.Sizeof([]RowID(nil)))

// listBytes is what a published RowID list holds on the heap: its box and
// its array, whose capacity append and slices.Grow round to a size class.
func listBytes(p *[]RowID) int64 {
	if p == nil {
		return 0
	}
	return listBoxBytes + int64(cap(*p))*int64(unsafe.Sizeof(RowID(0)))
}

// classOf returns the smallest class whose tower holds lvl lanes.
func classOf(lvl int) uint8 {
	c := 0
	for slClasses[c].lanes < lvl {
		c++
	}
	return uint8(c)
}

// lane returns the node's level-i link. n heads an slNode<k> allocation
// and i must be below its class's lane count; every caller reaches lane i
// of a node through a level-i link to it (or holds the 24-lane head), and
// a node is linked at exactly the levels below its drawn height.
func (n *slNode) lane(i int) *atomic.Pointer[slNode] {
	return (*atomic.Pointer[slNode])(unsafe.Add(unsafe.Pointer(n), towerOff+uintptr(i)*laneSize))
}

// key returns the node's key. The slice aliases the node or its clone:
// valid inside the caller's epoch only.
func (n *slNode) key() types.Row {
	if n.nk <= 1 {
		return unsafe.Slice(&n.k0, n.nk)
	}
	return unsafe.Slice((*types.Value)(unsafe.Pointer(unsafe.StringData(n.k0.Str()))), n.nk)
}

// ids returns the node's RowIDs: the published list, else the inline id
// copied into buf. The result is immutable; callers must not modify it.
func (n *slNode) ids(buf *[1]RowID) []RowID {
	if p := n.more.Load(); p != nil {
		return *p
	}
	buf[0] = n.id
	return buf[:]
}

type skiplist struct {
	head   *slNode
	length int // worker-only: distinct keys
	rng    uint64
	em     *EpochManager
	bytes  atomic.Int64 // heap bytes of linked nodes, their cloned keys and RowID lists
}

func newSkiplist(em *EpochManager) *skiplist {
	return &skiplist{head: &new(slNode24).slNode, rng: 0x9E3779B97F4A7C15, em: em}
}

func (s *skiplist) randLevel() int {
	// xorshift64*; take one level per set low bit pair (p = 1/4 per level).
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	x *= 0x2545F4914F6CDD1D
	lvl := 1
	for lvl < maxLevel && x&3 == 0 {
		lvl++
		x >>= 2
	}
	return lvl
}

// findPredecessors fills update with the rightmost node at each level whose
// key is strictly less than key, returning the candidate node (which may or
// may not match key). Descends from the top level unconditionally — unused
// high levels cost one nil check each — so readers need no shared level
// counter. Safe from reader goroutines inside an epoch.
func (s *skiplist) findPredecessors(key types.Row, update *[maxLevel]*slNode) *slNode {
	x := s.head
	for i := maxLevel - 1; i >= 0; i-- {
		for {
			nx := x.lane(i).Load()
			if nx == nil || nx.key().Compare(key) >= 0 {
				break
			}
			x = nx
		}
		update[i] = x
	}
	return x.lane(0).Load()
}

// find returns key's node and, in update, its predecessors; nil when the
// key is absent.
func (s *skiplist) find(key types.Row, update *[maxLevel]*slNode) *slNode {
	if cand := s.findPredecessors(key, update); cand != nil && cand.key().Compare(key) == 0 {
		return cand
	}
	return nil
}

// insert returns key's node when it exists, leaving it as it is for the
// caller to check and push to; otherwise it links a new node holding only
// id, in the same descent, and returns nil. key is copied, never retained.
func (s *skiplist) insert(key types.Row, id RowID) *slNode {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand != nil && cand.key().Compare(key) == 0 {
		return cand
	}
	lvl := s.randLevel()
	n := s.newNode(key, lvl)
	n.id = id
	for i := 0; i < lvl; i++ {
		n.lane(i).Store(update[i].lane(i).Load())
	}
	// Publish bottom-up: once a level links the node, every lower level
	// already does, so a reader descending into n never falls off.
	for i := 0; i < lvl; i++ {
		update[i].lane(i).Store(n)
	}
	s.length++
	return nil
}

// push appends id to n's RowIDs: in place when the published list has room
// (beyond every reader's length), else into a new array. Worker-only.
func (s *skiplist) push(n *slNode, id RowID) {
	if p := n.more.Load(); p != nil {
		s.publish(n, append(*p, id))
	} else {
		s.publish(n, []RowID{n.id, id})
	}
}

// publish makes nw n's RowID list, moving the charge of the list it
// replaces to it.
func (s *skiplist) publish(n *slNode, nw []RowID) {
	s.bytes.Add(listBytes(&nw) - listBytes(n.more.Load()))
	n.more.Store(&nw)
}

// newNode draws a node of lvl's class from its pool and installs a private
// copy of key. Pooled nodes arrive scrubbed: more and every lane nil.
func (s *skiplist) newNode(key types.Row, lvl int) *slNode {
	c := classOf(lvl)
	n := slClasses[c].pool.Get().(*slNode)
	n.class, n.nk = c, uint32(len(key))
	switch {
	case len(key) == 1:
		n.k0 = key[0]
	case len(key) > 1:
		clone := key.Clone()
		n.k0 = types.NewString(unsafe.String((*byte)(unsafe.Pointer(&clone[0])), len(clone)))
	}
	s.bytes.Add(n.heapBytes())
	return n
}

// scrub clears a retired node once its grace period is over (freeBin), so
// a pooled node keeps no key, RowID list or chain of successors alive.
func (n *slNode) scrub() {
	n.k0 = types.Value{}
	n.more.Store(nil)
	for i := 0; i < slClasses[n.class].lanes; i++ {
		n.lane(i).Store(nil)
	}
}

// heapBytes is what the node itself holds on the heap: its allocation and
// a cloned multi-column key. Its RowID list is charged as it is published.
func (n *slNode) heapBytes() int64 {
	b := slClasses[n.class].bytes
	if n.nk > 1 {
		b += int64(n.nk) * int64(unsafe.Sizeof(types.Value{}))
	}
	return b
}

// erase removes id from key's node. Worker-only.
func (s *skiplist) erase(key types.Row, id RowID) {
	var update [maxLevel]*slNode
	if n := s.find(key, &update); n != nil {
		s.without(n, &update, func(o RowID) bool { return o == id })
	}
}

// without republishes n's RowIDs less those gone reports, unlinking and
// retiring n when none is left; update holds n's predecessors, or is nil
// and they are looked up only if needed. What remains is a fresh list,
// never a shorter header on the old array: push appends in place, which is
// only safe while no shorter list shares its array. Worker-only.
func (s *skiplist) without(n *slNode, update *[maxLevel]*slNode, gone func(RowID) bool) {
	var one [1]RowID
	ids := n.ids(&one)
	left := 0
	for _, id := range ids {
		if !gone(id) {
			left++
		}
	}
	switch left {
	case len(ids):
	case 0:
		if update == nil {
			update = new([maxLevel]*slNode)
			s.find(n.key(), update)
		}
		s.unlink(n, update)
	default:
		keep := slices.Grow([]RowID(nil), left) // capacity rounded to the size class, as listBytes counts it
		for _, id := range ids {
			if !gone(id) {
				keep = append(keep, id)
			}
		}
		s.publish(n, keep)
	}
}

// goneID is an id a GC sweep takes from node n of list s.
type goneID struct {
	s  *skiplist
	n  *slNode
	id RowID
}

// collect is a sweep's erase: a node holding only its inline id is unlinked
// at once, in the descent that found it, and an id in a list is appended
// to gone for eraseGone. Worker-only.
func (s *skiplist) collect(gone []goneID, key types.Row, id RowID) []goneID {
	var update [maxLevel]*slNode
	switch n := s.find(key, &update); {
	case n == nil:
	case n.more.Load() == nil:
		s.without(n, &update, func(o RowID) bool { return o == id })
	default:
		gone = append(gone, goneID{s: s, n: n, id: id})
	}
	return gone
}

// eraseGone erases the list entries a sweep collected, grouped by node:
// one new list per node however many of its ids leave, where erasing them
// one at a time would copy a list of N ids N times. Worker-only.
func eraseGone(gone []goneID) {
	slices.SortFunc(gone, func(a, b goneID) int {
		if c := cmp.Compare(uintptr(unsafe.Pointer(a.n)), uintptr(unsafe.Pointer(b.n))); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for len(gone) > 0 {
		j := 1
		for j < len(gone) && gone[j].n == gone[0].n {
			j++
		}
		group := gone[:j]
		group[0].s.without(group[0].n, nil, func(id RowID) bool {
			_, found := slices.BinarySearchFunc(group, id, func(g goneID, id RowID) int { return cmp.Compare(g.id, id) })
			return found
		})
		gone = gone[j:]
	}
}

// unlink removes an emptied node from every level (top-down, so higher
// search lanes stop routing through it first) and retires it; update holds
// its predecessors. A reader already on n keeps following its intact
// links until the grace period expires.
func (s *skiplist) unlink(n *slNode, update *[maxLevel]*slNode) {
	for i := maxLevel - 1; i >= 0; i-- {
		if update[i].lane(i).Load() == n {
			update[i].lane(i).Store(n.lane(i).Load())
		}
	}
	s.length--
	s.bytes.Add(-n.heapBytes() - listBytes(n.more.Load()))
	s.em.RetireSLNode(n)
}

// lookup appends to dst the RowIDs entered under key. Safe from reader
// goroutines inside an epoch.
func (s *skiplist) lookup(key types.Row, dst []RowID) []RowID {
	var update [maxLevel]*slNode
	var one [1]RowID
	if n := s.find(key, &update); n != nil {
		dst = append(dst, n.ids(&one)...)
	}
	return dst
}

// scan visits the entries with keys in [lo, hi] (nil = unbounded) in
// ascending key order. The key handed to fn aliases the node: fn must copy
// what it keeps. Safe from reader goroutines inside an epoch.
func (s *skiplist) scan(lo, hi types.Row, fn func(key types.Row, id RowID) bool) {
	var x *slNode
	if lo == nil {
		x = s.head.lane(0).Load()
	} else {
		var update [maxLevel]*slNode
		x = s.findPredecessors(lo, &update)
	}
	var one [1]RowID
	for ; x != nil; x = x.lane(0).Load() {
		key := x.key()
		if hi != nil && key.Compare(hi) > 0 {
			return
		}
		for _, id := range x.ids(&one) {
			if !fn(key, id) {
				return
			}
		}
	}
}
