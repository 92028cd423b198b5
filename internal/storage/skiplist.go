package storage

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// skiplist is the ordered index: keys sorted by types.Row.Compare, each
// key node holding the versioned refs indexed under it. A deterministic
// xorshift generator drives level assignment so index shape (and therefore
// benchmarks) are reproducible run to run.
//
// The structure is single-writer / many-reader with zero reader locks:
// tower links are atomic pointers, a ref's dead stamp (inline or in the
// overflow slice) is stored and loaded atomically, and the overflow slice
// is otherwise only appended to beyond every reader's length or replaced
// whole, so a snapshot reader traversing mid-mutation sees either the old
// or the new state of any link or ref, never a torn one. Unlinked key nodes are epoch-retired
// (epoch.go) — a straggling reader that entered before the unlink keeps a
// fully intact node, including its outgoing links, until every such
// reader exits.
const maxLevel = 24

// slNode is one key's index entry, a single allocation (DESIGN.md §1.6.1):
// the key's first column, one ref and a tower of exactly as many lanes as
// the node's height class all live in it, so the common entry — a
// single-column key indexing one row — costs nothing beyond the node.
//
// key, id and born are immutable once the node is published. The fields
// are rewritten in place only between pool reuse and republication, when
// the epoch grace period guarantees no reader holds the node — which is
// also why a reader must not keep a key slice (it aliases k0) past its
// epoch.
type slNode struct {
	kp *types.Value // the key's columns: &k0, or a private clone when multi-column
	k0 types.Value  // a single-column key, inline

	// The inline ref, current while more is nil: the ref the node was
	// created for. dead moves between SeqInf, a pending sequence and
	// seqErased (the ref is gone and the node about to be unlinked). Once a
	// second ref arrives the full list moves to more and these freeze.
	id   RowID
	born Seq
	dead atomic.Uint64
	more atomic.Pointer[[]ixRef]

	nk    uint32 // key columns
	class uint8  // index into slClasses: which tower follows
}

// seqErased in the inline dead stamp marks an emptied node. No sequence
// stamps with it (the clock's pending sequence starts at 1), and as a dead
// stamp it is visible to nobody.
const seqErased Seq = 0

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

// key returns the node's key. The slice aliases the node: valid inside
// the caller's epoch only.
func (n *slNode) key() types.Row { return unsafe.Slice(n.kp, n.nk) }

// loadRefs returns the node's current refs: the overflow slice when one
// was published, else the inline ref copied into buf (nothing when
// erased). The result is immutable; callers must not modify it.
func (n *slNode) loadRefs(buf *[1]ixRef) []ixRef {
	if p := n.more.Load(); p != nil {
		return *p
	}
	d := n.dead.Load()
	if d == seqErased {
		return nil
	}
	buf[0] = ixRef{id: n.id, born: n.born, dead: d}
	return buf[:]
}

// setDead restamps ref j of refs, the node's current refs, where it lies:
// a delete under a key with a thousand refs writes one word, not a copy of
// the list. Readers load the stamp atomically (ixRef.seenAt), and a reader
// holding an older, shorter header of the same array sees the same ref.
func (n *slNode) setDead(refs []ixRef, j int, dead Seq) {
	if n.more.Load() == nil {
		n.dead.Store(dead)
		return
	}
	atomic.StoreUint64(&refs[j].dead, dead)
}

// shrink republishes the node's refs as nw — a fresh slice holding a
// strict subset of them — and reports whether the node emptied. An inline
// ref can only shrink to nothing. Fresh matters: insert appends to a
// published slice in place (beyond every reader's length), which is only
// safe while no shorter slice shares its backing array.
func (n *slNode) shrink(nw []ixRef) bool {
	if n.more.Load() == nil {
		n.dead.Store(seqErased)
		return true
	}
	p := new([]ixRef)
	*p = nw
	n.more.Store(p)
	return len(nw) == 0
}

type skiplist struct {
	head   *slNode
	length int // worker-only: distinct keys with at least one ref
	rng    uint64
	em     *EpochManager
	bytes  atomic.Int64 // heap bytes of linked nodes and their cloned keys
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

// insert adds a live ref for id under key in one descent. It reports
// false, the list untouched, when unique is set and the key already holds
// a live ref. key is copied, never retained.
func (s *skiplist) insert(key types.Row, id RowID, born Seq, unique bool) bool {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand != nil && cand.key().Compare(key) == 0 {
		// Not loadRefs: its stack buffer would escape into the published slice.
		ref := ixRef{id: id, born: born, dead: SeqInf}
		var nw []ixRef
		if p := cand.more.Load(); p != nil {
			if unique && liveRef(*p) >= 0 {
				return false
			}
			nw = append(*p, ref) // in place when capacity allows: see shrink
		} else {
			d := cand.dead.Load()
			if unique && d == SeqInf {
				return false
			}
			nw = []ixRef{{id: cand.id, born: cand.born, dead: d}, ref}
		}
		cand.more.Store(&nw)
		return true
	}
	lvl := s.randLevel()
	n := s.newNode(key, lvl)
	n.id, n.born = id, born
	n.dead.Store(SeqInf)
	for i := 0; i < lvl; i++ {
		n.lane(i).Store(update[i].lane(i).Load())
	}
	// Publish bottom-up: once a level links the node, every lower level
	// already does, so a reader descending into n never falls off.
	for i := 0; i < lvl; i++ {
		update[i].lane(i).Store(n)
	}
	s.length++
	return true
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
		n.kp = &n.k0
	case len(key) > 1:
		n.kp = &key.Clone()[0]
	}
	s.bytes.Add(n.heapBytes())
	return n
}

// scrub clears a retired node once its grace period is over (freeBin), so
// a pooled node keeps no key, ref list or chain of successors alive.
func (n *slNode) scrub() {
	n.kp, n.k0 = nil, types.Value{}
	n.more.Store(nil)
	for i := 0; i < slClasses[n.class].lanes; i++ {
		n.lane(i).Store(nil)
	}
}

// heapBytes is what the node holds on the heap: its allocation and a
// cloned multi-column key. Overflow ref slices are not counted.
func (n *slNode) heapBytes() int64 {
	b := slClasses[n.class].bytes
	if n.nk > 1 {
		b += int64(n.nk) * int64(unsafe.Sizeof(types.Value{}))
	}
	return b
}

// remove stamps the live ref for id dead at the given sequence. The node
// stays linked for snapshot readers until gc reclaims its last ref.
func (s *skiplist) remove(key types.Row, id RowID, dead Seq) bool {
	var update [maxLevel]*slNode
	var one [1]ixRef
	if n := s.find(key, &update); n != nil {
		refs := n.loadRefs(&one)
		if j := findRef(refs, id); j >= 0 {
			n.setDead(refs, j, dead)
			return true
		}
	}
	return false
}

// eraseLive physically removes the live ref for id (undo of insert),
// unlinking and retiring the node when it empties.
func (s *skiplist) eraseLive(key types.Row, id RowID) bool {
	var update [maxLevel]*slNode
	var one [1]ixRef
	n := s.find(key, &update)
	if n == nil {
		return false
	}
	refs := n.loadRefs(&one)
	j := findRef(refs, id)
	if j < 0 {
		return false
	}
	nw := make([]ixRef, 0, len(refs)-1)
	nw = append(append(nw, refs[:j]...), refs[j+1:]...)
	if n.shrink(nw) {
		s.unlink(n, &update)
	}
	return true
}

// revive resets the ref for id stamped dead at exactly the given sequence
// (the latest-born match — see reviveRef).
func (s *skiplist) revive(key types.Row, id RowID, dead Seq) bool {
	var update [maxLevel]*slNode
	var one [1]ixRef
	if n := s.find(key, &update); n != nil {
		refs := n.loadRefs(&one)
		if j := reviveRef(refs, id, dead); j >= 0 {
			n.setDead(refs, j, SeqInf)
			return true
		}
	}
	return false
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
	s.bytes.Add(-n.heapBytes())
	s.em.RetireSLNode(n)
}

// lookupAt appends to dst the ids visible under key at sequence seq; SeqInf
// asks for the writer view (the live refs, pending ones included). Safe
// from reader goroutines inside an epoch.
func (s *skiplist) lookupAt(key types.Row, seq Seq, dst []RowID) []RowID {
	var update [maxLevel]*slNode
	var one [1]ixRef
	n := s.find(key, &update)
	if n == nil {
		return dst
	}
	refs := n.loadRefs(&one)
	for i := range refs {
		if refs[i].seenAt(seq) {
			dst = append(dst, refs[i].id)
		}
	}
	return dst
}

// scanAt visits refs seen at sequence seq (SeqInf: the writer view) with
// keys in [lo, hi] (nil = unbounded) in ascending key order. The key
// handed to fn aliases the node: fn must copy what it keeps. Safe from
// reader goroutines inside an epoch.
func (s *skiplist) scanAt(lo, hi types.Row, seq Seq, fn func(key types.Row, id RowID) bool) {
	var x *slNode
	if lo == nil {
		x = s.head.lane(0).Load()
	} else {
		var update [maxLevel]*slNode
		x = s.findPredecessors(lo, &update)
	}
	var one [1]ixRef
	for ; x != nil; x = x.lane(0).Load() {
		key := x.key()
		if hi != nil && key.Compare(hi) > 0 {
			return
		}
		refs := x.loadRefs(&one)
		for i := range refs {
			if refs[i].seenAt(seq) && !fn(key, refs[i].id) {
				return
			}
		}
	}
}

// gc drops refs dead at or below the watermark and unlinks emptied nodes.
func (s *skiplist) gc(watermark Seq) {
	var emptied []types.Row
	var one [1]ixRef
	for x := s.head.lane(0).Load(); x != nil; x = x.lane(0).Load() {
		refs := x.loadRefs(&one)
		kept := 0
		for i := range refs {
			if refs[i].dead > watermark {
				kept++
			}
		}
		if kept == len(refs) {
			continue
		}
		nw := make([]ixRef, 0, kept)
		for _, r := range refs {
			if r.dead > watermark {
				nw = append(nw, r)
			}
		}
		if x.shrink(nw) {
			emptied = append(emptied, x.key()) // stays intact: retired nodes are not reused inside this sweep
		}
	}
	for _, key := range emptied {
		var update [maxLevel]*slNode
		if n := s.find(key, &update); n != nil && len(n.loadRefs(&one)) == 0 {
			s.unlink(n, &update)
		}
	}
}
