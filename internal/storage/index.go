package storage

import (
	"sync/atomic"

	"repro/internal/types"
)

// ixRef is one versioned index entry: key -> id, visible to snapshots at
// sequence s iff born <= s < dead. Writer-view lookups see exactly the
// live refs (dead == SeqInf). Dead refs are retained for snapshot readers
// and reclaimed by the watermark GC alongside their row versions. id and
// born never change once the ref is published; dead is restamped in place
// by the worker (slNode.setDead), so any other goroutine loads it
// atomically. The worker, the only writer, reads it plainly.
type ixRef struct {
	id   RowID
	born Seq
	dead Seq
}

// seenAt reports whether the ref is visible at sequence seq; SeqInf, which
// no snapshot can pin, asks for the writer view instead — the live refs,
// the running transaction's pending ones included. Safe on a ref of a
// published slice from any goroutine.
func (r *ixRef) seenAt(seq Seq) bool {
	dead := atomic.LoadUint64(&r.dead)
	if seq == SeqInf {
		return dead == SeqInf
	}
	return r.born <= seq && seq < dead
}

// Index maps key tuples (a projection of the row) to RowIDs through an
// ordered skiplist (skiplist.go): point lookups and range scans. Unique
// indexes hold at most one live RowID per key; dead entries from
// superseded or deleted versions coexist with it until reclaimed.
//
// Single-writer (the partition worker) / many-reader with zero reader
// locks. A reader that loads a node the writer then prunes keeps a
// consistent stale view; everything it can still see there is either dead
// at or below the watermark (invisible at any pinned sequence) or pending
// (invisible at any published one).
type Index struct {
	name   string
	cols   []int
	unique bool

	sl   *skiplist
	size atomic.Int64 // live refs
}

func newIndex(name string, cols []int, unique bool, em *EpochManager) *Index {
	return &Index{name: name, cols: append([]int(nil), cols...), unique: unique, sl: newSkiplist(em)}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Columns returns the indexed column ordinals.
func (ix *Index) Columns() []int { return append([]int(nil), ix.cols...) }

// Unique reports whether the index enforces key uniqueness.
func (ix *Index) Unique() bool { return ix.unique }

// Len returns the number of live (key, RowID) pairs in the index.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// keyBuf is stack scratch for one index key.
type keyBuf [4]types.Value

// keyOf projects row onto the index's columns into buf, the caller's
// scratch, so a key of up to len(buf) columns costs no allocation. The
// index never retains a key it is handed.
func (ix *Index) keyOf(row types.Row, buf *keyBuf) types.Row {
	key := buf[:0]
	for _, c := range ix.cols {
		key = append(key, row[c])
	}
	return key
}

// sameKey reports whether a and b agree on every indexed column.
func (ix *Index) sameKey(a, b types.Row) bool {
	for _, c := range ix.cols {
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// insert adds a live ref born at the given sequence, in one descent. It
// reports false, the index untouched, when that would put a second live
// ref under a unique key. Worker-only.
func (ix *Index) insert(key types.Row, id RowID, born Seq) bool {
	if !ix.sl.insert(key, id, born, ix.unique) {
		return false
	}
	ix.size.Add(1)
	return true
}

// liveRef returns the position of the first live ref with any id (-1 when
// none). Used for uniqueness checks.
func liveRef(refs []ixRef) int {
	for i := range refs {
		if refs[i].dead == SeqInf {
			return i
		}
	}
	return -1
}

// findRef returns the position of the live ref carrying id (-1 when none).
func findRef(refs []ixRef, id RowID) int {
	for i := range refs {
		if refs[i].id == id && refs[i].dead == SeqInf {
			return i
		}
	}
	return -1
}

// remove stamps the live ref for id dead at the given sequence. The entry
// stays visible to snapshots below it until GC'd. Worker-only.
func (ix *Index) remove(key types.Row, id RowID, dead Seq) {
	if ix.sl.remove(key, id, dead) {
		ix.size.Add(-1)
	}
}

// eraseLive physically removes the live ref for id — the undo of an
// insert, whose ref never became visible to any snapshot. Worker-only.
func (ix *Index) eraseLive(key types.Row, id RowID) {
	if ix.sl.eraseLive(key, id) {
		ix.size.Add(-1)
	}
}

// revive resets the ref for id stamped dead at exactly the given sequence
// back to live — the undo of a remove within the same (pending,
// unpublished) transaction. Several dead refs can carry the same (id,
// dead) when one transaction moves a key away and back repeatedly; undo
// runs newest-first, so the ref to revive is the most recently created
// matching one (largest born). Worker-only.
func (ix *Index) revive(key types.Row, id RowID, dead Seq) {
	if ix.sl.revive(key, id, dead) {
		ix.size.Add(1)
	}
}

// reviveRef returns the position of the latest-born ref matching (id,
// dead), or -1.
func reviveRef(refs []ixRef, id RowID, dead Seq) int {
	best := -1
	for j := range refs {
		if refs[j].id == id && refs[j].dead == dead {
			if best < 0 || refs[j].born > refs[best].born {
				best = j
			}
		}
	}
	return best
}

// Lookup appends to dst the RowIDs live under exactly key (writer view,
// including the running transaction's own changes) and returns it. With a
// buffer from the caller's frame a probe allocates nothing.
func (ix *Index) Lookup(key types.Row, dst []RowID) []RowID {
	return ix.sl.lookupAt(key, SeqInf, dst)
}

// LookupUnique returns the single live RowID for key on a unique index.
func (ix *Index) LookupUnique(key types.Row) (RowID, bool) {
	var buf [1]RowID
	ids := ix.Lookup(key, buf[:0])
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// Range iterates live (key, id) pairs with lo <= key <= hi in key order.
// A nil bound is unbounded on that side. key is valid during the callback
// only (it aliases the index entry); fn must not mutate the table.
func (ix *Index) Range(lo, hi types.Row, fn func(key types.Row, id RowID) bool) {
	ix.sl.scanAt(lo, hi, SeqInf, fn)
}

// gc drops refs dead at or below the watermark and unlinks emptied key
// nodes. Worker-only.
func (ix *Index) gc(watermark Seq) { ix.sl.gc(watermark) }
