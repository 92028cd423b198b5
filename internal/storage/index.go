package storage

import (
	"repro/internal/types"
)

// Index maps key tuples (a projection of the row) to RowIDs through an
// ordered skiplist (skiplist.go). An entry is a key and a RowID and says
// only that some version in the row's chain carries the key: visibility
// lives in the version chain alone (DESIGN.md §1.6.1). A reader resolves a
// candidate's version at its sequence — the live head for the writer view —
// and keeps the row only when that version's indexed columns equal the
// entry's key (Table.Lookup, Table.Range, SnapshotLookup, SnapshotRange).
// A row's entries are the keys of the versions in its chain: Insert and
// Update enter them, undo erases the keys no remaining version carries, and
// GC erases a key with the last version carrying it. A unique index refuses
// a key another row's live version carries.
//
// Single-writer (the partition worker) / many-reader with zero reader
// locks. A reader that loads a node the writer then prunes keeps a
// consistent stale view; every id it can still see there resolves to a
// version that does not carry the key, or to none, and is dropped.
type Index struct {
	name   string
	cols   []int
	unique bool

	sl *skiplist
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

// matches reports whether row carries key on the indexed columns: the one
// visibility check an index read adds to resolving a version.
func (ix *Index) matches(row, key types.Row) bool {
	for i, c := range ix.cols {
		if !row[c].Equal(key[i]) {
			return false
		}
	}
	return true
}
