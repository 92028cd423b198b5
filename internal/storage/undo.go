package storage

// UndoLog collects the inverse of every mutation a transaction performs so
// an abort can restore the exact pre-transaction physical state (rows keep
// their RowIDs across rollback, which keeps streams' FIFO order stable).
//
// With multi-versioned tables the inverses operate on the version chains:
// an aborted insert pops its pending version, an aborted delete revives
// the stamped version, an aborted update pops the new image and revives
// its predecessor. Pending stamps exceed every published sequence, so the
// whole forward-plus-rollback episode is invisible to snapshot readers.
// Rollback cannot fail: every compensating action restores chain state
// that existed when the forward action ran.
type UndoLog struct {
	entries []undoEntry
	marks   []int // savepoint stack (indexes into entries)
}

type undoKind uint8

const (
	undoInsert undoKind = iota // forward op was Insert -> pop the version
	undoDelete                 // forward op was Delete -> revive the version
	undoUpdate                 // forward op was Update -> pop + revive prior
	undoFunc                   // forward op was engine metadata -> undo runs closure
)

type undoEntry struct {
	table *Table
	kind  undoKind
	id    RowID
	fn    func() // compensating closure (undoFunc)
}

// NewUndoLog returns an empty undo log.
func NewUndoLog() *UndoLog { return &UndoLog{} }

func (u *UndoLog) push(e undoEntry) { u.entries = append(u.entries, e) }

// PushFunc records an arbitrary compensating closure. The engine uses this
// for non-table state that must roll back with the transaction (window
// slide positions, stream watermarks). The closure must not fail.
func (u *UndoLog) PushFunc(fn func()) { u.push(undoEntry{kind: undoFunc, fn: fn}) }

// Len returns the number of recorded compensating actions.
func (u *UndoLog) Len() int { return len(u.entries) }

// Mark pushes a savepoint and returns its token.
func (u *UndoLog) Mark() int {
	u.marks = append(u.marks, len(u.entries))
	return len(u.entries)
}

// RollbackTo undoes every action recorded after the savepoint token.
func (u *UndoLog) RollbackTo(mark int) {
	for len(u.entries) > mark {
		e := u.entries[len(u.entries)-1]
		u.entries = u.entries[:len(u.entries)-1]
		e.apply()
	}
	for len(u.marks) > 0 && u.marks[len(u.marks)-1] >= mark {
		u.marks = u.marks[:len(u.marks)-1]
	}
}

// Rollback undoes everything, newest first, leaving the log empty.
func (u *UndoLog) Rollback() { u.RollbackTo(0) }

// undoRetain bounds the entries a released log keeps allocated, so a log
// reused across transactions does not hold one bulk statement's high-water
// mark for good.
const undoRetain = 4096

// Release discards the log after a successful commit, or readies a log
// already rolled back for its next transaction. It costs what the
// transaction logged: the entries are cleared so none of their tables or
// closures stays referenced.
func (u *UndoLog) Release() {
	clear(u.entries)
	u.entries = u.entries[:0]
	if cap(u.entries) > undoRetain {
		u.entries = nil
	}
	u.marks = u.marks[:0]
}

func (e undoEntry) apply() {
	switch e.kind {
	case undoInsert:
		e.table.undoInsert(e.id)
	case undoDelete:
		e.table.undoDelete(e.id)
	case undoUpdate:
		e.table.undoUpdate(e.id)
	case undoFunc:
		e.fn()
	}
}
