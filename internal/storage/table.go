// Package storage implements the in-memory storage engine: row-store
// tables with insertion-ordered scans, ordered secondary indexes,
// primary-key and unique constraints, and per-transaction undo logs that
// give the engine physical atomicity.
//
// Tables are multi-versioned. The partition engine executes transactions
// serially (H-Store style), so at most one writer touches a table at any
// instant; every write creates a new row version stamped with the
// partition's pending commit sequence (see PartitionClock), and commits
// publish the sequence atomically. Snapshot readers on other goroutines
// pick a published sequence and read the versions visible at it —
// concurrently with the writer — through the Snapshot* methods, which take
// no locks at all: the slot directory, version chains, and index
// structures are published through atomic pointers, and reclaimed memory
// is recycled only after an epoch grace period (epoch.go) guarantees no
// reader still holds it. Old versions are unlinked once the watermark
// (oldest pinned snapshot) passes their death sequence.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// RowID identifies a logical row within one table. IDs are assigned
// monotonically and never reused, so scanning in RowID order equals
// insertion order — the property streams rely on for FIFO batches.
type RowID uint64

// rowVersion is one image of a row: visible to snapshots at sequence s iff
// born <= s < dead. A live version has dead == SeqInf; an uncommitted one
// has born (or dead, for a pending delete) equal to the clock's pending
// sequence, which no published snapshot can reach. Versions form a
// singly-linked chain, newest first, through atomic next pointers.
//
// The version holds its row itself: rowp points at the row's first value
// and width is its length, so a stored row costs its value array and this
// node, nothing between them. An evicted version (cold.go) has rowp nil
// and cold naming the tuple on disk. Two words, one rule: eviction stores
// cold and then nils rowp; rehydration stores rowp and leaves cold stale;
// a reader loads rowp and reads cold only when rowp is nil (payload).
// width and rekeyed are written once, before the node is linked, and never
// again. rekeyed marks a version whose indexed columns differ from its
// predecessor's (next) on some index, so GC knows, without reading either
// image, which reclaimed versions can take an index key with them.
// touched is the anti-caching second-chance bit of a live head; an update
// carries it to the new head.
//
// Nodes are pooled: after being unlinked they are epoch-retired and only
// rewritten for a new row once every reader that could hold one has left
// its epoch — which is why every field a reader dereferences while the node
// is linked, width aside, is atomic.
type rowVersion struct {
	born    atomic.Uint64
	dead    atomic.Uint64
	rowp    atomic.Pointer[types.Value]
	cold    atomic.Uint64 // a coldstore.Ref, current only while rowp is nil
	next    atomic.Pointer[rowVersion]
	width   uint16 // types.MaxColumns bounds it
	rekeyed bool
	touched atomic.Uint32
}

// newRowVersion draws a pooled node and initializes it. Worker-only; the
// node is private until linked into a published chain.
func newRowVersion(row types.Row, born, dead Seq) *rowVersion {
	v := versionPool.Get().(*rowVersion)
	v.born.Store(born)
	v.dead.Store(dead)
	v.width = uint16(len(row))
	v.rekeyed = false
	v.touched.Store(0)
	v.rowp.Store(unsafe.SliceData(row))
	v.next.Store(nil)
	return v
}

// hotRow returns the resident row, or nil when the version is evicted.
// The row slice shares the stored array: treat it as immutable.
func (v *rowVersion) hotRow() types.Row {
	if p := v.rowp.Load(); p != nil {
		return unsafe.Slice(p, v.width)
	}
	return nil
}

// versionPayload is a version's row image as a reader captured it: the
// resident row, or (row nil) the cold-store ref naming the tuple on disk.
// A captured payload stays good after the reader leaves its epoch: the row
// array is never rewritten, and the ref's slot is freed only once the
// watermark passes every pin that could have captured it (cold.go).
type versionPayload struct {
	row  types.Row
	cold coldstore.Ref
}

// payload captures the version's image by the two-word rule: rowp first,
// cold only when rowp is nil. A reader can see the ref of a later eviction
// of the same version than the one it raced with; it names the same image.
// Safe from any goroutine inside an epoch.
func (v *rowVersion) payload() versionPayload {
	if row := v.hotRow(); row != nil {
		return versionPayload{row: row}
	}
	return versionPayload{cold: coldstore.Ref(v.cold.Load())}
}

// rowSlot is one entry of the table heap: a logical row's version chain,
// newest first. A slot whose newest version is dead is a logical tombstone
// retained for snapshot readers until the watermark passes; a slot whose
// head is nil is empty (undone insert / unstaged copy): every path treats
// it as missing, and the next directory rebuild drops it. Slots are heap
// objects referenced from the directory and never recycled, so stale
// readers always hold intact memory.
type rowSlot struct {
	id   RowID
	head atomic.Pointer[rowVersion]
}

// liveHead returns the newest version when it is live (writer view), else
// nil.
func (s *rowSlot) liveHead() *rowVersion {
	h := s.head.Load()
	if h != nil && h.dead.Load() == SeqInf {
		return h
	}
	return nil
}

// versionAt resolves the version visible at sequence seq, or nil. Safe
// from reader goroutines inside an epoch: the chain is newest-first and
// every link is atomic, so a concurrent writer prepending or a GC pruning
// the dead tail leaves the walk on intact nodes.
func (s *rowSlot) versionAt(seq Seq) *rowVersion {
	for v := s.head.Load(); v != nil; v = v.next.Load() {
		if v.born.Load() <= seq && seq < v.dead.Load() {
			return v
		}
	}
	return nil
}

// Table is an in-memory multi-versioned row store with attached indexes.
//
// Concurrency contract: exactly one goroutine mutates at a time — the
// partition worker (or recovery, or a quiescent migration barrier, which
// the engine serializes against the worker). Mutators use the plain
// worker-only fields freely. Any goroutine may read through the Snapshot*
// methods, which run lock-free under an epoch guard; shared state they
// touch (directory, chains, indexes, counters) is published atomically.
type Table struct {
	name   string
	schema *types.Schema
	clock  *PartitionClock

	// dir is the published slot directory in ascending-RowID order, and
	// the only RowID -> slot map (slotByID). An append writes the next
	// element of the array and then publishes a larger count (a reader's
	// smaller count never covers the new element); a full array, and GC
	// compaction, publish a freshly built directory, so a reader's stale
	// one keeps indexing untouched memory.
	dir atomic.Pointer[slotDir]

	nextID RowID // worker-only
	// gcMinDead backs inline sweeps off: after a sweep, dead versions must
	// double before the next attempt, so a pile of still-pinned (or still-
	// pending) versions cannot trigger an O(n) sweep per delete.
	gcMinDead int // worker-only

	live     atomic.Int64 // slots whose newest version is live
	staged   atomic.Int64 // staged slots awaiting CommitStaged (slot migration)
	deadVers atomic.Int64 // versions with a dead stamp (reclaim candidates)

	indexes atomic.Pointer[[]*Index]
	pk      *Index // non-nil when the schema declares a primary key

	// Anti-caching state (cold.go). cold is nil unless attached; the
	// resident-bytes ledger is maintained regardless so attaching is free.
	cold          *coldstore.Store
	residentBytes atomic.Int64  // approximate heap bytes of non-stub versions
	coldVers      atomic.Int64  // versions currently evicted (stubs)
	coldEvictions atomic.Uint64 // versions moved cold, cumulative
	coldFaults    atomic.Uint64 // stub resolutions, cumulative
	evictCursor   int           // round-robin clock hand over slots (worker-only)
	encBuf        []byte        // eviction scratch (worker-only)
}

// NewTable creates an empty table with a private commit clock (standalone
// use and tests). When the schema has a primary key, a unique ordered index
// named "<table>_pkey" is created automatically.
func NewTable(schema *types.Schema) *Table {
	return NewTableWithClock(schema, NewPartitionClock())
}

// NewTableWithClock creates an empty table stamping its versions from the
// given clock — the catalog passes one shared clock per partition so a
// transaction spanning several tables publishes atomically.
func NewTableWithClock(schema *types.Schema, clock *PartitionClock) *Table {
	t := &Table{
		name:   schema.Name(),
		schema: schema,
		clock:  clock,
		nextID: 1,
	}
	t.dir.Store(new(slotDir))
	if schema.HasPrimaryKey() {
		pk, err := t.CreateIndex(schema.Name()+"_pkey", schema.PrimaryKey(), true)
		if err != nil {
			panic("storage: fresh table cannot fail pk creation: " + err.Error())
		}
		t.pk = pk
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Clock returns the commit clock the table stamps versions from.
func (t *Table) Clock() *PartitionClock { return t.clock }

// Count returns the number of live rows (writer view): the rows Scan
// emits, the running transaction's own writes included.
func (t *Table) Count() int { return int(t.live.Load()) }

// PrimaryIndex returns the primary-key index, or nil for keyless tables.
func (t *Table) PrimaryIndex() *Index { return t.pk }

// idxs returns the published index list (shared, immutable slice).
func (t *Table) idxs() []*Index {
	if p := t.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// Indexes returns all indexes on the table.
func (t *Table) Indexes() []*Index { return append([]*Index(nil), t.idxs()...) }

// IndexByName finds an index by name, or nil. Safe from any goroutine.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.idxs() {
		if ix.Name() == name {
			return ix
		}
	}
	return nil
}

// IndexBytes reports the heap bytes of the table's index entries, which no
// memory budget counts (DESIGN.md §7). Safe from any goroutine.
func (t *Table) IndexBytes() int64 {
	var n int64
	for _, ix := range t.idxs() {
		n += ix.sl.bytes.Load()
	}
	return n
}

// slotDir is one backing array of the slot directory and the count of its
// elements that are published. The array is written only beyond the count,
// by the worker, before the count that covers the write is stored.
type slotDir struct {
	arr []*rowSlot
	n   atomic.Int64
}

// slots returns the published directory. Readers must hold an epoch guard
// for the pointers inside to stay reusable-safe; the worker may call it
// bare.
func (t *Table) slots() []*rowSlot {
	d := t.dir.Load()
	n := d.n.Load()
	return d.arr[:n:n]
}

// setSlots publishes arr, all of it, as the directory. Worker-only.
func (t *Table) setSlots(arr []*rowSlot) {
	d := &slotDir{arr: arr}
	d.n.Store(int64(len(arr)))
	t.dir.Store(d)
}

// appendSlot publishes a directory one slot longer: in place while the
// array has room, so an insert allocates no directory. Worker-only.
func (t *Table) appendSlot(s *rowSlot) {
	d := t.dir.Load()
	n := int(d.n.Load())
	if n == len(d.arr) {
		arr := make([]*rowSlot, max(2*n, 8))
		copy(arr, d.arr)
		d = &slotDir{arr: arr}
		d.n.Store(int64(n))
		t.dir.Store(d)
	}
	d.arr[n] = s
	d.n.Store(int64(n + 1))
}

// slotWindow returns the positions [lo, hi] between which the first
// directory position whose id is >= minID must lie. The directory is
// ascending in RowID with distinct ids, so with base its first id and
// holes the ids in [base, last] it lacks, that position is at most
// minID-base (every earlier position holds a smaller id) and at least
// minID-base-holes (only holes can stand between). A directory without
// holes — kv, a FIFO stream, a freshly compacted table — gives lo == hi.
func slotWindow(d []*rowSlot, minID RowID) (lo, hi int) {
	n := len(d)
	if n == 0 || minID <= d[0].id {
		return 0, 0
	}
	base, last := d[0].id, d[n-1].id
	if minID > last {
		return n, n
	}
	off := int(minID - base)
	holes := int(last-base+1) - n
	return max(off-holes, 0), min(off, n-1)
}

// slotSearch returns the first directory position whose id is >= minID
// (len(d) when none), searching only slotWindow's positions: one probe
// when the directory has no holes, O(log holes) otherwise.
func slotSearch(d []*rowSlot, minID RowID) int {
	lo, hi := slotWindow(d, minID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid].id < minID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slotByID finds the slot for id in a directory, or nil: the one RowID
// resolution, for the worker (on the directory it publishes) and for
// snapshot readers alike.
func slotByID(d []*rowSlot, id RowID) *rowSlot {
	i := slotSearch(d, id)
	if i < len(d) && d[i].id == id {
		return d[i]
	}
	return nil
}

// CreateIndex builds an index over the given column ordinals and backfills
// it from live rows, so snapshots of current rows resolve through the new
// index too. Unique indexes reject duplicate keys. Worker-only (DDL).
func (t *Table) CreateIndex(name string, cols []int, unique bool) (*Index, error) {
	for _, ix := range t.idxs() {
		if ix.Name() == name {
			return nil, fmt.Errorf("storage: index %q already exists on %s", name, t.name)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= t.schema.NumColumns() {
			return nil, fmt.Errorf("storage: index %q references column %d outside schema of %s", name, c, t.name)
		}
	}
	ix := newIndex(name, cols, unique, t.clock.Epochs())
	for _, s := range t.slots() {
		h := s.liveHead()
		if h == nil {
			continue
		}
		row := t.resolveVersion(h.payload())
		if !t.enter(ix, row.Key(cols), s.id, false) {
			return nil, fmt.Errorf("storage: backfilling %q: duplicate key %v", name, row.Key(cols))
		}
	}
	cur := t.idxs()
	nw := make([]*Index, len(cur)+1)
	copy(nw, cur)
	nw[len(cur)] = ix
	t.indexes.Store(&nw)
	return ix, nil
}

// DropIndex publishes the index list without the named secondary index (the
// primary key's stays); a plan prepared earlier resolves its index by name
// when it runs and scans instead. DDL only, before the partition starts.
func (t *Table) DropIndex(name string) {
	cur := t.idxs()
	nw := slices.DeleteFunc(slices.Clone(cur), func(ix *Index) bool { return ix.Name() == name && ix != t.pk })
	t.indexes.Store(&nw)
}

// Get returns the row stored under id (writer view: newest live version).
// The returned row must be treated as immutable; callers that mutate must
// Clone first. An evicted row is faulted back into the chain (worker-only,
// like every writer-view access).
func (t *Table) Get(id RowID) (types.Row, bool) {
	s, h := t.liveSlot(id)
	if h == nil {
		return nil, false
	}
	h.touched.Store(1)
	if row := h.hotRow(); row != nil {
		return row, true
	}
	return t.faultHead(s), true
}

// liveSlot resolves id to its slot and live newest version, h nil when the
// row is missing (never inserted, deleted, undone or unstaged).
// Worker-only: it reads the directory the worker publishes.
func (t *Table) liveSlot(id RowID) (s *rowSlot, h *rowVersion) {
	if s = slotByID(t.slots(), id); s == nil {
		return nil, nil
	}
	return s, s.liveHead()
}

// Insert validates the row against the schema, assigns a RowID, and updates
// every index. The new version is stamped with the pending sequence, so it
// is invisible to snapshots until the clock publishes. When undo is non-nil
// a compensating delete is recorded.
func (t *Table) Insert(row types.Row, undo *UndoLog) (RowID, error) {
	validated, err := t.schema.ValidateRow(row)
	if err != nil {
		return 0, err
	}
	id := t.nextID
	// Indexes first: each checks its unique constraint in the descent that
	// enters the key. The entries name a RowID that has no slot yet, so no
	// reader resolves them, and a violation takes back the ones already
	// added — a failed insert leaves the table untouched.
	idxs := t.idxs()
	for i, ix := range idxs {
		var kb keyBuf
		if t.enter(ix, ix.keyOf(validated, &kb), id, false) {
			continue
		}
		for _, done := range idxs[:i] {
			done.sl.erase(done.keyOf(validated, &kb), id)
		}
		return 0, fmt.Errorf("storage: %s: duplicate key %v for unique index %q",
			t.name, validated.Key(ix.cols), ix.Name())
	}
	t.nextID++
	s := &rowSlot{id: id}
	s.head.Store(newRowVersion(validated, t.clock.WriteSeq(), SeqInf))
	t.appendSlot(s)
	t.live.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoInsert, id: id})
	}
	return id, nil
}

// Delete ends the row's current version at the pending sequence; the
// indexes are not touched. The version chain, and with it the row's index
// entries, is retained for snapshot readers until the watermark passes.
// When undo is non-nil a compensating revive is recorded.
func (t *Table) Delete(id RowID, undo *UndoLog) error {
	s, h := t.liveSlot(id)
	if h == nil {
		return fmt.Errorf("storage: %s: delete of missing row %d", t.name, id)
	}
	if h.hotRow() == nil {
		t.faultHead(s) // a dead version is never cold: GC reads its key columns
	}
	h.dead.Store(t.clock.WriteSeq())
	t.live.Add(-1)
	t.deadVers.Add(1)
	t.maybeGC()
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoDelete, id: id})
	}
	return nil
}

// Update ends the current version at the pending sequence and prepends a
// new one, revalidating and entering the new key in every index whose
// columns moved (the old key stays with the old version). When undo is
// non-nil a compensating restore is recorded.
func (t *Table) Update(id RowID, newRow types.Row, undo *UndoLog) error {
	s, h := t.liveSlot(id)
	if h == nil {
		return fmt.Errorf("storage: %s: update of missing row %d", t.name, id)
	}
	validated, err := t.schema.ValidateRow(newRow)
	if err != nil {
		return err
	}
	old := h.hotRow()
	if old == nil {
		old = t.faultHead(s) // reindexing and undo need the old image hot
	}
	// The descent that enters a new key checks the unique constraint, and a
	// violation takes back the entries already added, leaving the row as it
	// was.
	idxs := t.idxs()
	rekeyed := false
	for i, ix := range idxs {
		if ix.sameKey(old, validated) {
			continue
		}
		rekeyed = true
		var kb keyBuf
		if t.enter(ix, ix.keyOf(validated, &kb), id, true) {
			continue
		}
		for _, done := range idxs[:i] {
			if !done.sameKey(old, validated) {
				t.drop(done, done.keyOf(validated, &kb), id, h)
			}
		}
		return fmt.Errorf("storage: %s: duplicate key %v for unique index %q",
			t.name, validated.Key(ix.cols), ix.Name())
	}
	ws := t.clock.WriteSeq()
	nv := newRowVersion(validated, ws, SeqInf)
	nv.rekeyed = rekeyed
	nv.touched.Store(h.touched.Load())
	nv.next.Store(h)
	// Stamp the old head dead, then swing the head pointer. A reader at a
	// published sequence p < ws sees the old head as visible either way
	// (p < dead in both states) and the new version as pending-invisible.
	h.dead.Store(ws)
	s.head.Store(nv)
	t.deadVers.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	t.maybeGC()
	if undo != nil {
		undo.push(undoEntry{table: t, kind: undoUpdate, id: id})
	}
	return nil
}

// enter adds (key, id) to ix unless it is there already, and reports
// false — ix untouched — when ix is unique and another row's live version
// carries key. The check runs only when the key's node exists. rekey says
// id may already be under key (an Update moving a key back); an inserted
// id is new to every index, and the list under a popular key is not
// searched for it. Worker-only.
func (t *Table) enter(ix *Index, key types.Row, id RowID, rekey bool) bool {
	n := ix.sl.insert(key, id)
	if n == nil {
		return true
	}
	present := false
	if ix.unique || rekey {
		var one [1]RowID
		for _, o := range n.ids(&one) {
			if o == id {
				present = true
			} else if ix.unique {
				if _, taken := t.keyed(ix, o, key); taken {
					return false
				}
			}
		}
	}
	if !present {
		ix.sl.push(n, id)
	}
	return true
}

// drop erases (key, id) from ix unless a version of the chain from v on
// still carries key: what undo does with the keys of the versions it
// takes away. Worker-only.
func (t *Table) drop(ix *Index, key types.Row, id RowID, v *rowVersion) {
	if !t.kept(ix, key, v) {
		ix.sl.erase(key, id)
	}
}

// kept reports whether a version of the chain from v on carries key in ix.
// Only a live head can be cold, and is read through. Worker-only.
func (t *Table) kept(ix *Index, key types.Row, v *rowVersion) bool {
	for ; v != nil; v = v.next.Load() {
		if ix.matches(t.resolveVersion(v.payload()), key) {
			return true
		}
	}
	return false
}

// keyed returns row id's live version when it carries key in ix: the
// writer view's recheck of an index entry. A cold head is faulted in, as
// Get does. Worker-only.
func (t *Table) keyed(ix *Index, id RowID, key types.Row) (types.Row, bool) {
	row, ok := t.Get(id)
	return row, ok && ix.matches(row, key)
}

// ---------- undo inverses ----------
//
// Rollback physically reverses the pending stamps, newest first, so an
// aborted transaction leaves no trace in any chain. Pending versions are
// invisible to snapshots throughout (their stamps exceed every published
// sequence), so each step is a single atomic store concurrent readers
// either see or don't — both states read consistently. Popped nodes are
// epoch-retired before reuse.

// undoInsert pops the version a pending Insert created. The row did not
// exist before the transaction, so the slot must hold exactly that version.
func (t *Table) undoInsert(id RowID) {
	s := slotByID(t.slots(), id)
	if s == nil {
		panic(fmt.Sprintf("storage: %s: undo of insert: row %d vanished", t.name, id))
	}
	h := s.head.Load()
	if h == nil || h.next.Load() != nil || h.dead.Load() != SeqInf {
		panic(fmt.Sprintf("storage: %s: undo of insert: row %d has unexpected chain", t.name, id))
	}
	row := h.hotRow() // pending versions are never evicted
	for _, ix := range t.idxs() {
		var kb keyBuf
		ix.sl.erase(ix.keyOf(row, &kb), id)
	}
	s.head.Store(nil) // the slot stays, empty, until the next compaction
	t.live.Add(-1)
	t.residentBytes.Add(-rowMemSize(row))
	t.clock.Epochs().RetireVersion(h)
}

// undoDelete revives the version a pending Delete stamped (the RowID and
// its position in scan order are preserved — streams' FIFO order survives
// rollback). Its index entries never left.
func (t *Table) undoDelete(id RowID) {
	s := slotByID(t.slots(), id)
	if s == nil || s.head.Load() == nil {
		panic(fmt.Sprintf("storage: %s: undo of delete: row %d vanished", t.name, id))
	}
	s.head.Load().dead.Store(SeqInf)
	t.live.Add(1)
	t.deadVers.Add(-1)
}

// undoUpdate pops the version a pending Update prepended, erasing the keys
// it entered that no remaining version carries, and revives its
// predecessor.
func (t *Table) undoUpdate(id RowID) {
	s := slotByID(t.slots(), id)
	if s == nil {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d vanished", t.name, id))
	}
	newV := s.head.Load()
	if newV == nil {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d vanished", t.name, id))
	}
	oldV := newV.next.Load()
	if oldV == nil {
		panic(fmt.Sprintf("storage: %s: undo of update: row %d has no prior version", t.name, id))
	}
	newRow := newV.hotRow()
	oldRow := oldV.hotRow() // faulted hot by the Update being undone
	for _, ix := range t.idxs() {
		if !ix.sameKey(oldRow, newRow) {
			var kb keyBuf
			t.drop(ix, ix.keyOf(newRow, &kb), id, oldV)
		}
	}
	s.head.Store(oldV)
	oldV.dead.Store(SeqInf)
	t.deadVers.Add(-1)
	t.residentBytes.Add(-rowMemSize(newRow))
	t.clock.Epochs().RetireVersion(newV)
}

// ---------- writer-view reads ----------

// Scan iterates live rows in insertion (RowID) order — the writer's view,
// including the running transaction's own uncommitted changes — and
// reports whether fn let it finish. The callback returns false to stop
// early and must not mutate the table.
// Evicted rows are resolved read-through without rehydrating the chain
// (and without setting the touch bit), so a full scan — a checkpoint,
// say — neither blows the memory budget nor flushes the hot set.
func (t *Table) Scan(fn func(id RowID, row types.Row) bool) bool {
	for _, s := range t.slots() {
		h := s.liveHead()
		if h == nil {
			continue
		}
		if !fn(s.id, t.resolveVersion(h.payload())) {
			return false
		}
	}
	return true
}

// Lookup hands fn the live rows whose key in ix is exactly key (writer
// view, including the running transaction's own changes) and reports
// whether fn let it finish. ix must be an index of this table; fn must not
// mutate the table. Each entry is rechecked against its row's live version,
// faulted in when cold as Get does, and that row is what fn gets. A probe
// that finds a few rows allocates nothing. Worker-only.
func (t *Table) Lookup(ix *Index, key types.Row, fn func(id RowID, row types.Row) bool) bool {
	var buf [8]RowID
	for _, id := range ix.sl.lookup(key, buf[:0]) {
		if row, ok := t.keyed(ix, id, key); ok && !fn(id, row) {
			return false
		}
	}
	return true
}

// Range hands fn the live rows with lo <= key <= hi in key order (writer
// view), each with its entry's key, rechecked as Lookup does. A nil bound
// is unbounded on that side. key is valid during the callback only (it
// aliases the index entry); fn must not mutate the table. Worker-only.
func (t *Table) Range(ix *Index, lo, hi types.Row, fn func(key types.Row, id RowID, row types.Row) bool) {
	ix.sl.scan(lo, hi, func(key types.Row, id RowID) bool {
		row, ok := t.keyed(ix, id, key)
		return !ok || fn(key, id, row)
	})
}

// ScanRows returns all live rows in insertion order (copied slice headers;
// rows themselves are shared and must not be mutated).
func (t *Table) ScanRows() []types.Row {
	out := make([]types.Row, 0, t.Count())
	t.Scan(func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Truncate removes every row. When undo is non-nil each removal is
// undoable.
func (t *Table) Truncate(undo *UndoLog) {
	ids := make([]RowID, 0, t.Count())
	t.Scan(func(id RowID, _ types.Row) bool { ids = append(ids, id); return true })
	for _, id := range ids {
		if err := t.Delete(id, undo); err != nil {
			panic("storage: truncate delete of live row failed: " + err.Error())
		}
	}
}

// ---------- snapshot reads ----------
//
// Every Snapshot* method runs lock-free: enter an epoch, walk the
// atomically published structures, capture payloads (row or ref), exit the
// epoch, then resolve cold stubs and run callbacks outside it — page I/O
// and caller code never delay epoch advance more than a chunk. Callers
// must hold a snapshot pin (PartitionClock.AcquireSnapshot) so version GC
// and cold-slot frees cannot outrun them.

// SnapshotGet returns the row visible under id at sequence s. Safe from
// any goroutine.
func (t *Table) SnapshotGet(id RowID, seq Seq) (types.Row, bool) {
	em := t.clock.Epochs()
	g := em.Enter()
	s := slotByID(t.slots(), id)
	if s == nil {
		g.Exit()
		return nil, false
	}
	v := s.versionAt(seq)
	if v == nil {
		g.Exit()
		return nil, false
	}
	s.touch()
	pl := v.payload()
	g.Exit()
	return t.resolveVersion(pl), true
}

// snapHit is a payload captured inside an epoch and resolved (cold page-in
// included) after leaving it.
type snapHit struct {
	id RowID
	pl versionPayload
}

// snapshotScanChunk bounds how many slots one epoch hold covers, so a
// large analytic scan cannot stall epoch advance (and therefore node
// reuse) for its whole duration. It is also the scan's whole buffer, an
// array in SnapshotScan's frame: a scan allocates nothing, whatever the
// table holds. E17's sweep found ns/row level from 32 to 1024 slots, on a
// warm goroutine and on a new one; 4096 no longer fits a frame and is back
// on the heap.
const snapshotScanChunk = 256

// SnapshotScan iterates the rows visible at sequence s in insertion
// (RowID) order and reports whether fn let it finish. Safe from any
// goroutine. The epoch is re-entered every snapshotScanChunk slots,
// resuming by RowID (the directory stays
// id-sorted across compaction); the view remains consistent because
// visibility is purely sequence-based — the caller's pin keeps every
// visible version alive, slots reclaimed between chunks held nothing
// visible at s, and slots appended between chunks hold only pending
// (invisible) versions. Visible payloads are captured per chunk and the
// callback runs outside the epoch, so stub resolution (cold page-in)
// never delays epoch advance and a callback that stops the scan leaves no
// guard behind; captured cold refs stay readable because the caller's pin
// keeps the watermark from passing them (see cold.go).
func (t *Table) SnapshotScan(seq Seq, fn func(id RowID, row types.Row) bool) bool {
	em := t.clock.Epochs()
	var afterID RowID // resume: first slot with id > afterID
	var buf [snapshotScanChunk]snapHit
	for {
		g := em.Enter()
		d := t.slots()
		lo := slotSearch(d, afterID+1)
		end := min(lo+snapshotScanChunk, len(d))
		n := 0
		for _, s := range d[lo:end] {
			if v := s.versionAt(seq); v != nil {
				buf[n] = snapHit{id: s.id, pl: v.payload()}
				n++
			}
		}
		if end > lo {
			afterID = d[end-1].id
		}
		g.Exit()
		for w := 0; w < n; w += coldWindow {
			win := buf[w:min(w+coldWindow, n)]
			t.resolveCold(win)
			for i := range win {
				if !fn(win[i].id, t.resolveVersion(win[i].pl)) {
					return false
				}
			}
		}
		if end == len(d) {
			return true
		}
	}
}

// SnapshotCount returns the number of rows visible at sequence seq: the
// rows SnapshotScan would emit. It walks the directory in the same
// epoch-bounded chunks but only resolves each slot's visible version, so
// it captures no payload, faults in no cold row and touches nothing. Safe
// from any goroutine; the caller holds a pin at seq, as for SnapshotScan.
func (t *Table) SnapshotCount(seq Seq) int {
	em := t.clock.Epochs()
	var afterID RowID
	n := 0
	for {
		g := em.Enter()
		d := t.slots()
		lo := slotSearch(d, afterID+1)
		end := min(lo+snapshotScanChunk, len(d))
		for _, s := range d[lo:end] {
			if s.versionAt(seq) != nil {
				n++
			}
		}
		if end > lo {
			afterID = d[end-1].id
		}
		g.Exit()
		if end == len(d) {
			return n
		}
	}
}

// DeltaScan reports the visible difference between two published
// sequences, in insertion (RowID) order: for every version born in
// (from, to] and still visible at to, fn is called with born=true; for
// every version visible at from but dead by to, fn is called with
// born=false (its row image is the from-visible one). An update surfaces
// as a death of the old image and a birth of the new; a version both born
// and dead inside the interval is invisible at both ends and skipped.
// Used by slot migration's catch-up: the bulk copy runs at from, the
// cutover applies the delta up to to at a quiescent barrier, where the
// writer is parked — one epoch hold for the whole walk is harmless there.
func (t *Table) DeltaScan(from, to Seq, fn func(id RowID, row types.Row, born bool) bool) {
	g := t.clock.Epochs().Enter()
	defer g.Exit()
	for _, s := range t.slots() {
		atFrom := s.versionAt(from)
		atTo := s.versionAt(to)
		// Version identity (not row identity) decides "same image": an
		// evicted version's row is nil until resolved.
		if atFrom != nil && atFrom != atTo {
			if !fn(s.id, t.resolveVersion(atFrom.payload()), false) {
				return
			}
		}
		if atTo != nil && atFrom != atTo {
			if !fn(s.id, t.resolveVersion(atTo.payload()), true) {
				return
			}
		}
	}
}

// LookupBuf is room a caller lends SnapshotLookup for its lists of ids and
// hits, which then cost nothing once the buffer has grown to the caller's
// largest lookup. The zero value is ready. A lookup takes the lists out
// while it runs, so one nested in its fn (a join's inner probe) grows lists
// of its own and never overwrites the outer one's.
type LookupBuf struct {
	ids  []RowID
	hits []snapHit
}

// lookupRetain bounds, in entries, the lists a LookupBuf keeps, so one wide
// lookup does not pin its size for the life of the buffer.
const lookupRetain = 2048

// SnapshotLookup hands fn the rows whose key in ix is exactly key, as
// visible at sequence s, and reports whether fn let it finish. ix must be
// an index of this table. Payloads are captured inside the epoch in buf's
// lists; outside it each is resolved, stubs included, and kept only when
// it carries key.
func (t *Table) SnapshotLookup(ix *Index, key types.Row, seq Seq, buf *LookupBuf, fn func(id RowID, row types.Row) bool) bool {
	ids, hits := buf.ids[:0], buf.hits[:0]
	buf.ids, buf.hits = nil, nil
	g := t.clock.Epochs().Enter()
	d := t.slots()
	ids = ix.sl.lookup(key, ids)
	for _, id := range ids {
		if s := slotByID(d, id); s != nil {
			if v := s.versionAt(seq); v != nil {
				s.touch()
				hits = append(hits, snapHit{id: id, pl: v.payload()})
			}
		}
	}
	g.Exit()
	done := true
walk:
	for w := 0; w < len(hits); w += coldWindow {
		win := hits[w:min(w+coldWindow, len(hits))]
		t.resolveCold(win)
		for _, h := range win {
			if row := t.resolveVersion(h.pl); ix.matches(row, key) && !fn(h.id, row) {
				done = false
				break walk
			}
		}
	}
	clear(hits) // no payload stays reachable from the buffer
	if cap(ids) > lookupRetain || cap(hits) > lookupRetain {
		ids, hits = nil, nil
	}
	buf.ids, buf.hits = ids[:0], hits[:0]
	return done
}

// SnapshotRange iterates (key, row) pairs with lo <= key <= hi in key
// order as visible at sequence s. A nil bound is unbounded on that side.
// ix must be an index of this table; the error is always nil. The skiplist
// walk has no stable resume token, so one epoch hold covers the whole
// range — a wide range delays epoch advance (memory reuse) for the walk's
// duration but never delays the writer. Pairs are captured in the epoch —
// keys by value, since an index entry's key may be rewritten once the
// epoch is left — and resolved (with cold page-in) outside it, where a row
// whose version does not carry its entry's key is dropped. The capture
// lists come from rangeBufs, so the key fn is handed is valid only until
// fn returns.
func (t *Table) SnapshotRange(ix *Index, lo, hi types.Row, seq Seq, fn func(key types.Row, row types.Row) bool) error {
	buf := rangeBufs.Get().(*rangeBuf)
	hits, keys := buf.hits, buf.keys // hit i's key is keys[i*nk : (i+1)*nk]
	nk := len(ix.cols)
	g := t.clock.Epochs().Enter()
	d := t.slots()
	ix.sl.scan(lo, hi, func(key types.Row, id RowID) bool {
		s := slotByID(d, id)
		if s == nil {
			return true
		}
		v := s.versionAt(seq)
		if v == nil {
			return true
		}
		hits = append(hits, snapHit{pl: v.payload()})
		keys = append(keys, key...)
		return true
	})
	g.Exit()
walk:
	for w := 0; w < len(hits); w += coldWindow {
		win := hits[w:min(w+coldWindow, len(hits))]
		t.resolveCold(win)
		for i, h := range win {
			key := keys[(w+i)*nk : (w+i+1)*nk : (w+i+1)*nk]
			if row := t.resolveVersion(h.pl); ix.matches(row, key) && !fn(key, row) {
				break walk
			}
		}
	}
	// Nothing a walk captured stays reachable from the pool, and one wide
	// walk does not pin its size there.
	clear(hits)
	clear(keys)
	if cap(hits) <= lookupRetain && cap(keys) <= lookupRetain {
		buf.hits, buf.keys = hits[:0], keys[:0]
		rangeBufs.Put(buf)
	}
	return nil
}

// rangeBuf holds a SnapshotRange's capture lists between walks.
type rangeBuf struct {
	hits []snapHit
	keys []types.Value
}

var rangeBufs = sync.Pool{New: func() any { return new(rangeBuf) }}

// ---------- staged versions (slot migration) ----------
//
// Slot migration bulk-copies a slot's rows into the target partition while
// both partitions keep serving traffic. The copies must not be visible on
// the target before the atomic cutover — a query snapshotting both
// partitions mid-copy would count every copied row twice. Staged versions
// solve this: the row occupies a heap slot and a RowID but its visibility
// interval is empty, so neither snapshot readers nor the writer view see
// it. CommitStaged flips every staged version live in one critical
// section at the cutover barrier.

// seqStaged stamps a staged version: born == dead is an empty visibility
// interval, so versionAt never returns it and liveHead (dead == SeqInf) is
// nil. The value exceeds every publishable sequence, so GC
// (dead <= watermark) never reclaims a staged version by accident.
const seqStaged Seq = SeqInf - 1

// isStaged reports whether the slot holds a staged (not yet committed)
// copy. Staged slots hold exactly one version: invisible rows cannot be
// updated or deleted by normal operations.
func (s *rowSlot) isStaged() bool {
	h := s.head.Load()
	return h != nil && h.born.Load() == seqStaged && h.next.Load() == nil
}

// StageInsert validates and stores a row as a staged version — present in
// the heap, absent from every index, invisible at every sequence. Must run
// on the partition worker goroutine (migration batches ride RunExclusive),
// preserving the single-mutator invariant the lock-free structures depend
// on. Uniqueness is checked by PrecheckStaged at cutover, not here.
func (t *Table) StageInsert(row types.Row) (RowID, error) {
	validated, err := t.schema.ValidateRow(row)
	if err != nil {
		return 0, err
	}
	id := t.nextID
	t.nextID++
	s := &rowSlot{id: id}
	s.head.Store(newRowVersion(validated, seqStaged, seqStaged))
	t.appendSlot(s)
	t.staged.Add(1)
	t.residentBytes.Add(rowMemSize(validated))
	return id, nil
}

// Unstage discards one staged row (catch-up saw the source row die during
// the copy). Worker-only.
func (t *Table) Unstage(id RowID) error {
	s := slotByID(t.slots(), id)
	if s == nil || !s.isStaged() {
		return fmt.Errorf("storage: %s: unstage of non-staged row %d", t.name, id)
	}
	h := s.head.Load()
	t.residentBytes.Add(-rowMemSize(h.hotRow()))
	s.head.Store(nil)
	t.staged.Add(-1)
	t.clock.Epochs().RetireVersion(h)
	return nil
}

// StagedCount reports the number of staged rows.
func (t *Table) StagedCount() int { return int(t.staged.Load()) }

// StagedRows returns the staged rows in insertion order — the migration
// logs exactly these images in its prepare record before committing.
// Worker/barrier-only.
func (t *Table) StagedRows() []types.Row {
	out := make([]types.Row, 0, t.StagedCount())
	for _, s := range t.slots() {
		if s.isStaged() {
			out = append(out, s.head.Load().hotRow())
		}
	}
	return out
}

// PrecheckStaged verifies that flipping every staged row live would violate
// no unique constraint — against existing live rows and among the staged
// rows themselves. The migration calls it at the cutover barrier BEFORE
// writing its commit record: once the record is durable the flip must not
// be able to fail. The check stays valid through CommitStaged because the
// barrier parks every writer.
func (t *Table) PrecheckStaged() error {
	if t.StagedCount() == 0 {
		return nil
	}
	for _, ix := range t.idxs() {
		if !ix.unique {
			continue
		}
		seen := make(map[uint64][]types.Row, t.StagedCount())
		for _, s := range t.slots() {
			if !s.isStaged() {
				continue
			}
			key := s.head.Load().hotRow().Key(ix.cols)
			if !t.Lookup(ix, key, func(RowID, types.Row) bool { return false }) {
				return fmt.Errorf("storage: %s: staged row collides on key %v of unique index %q",
					t.name, key, ix.Name())
			}
			h := key.Hash()
			for _, prev := range seen[h] {
				if prev.Equal(key) {
					return fmt.Errorf("storage: %s: two staged rows share key %v of unique index %q",
						t.name, key, ix.Name())
				}
			}
			seen[h] = append(seen[h], key)
		}
	}
	return nil
}

// CommitStaged flips every staged version live at the pending sequence and
// inserts its index entries; the rows become visible when the clock next
// publishes. Callers must have run PrecheckStaged under the same exclusive
// barrier — a constraint violation here is a protocol bug, not an error.
func (t *Table) CommitStaged() int {
	ws := t.clock.WriteSeq()
	flipped := 0
	for _, s := range t.slots() {
		if !s.isStaged() {
			continue
		}
		h := s.head.Load()
		row := h.hotRow()
		// Flip dead first: [seqStaged, SeqInf) is still empty for every
		// published sequence, so a concurrent reader never sees a
		// half-flipped interval as visible.
		h.dead.Store(SeqInf)
		h.born.Store(ws)
		for _, ix := range t.idxs() {
			if !t.enter(ix, row.Key(ix.cols), s.id, false) {
				panic("storage: staged index insert failed after precheck: " + ix.Name())
			}
		}
		t.live.Add(1)
		flipped++
	}
	t.staged.Add(-int64(flipped))
	return flipped
}

// DropStaged discards every staged row (aborted migration). Worker-only.
func (t *Table) DropStaged() int {
	em := t.clock.Epochs()
	dropped := 0
	for _, s := range t.slots() {
		if !s.isStaged() {
			continue
		}
		h := s.head.Load()
		t.residentBytes.Add(-rowMemSize(h.hotRow()))
		s.head.Store(nil)
		em.RetireVersion(h)
		dropped++
	}
	t.staged.Add(-int64(dropped))
	return dropped
}

// ---------- version garbage collection ----------

// maybeGC runs an inline sweep once dead versions dominate — the
// multi-version analogue of tombstone compaction, bounded by the snapshot
// watermark so pinned readers keep their view. Worker-only.
func (t *Table) maybeGC() {
	dead := int(t.deadVers.Load())
	if dead < 64 || dead <= len(t.slots())/2 || dead < t.gcMinDead {
		return
	}
	t.gcSweep(t.clock.Watermark())
}

// GC reclaims every version dead at or below watermark, with each index
// entry no kept version carries, and compacts away emptied slots,
// returning the number of row versions
// reclaimed and retained. Call from the partition worker (or any quiescent
// point): it is a mutation. Concurrent snapshot readers are undisturbed —
// unlinked nodes stay intact until their epoch grace period ends. A table
// with no dead stamps has nothing to sweep and returns in O(1), so
// periodic sweeps cost mostly-read tables nothing.
func (t *Table) GC(watermark Seq) (reclaimed, retained int) {
	if t.deadVers.Load() == 0 {
		return 0, t.Count() + t.StagedCount()
	}
	return t.gcSweep(watermark)
}

// gcSweep is GC's body. A version is reclaimable iff its dead stamp is at
// or below the watermark: no pinned snapshot (all at or above the
// watermark) and no future one can see it. Pending stamps exceed the
// current sequence and therefore the watermark, so an in-flight
// transaction's chain entries — which undo may still need — are never
// touched. Chains are newest-first with monotonically decreasing stamps,
// so the reclaimable versions form a suffix: one atomic store cuts the
// chain, and a straggling reader past the cut finishes on intact retired
// nodes.
func (t *Table) gcSweep(watermark Seq) (reclaimed, retained int) {
	em := t.clock.Epochs()
	d := t.slots()
	dropped := 0
	var gone []goneID
	for _, s := range d {
		head := s.head.Load()
		if head == nil {
			dropped++ // emptied by undo/unstage; rebuild discards it
			continue
		}
		if head.dead.Load() <= watermark {
			// The newest version is reclaimable, so the whole chain is:
			// the slot is a fully expired tombstone.
			s.head.Store(nil)
			reclaimed += t.reclaim(s.id, nil, head, nil, em, &gone)
			dropped++
			continue
		}
		kept := 1
		for pred := head; pred.next.Load() != nil; pred = pred.next.Load() {
			if v := pred.next.Load(); v.dead.Load() <= watermark {
				pred.next.Store(nil)
				reclaimed += t.reclaim(s.id, head, v, pred, em, &gone)
				break
			}
			kept++
		}
		retained += kept
	}
	eraseGone(gone)
	if dropped > 0 {
		nd := make([]*rowSlot, 0, len(d)-dropped)
		for _, s := range d {
			if s.head.Load() != nil {
				nd = append(nd, s)
			}
		}
		t.setSlots(nd)
		if t.evictCursor > len(nd) {
			t.evictCursor = 0
		}
	}
	t.deadVers.Add(int64(-reclaimed))
	t.gcMinDead = int(t.deadVers.Load()) * 2
	return reclaimed, retained
}

// reclaim retires the versions of row id's chain from v on, cut off below
// newer (nil when the whole chain went, head nil with it), and returns how
// many it took. Each index entry whose key no version kept from head on
// carries goes with them: it is collected into gone, which the sweep
// erases at its end. A version whose newer neighbour is not rekeyed has
// that neighbour's keys, already kept or already collected, so it is not
// even read — a run of non-key updates costs the indexes nothing. The
// versions taken are resident: only a live head is evicted, and Delete and
// Update fault the head in before ending it.
func (t *Table) reclaim(id RowID, head, v, newer *rowVersion, em *EpochManager, gone *[]goneID) (n int) {
	for ; v != nil; newer, v = v, v.next.Load() {
		row := v.hotRow()
		if newer == nil || newer.rekeyed {
			for _, ix := range t.idxs() {
				var kb keyBuf
				if key := ix.keyOf(row, &kb); !t.kept(ix, key, head) {
					*gone = ix.sl.collect(*gone, key, id)
				}
			}
		}
		t.residentBytes.Add(-rowMemSize(row))
		em.RetireVersion(v)
		n++
	}
	return n
}

// VersionStats reports the total retained versions and how many of them
// are dead (awaiting the watermark) — the version-chain gauges. Safe from
// any goroutine.
func (t *Table) VersionStats() (versions, dead int) {
	g := t.clock.Epochs().Enter()
	for _, s := range t.slots() {
		for v := s.head.Load(); v != nil; v = v.next.Load() {
			versions++
		}
	}
	g.Exit()
	return versions, int(t.deadVers.Load())
}
