package storage

import (
	"unsafe"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// Anti-caching layer (DESIGN.md §7). Tables attached to a coldstore can
// evict a row's live head, committed at or below the snapshot watermark,
// out of its in-memory version chain into cold pages, leaving a stub: the
// rowVersion keeps its born/dead stamps (visibility never needs disk)
// but its row pointer becomes nil and its cold word names the tuple.
// Dead versions are never evicted — Delete and Update fault the head in
// before ending it — so GC reads a reclaimed version's key columns from
// memory.
// The two words are published by one rule (rowVersion): eviction stores
// cold, then nils rowp; rehydration stores rowp and leaves cold stale;
// a reader loads rowp and reads cold only when rowp is nil. So a
// concurrent lock-free reader always captures a whole image — the row,
// or a ref to a page holding the same row — never a nil row with a zero
// ref. A reader that loaded a nil rowp may read the ref of a later
// eviction of the same version; it names the same image, and its slot
// is freed only by a later DeferFree at a sequence at or above every
// pin, or by GC once the version is invisible to every pin. Readers
// that hit a stub read the tuple's bytes back from the cold store:
//
//   - The partition worker (writer view: Get, Update, Delete) faults
//     synchronously and reinstalls the row in the chain, so a tuple the
//     writer touches turns hot again. The superseded cold slot is freed
//     only after the watermark passes the rehydration point, because a
//     snapshot reader may have captured the stub's ref before the
//     reinstall.
//   - Snapshot readers resolve stubs read-through: they capture the
//     payload inside their epoch, leave it, and decode a private copy —
//     cold I/O never delays the writer or epoch advance, and never
//     mutates the chain. A walk resolves its stubs a window at a time as
//     one batch read (resolveCold).
//
// Eviction itself runs only on the partition worker (at GC rhythm), so
// the single-mutator invariant covers stubbing out versions too. Index
// entries are untouched by eviction: an entry is its own key copy and a
// RowID. An index read resolves a candidate's version before checking it
// carries the entry's key, so a row whose key moved and whose new head
// went cold can cost a lookup under the old key one cold read, until GC
// takes the old version and its entry.

// budgetValueBytes is what one value counts for in the resident-bytes
// ledger, the unit MemoryBudget is set in. It is the budget's unit, not
// the size of types.Value (16 bytes): it stays 40 so that a budget — and
// a row size derived from this accounting, like the benchmark's kv row —
// means the same number of rows whatever the struct's layout.
const budgetValueBytes = 40

// rowMemSize is a resident row's charge to the ledger: a 24 B header,
// budgetValueBytes per value and the string payloads. It only has to be
// consistent between the insert and evict sides of the ledger.
func rowMemSize(r types.Row) int64 {
	n := int64(24)
	for _, v := range r {
		n += budgetValueBytes
		if v.Type() == types.TypeString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// AttachColdStore wires the partition's shared cold store to the table,
// making it evictable. Call before the table serves traffic (catalog
// creation or recovery setup).
func (t *Table) AttachColdStore(cs *coldstore.Store) {
	t.cold = cs
}

// Evictable reports whether a cold store is attached.
func (t *Table) Evictable() bool { return t.cold != nil }

// ResidentBytes returns the approximate heap bytes of in-memory row
// versions (stubs excluded) — the quantity the evictor works to keep
// under budget.
func (t *Table) ResidentBytes() int64 { return t.residentBytes.Load() }

// ColdStats reports evicted-version and fault counters.
func (t *Table) ColdStats() (coldVersions int, evictions, faults uint64) {
	return int(t.coldVers.Load()), t.coldEvictions.Load(), t.coldFaults.Load()
}

// readCold resolves a stub read-through: read the tuple's bytes and
// decode them, without touching the version chain. Safe from any
// goroutine; must not be called inside an epoch guard (cold I/O can
// block, stalling epoch advance). Failure here means the anti-caching
// invariants broke (a ref freed while still reachable, or a torn page)
// — not a recoverable condition.
func (t *Table) readCold(ref coldstore.Ref) types.Row {
	t.coldFaults.Add(1)
	var scratch [512]byte
	tuple, err := t.cold.Read(ref, scratch[:0])
	if err != nil {
		panic("storage: " + t.name + ": cold fault: " + err.Error())
	}
	return t.decodeCold(tuple)
}

// decodeCold decodes an evicted tuple's bytes into a fresh row.
func (t *Table) decodeCold(tuple []byte) types.Row {
	row, _, err := types.DecodeRow(tuple)
	if err != nil {
		panic("storage: " + t.name + ": cold tuple decode: " + err.Error())
	}
	return row
}

// coldWindow is how many captured hits a walk resolves ahead of its
// callback: their stubs are read as one batch, so a walk its callback
// stops early has read at most one window it did not need.
const coldWindow = 64

// resolveCold replaces the cold payloads among hits, at most coldWindow of
// them, with their decoded rows, read in one ReadBatch. A table with no
// cold store attached has none and returns at once. Call outside any
// epoch guard.
func (t *Table) resolveCold(hits []snapHit) {
	if t.cold == nil {
		return
	}
	var fs [coldWindow]coldstore.Fetch
	n := 0
	for i := range hits {
		if pl := hits[i].pl; pl.row == nil && pl.cold != 0 {
			fs[n] = coldstore.Fetch{Ref: pl.cold, At: i}
			n++
		}
	}
	if n == 0 {
		return
	}
	t.coldFaults.Add(uint64(n))
	err := t.cold.ReadBatch(fs[:n], func(at int, tuple []byte) {
		hits[at].pl.row = t.decodeCold(tuple)
	})
	if err != nil {
		panic("storage: " + t.name + ": cold fault: " + err.Error())
	}
}

// resolveVersion returns the row image of a captured payload, faulting
// read-through when evicted. Call outside any epoch guard.
func (t *Table) resolveVersion(pl versionPayload) types.Row {
	if pl.row != nil || pl.cold == 0 {
		return pl.row
	}
	return t.readCold(pl.cold)
}

// faultHead rehydrates the newest version of the slot into the chain and
// returns its row. Worker-only (single-mutator): the version cannot
// change between the cold read and the reinstall, which is one atomic
// store of rowp — cold is left stale and width untouched (the decoded row
// has the width the version was stored with). The superseded cold slot is
// deferred-freed at the current sequence — any snapshot reader that
// captured the stub's ref holds a pin at or below it, so the slot
// outlives every such reader.
func (t *Table) faultHead(s *rowSlot) types.Row {
	v := s.head.Load()
	pl := v.payload()
	if pl.row != nil {
		return pl.row
	}
	row := t.readCold(pl.cold)
	v.rowp.Store(unsafe.SliceData(row))
	t.residentBytes.Add(rowMemSize(row))
	t.coldVers.Add(-1)
	t.cold.DeferFree(pl.cold, uint64(t.clock.Current()))
	return row
}

// touch sets the second-chance bit of the slot's head; the evictor clears
// it and skips the row once before evicting. Set on point accesses (Get,
// snapshot point reads, faults) but not on full scans, so one analytic
// pass cannot flush the hot set.
func (s *rowSlot) touch() {
	if h := s.head.Load(); h != nil {
		h.touched.Store(1)
	}
}

// Evict moves live heads into the cold store until roughly `need` resident
// bytes are freed, round-robin from the last cursor position with one
// clock (second-chance) pass per slot. Only a committed live head born at
// or below watermark qualifies: published, stable (no undo can touch it),
// and identical on every replica's logical timeline. A dead version stays
// resident until GC reclaims it and reads its key columns. Worker-only.
// Each eviction stores the ref and then nils the row pointer, and
// allocates nothing, so concurrent snapshot readers are never blocked and
// never see a torn version — a reader that loaded the row pointer just
// before the store keeps reading its row; one that loads the nil after it
// finds the ref already there and faults read-through.
func (t *Table) Evict(watermark Seq, need int64) (versions int, bytes int64) {
	if t.cold == nil || need <= 0 {
		return 0, 0
	}
	d := t.slots()
	for scanned := 0; scanned < len(d) && bytes < need; scanned++ {
		if t.evictCursor >= len(d) {
			t.evictCursor = 0
		}
		v := d[t.evictCursor].liveHead() // nil for a staged copy: its dead stamp is not SeqInf
		t.evictCursor++
		if v == nil {
			continue
		}
		if v.touched.Load() == 1 {
			v.touched.Store(0) // second chance
			continue
		}
		row := v.hotRow()
		if row == nil || v.born.Load() > watermark {
			continue
		}
		t.encBuf = types.EncodeRow(t.encBuf[:0], row)
		if len(t.encBuf) > t.cold.MaxTuple() {
			continue // oversized tuples stay hot
		}
		ref, err := t.cold.Put(t.encBuf)
		if err != nil {
			return versions, bytes // disk trouble: stop, stay hot
		}
		sz := rowMemSize(row)
		v.cold.Store(uint64(ref))
		v.rowp.Store(nil)
		t.residentBytes.Add(-sz)
		t.coldVers.Add(1)
		t.coldEvictions.Add(1)
		versions++
		bytes += sz
	}
	return versions, bytes
}

// ReleaseColdFrees frees cold slots whose deferred-free sequence the
// watermark has passed. Called at GC rhythm by the engine.
func (t *Table) ReleaseColdFrees(watermark Seq) {
	if t.cold == nil {
		return
	}
	t.cold.ReleaseFreed(uint64(watermark))
}
