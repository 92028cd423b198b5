// Package catalog holds the engine's metadata in two parts: the store-wide
// Schema (every relation's definition — table, stream, or window — with its
// partitioning, window specification and indexes, plus the deployed
// dataflows) and each partition's Catalog, the storage a partition keeps
// for a Schema (tables, window slide state, the commit clock). Both are
// pure data; query planning lives in the execution engine and trigger /
// workflow wiring lives in the partition engine.
package catalog

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// RelationKind distinguishes the three relation classes of S-Store.
type RelationKind uint8

// Relation kinds.
const (
	KindTable RelationKind = iota
	KindStream
	KindWindow
)

func (k RelationKind) String() string {
	switch k {
	case KindTable:
		return "TABLE"
	case KindStream:
		return "STREAM"
	case KindWindow:
		return "WINDOW"
	default:
		return fmt.Sprintf("RelationKind(%d)", uint8(k))
	}
}

// WindowSpec mirrors sql.WindowSpec but lives here so catalog does not
// depend on the SQL front end.
type WindowSpec struct {
	Rows    bool   // tuple-based (ROWS) vs time-based (RANGE)
	Size    int64  // rows, or microseconds for RANGE
	Slide   int64  // rows, or microseconds for RANGE
	TimeCol int    // ordinal of the event-time column (RANGE only)
	Source  string // source stream name
}

// WindowState is the transactional runtime state of one window. Mutations
// happen only inside the execution engine under the owning transaction's
// undo log, so aborts restore both the backing table and these fields.
type WindowState struct {
	// Tuple-based: tuples staged since the last slide. The window advances
	// by Slide tuples at a time once full (paper: windows only "jump" in
	// slide-sized steps).
	Staged []types.Row
	// Total tuples ever admitted into the window (drives the first fill).
	Admitted int64

	// Time-based: the high watermark (max event time seen, quantized to
	// Slide boundaries). Tuples older than watermark-Size are evicted.
	Watermark int64

	// SlideCount increments every time the window slides; EE triggers on
	// the window fire when it does.
	SlideCount int64

	// OwnerProc is the stored procedure whose consecutive transaction
	// executions may access this window ("scope of a transaction
	// execution", §2). Empty means unrestricted (window not yet claimed).
	OwnerProc string
}

// Relation is one relation's storage on a partition: its definition, its
// table, and — for windows — the window runtime state.
type Relation struct {
	*RelDef
	Table *storage.Table
	Win   *WindowState // non-nil iff Kind == KindWindow

	// Windows lists, for a stream, the windows over it, sorted by name:
	// what every insert into the stream has to feed. Sync maintains it, so
	// the insert path looks nothing up.
	Windows []*Relation
}

// Catalog is one partition's storage for the Schema it was last synced to:
// every relation's table, each window's slide state, the commit clock and
// the cold store.
type Catalog struct {
	schema atomic.Pointer[Schema]
	rels   map[string]*Relation
	// dropped holds what the last Sync dropped, so that syncing back to the
	// Schema before it (a failed script's unwind) revives it, rows and all.
	dropped map[*types.Schema]*Relation
	// clock is the partition's commit clock: every table created through
	// this catalog stamps its row versions from it, so one publish at
	// commit makes a whole transaction's writes — across all its tables —
	// visible atomically to snapshot readers.
	clock *storage.PartitionClock

	// cold, when set, is the partition's shared cold store; every base
	// table (existing and future) is attached to it and becomes evictable.
	cold *coldstore.Store
}

// New returns an empty catalog with a fresh partition clock.
func New() *Catalog {
	c := &Catalog{rels: make(map[string]*Relation), clock: storage.NewPartitionClock()}
	c.schema.Store(emptySchema)
	return c
}

// Schema returns the Schema the catalog was last synced to.
func (c *Catalog) Schema() *Schema { return c.schema.Load() }

// Clock returns the partition's commit clock.
func (c *Catalog) Clock() *storage.PartitionClock { return c.clock }

func key(name string) string { return strings.ToLower(name) }

// Relation resolves a name (case-insensitive) to its relation, or nil.
func (c *Catalog) Relation(name string) *Relation { return c.rels[key(name)] }

// MustRelation resolves a name or returns a descriptive error.
func (c *Catalog) MustRelation(name string) (*Relation, error) {
	if r := c.rels[key(name)]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("catalog: relation %q does not exist", name)
}

// Names returns all relation names in sorted order (deterministic output
// for tools and tests).
func (c *Catalog) Names() []string { return c.schema.Load().Names() }

// Sync installs next: it creates the tables and indexes next defines and
// the partition lacks and drops those it no longer defines; a relation keeps
// its storage while its definition keeps its types.Schema. Only a unique
// index meeting duplicate rows fails, leaving the partition as it was. Sync
// reports whether any relation changed: one that did not touches no storage,
// so it may run on a started partition, and any other is set-up.
func (c *Catalog) Sync(next *Schema) (bool, error) {
	if maps.Equal(c.schema.Load().rels, next.rels) {
		c.schema.Store(next)
		return false, nil
	}
	rels := make(map[string]*Relation, len(next.rels))
	for k, def := range next.rels {
		r := c.rels[k]
		if r == nil || r.Schema != def.Schema {
			r = c.dropped[def.Schema]
		}
		if r == nil {
			r = &Relation{RelDef: def, Table: storage.NewTableWithClock(def.Schema, c.clock)}
			if def.Kind == KindWindow {
				r.Win = &WindowState{}
			}
			if def.Kind == KindTable && c.cold != nil {
				r.Table.AttachColdStore(c.cold)
			}
		}
		rels[k] = r
		if err := syncIndexes(r.Table, def.Indexes); err != nil {
			for _, r := range rels {
				// r's definition is still the one it held, and its indexes
				// held its rows then: rebuilding them cannot fail.
				_ = syncIndexes(r.Table, r.Indexes)
			}
			return false, err
		}
	}
	dropped := make(map[*types.Schema]*Relation)
	for k, r := range c.rels {
		if rels[k] != r {
			dropped[r.Schema] = r
		}
	}
	for k, r := range rels {
		r.RelDef, r.Windows = next.rels[k], nil
	}
	for _, name := range next.Names() {
		if w := rels[key(name)]; w.Kind == KindWindow {
			src := rels[key(w.Window.Source)]
			src.Windows = append(src.Windows, w)
		}
	}
	c.rels, c.dropped = rels, dropped
	c.schema.Store(next)
	return true, nil
}

// syncIndexes makes t's secondary indexes those of want: it drops the ones
// want lacks or defines otherwise and builds the missing ones.
func syncIndexes(t *storage.Table, want []IndexDef) error {
	for _, ix := range t.Indexes() {
		if ix != t.PrimaryIndex() && !slices.ContainsFunc(want, func(d IndexDef) bool {
			return d.Name == ix.Name() && d.Unique == ix.Unique() && slices.Equal(d.Cols, ix.Columns())
		}) {
			t.DropIndex(ix.Name())
		}
	}
	for _, d := range want {
		if t.IndexByName(d.Name) == nil {
			if _, err := t.CreateIndex(d.Name, d.Cols, d.Unique); err != nil {
				return err
			}
		}
	}
	return nil
}

// AttachColdStore enables anti-caching: every base table — present and
// future — shares the given cold store and becomes evictable. Streams and
// windows stay hot: streams are transient queues the PE drains and windows
// are by definition the hot working set.
func (c *Catalog) AttachColdStore(cs *coldstore.Store) {
	c.cold = cs
	for _, r := range c.rels {
		if r.Kind == KindTable {
			r.Table.AttachColdStore(cs)
		}
	}
}

// ColdStore returns the attached cold store, or nil.
func (c *Catalog) ColdStore() *coldstore.Store { return c.cold }

// DetachColdStore clears and returns the cold-store handle so the owner
// can close it at shutdown. Relations keep any stubs they hold; those
// are unreadable once the store closes, exactly like a closed WAL.
func (c *Catalog) DetachColdStore() *coldstore.Store {
	cs := c.cold
	c.cold = nil
	return cs
}

// EvictableTables lists every evictable relation's table, sorted by name
// (the evictor's deterministic round-robin order).
func (c *Catalog) EvictableTables() []*storage.Table {
	var tbls []*storage.Table
	for _, name := range c.Names() {
		if t := c.Relation(name).Table; t.Evictable() {
			tbls = append(tbls, t)
		}
	}
	return tbls
}
