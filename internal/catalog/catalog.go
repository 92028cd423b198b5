// Package catalog holds the engine's metadata: every relation (table,
// stream, or window), its backing storage, and the streaming attributes —
// window specifications and their transactional slide state. The catalog is
// pure data; query planning lives in the execution engine and trigger /
// workflow wiring lives in the partition engine.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
	Spec WindowSpec

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

// Relation is one named relation: its kind, schema, backing storage, and —
// for windows — the window runtime state.
type Relation struct {
	Name   string
	Kind   RelationKind
	Schema *types.Schema
	Table  *storage.Table
	Win    *WindowState // non-nil iff Kind == KindWindow

	// Windows lists, for a stream, the windows over it, sorted by name:
	// what every insert into the stream has to feed. CreateWindow and Drop
	// maintain it, so the insert path looks nothing up.
	Windows []*Relation

	// PartCol is the ordinal of the hash-partitioning column declared with
	// PARTITION BY, or -1 when the relation is unpartitioned. In a
	// multi-partition store the router hashes this column to pick the owning
	// partition; unpartitioned tables are treated as replicated reference
	// data and unpartitioned streams are pinned to partition 0.
	PartCol int

	// Evictable marks the relation as a candidate for anti-caching: the
	// evictor may move its cold committed row versions to the partition's
	// cold store. Only base tables qualify — streams are transient queues
	// the PE drains and windows are by definition the hot working set, so
	// both always stay memory-resident.
	Evictable bool

	// Partial marks a partitioned relation declared PARTITION BY ... PARTIAL:
	// its rows are partition-local partial state (e.g. per-partition partial
	// aggregates maintained by procedures routed on a different key), so
	// every partition may legitimately hold a row for any key. Fan-out
	// queries re-aggregate partials; elastic repartitioning must leave their
	// rows where they are — rehoming them by partition key would collide
	// unique indexes and double-count aggregates.
	Partial bool
}

// Partitioned reports whether the relation declares a partitioning column.
func (r *Relation) Partitioned() bool { return r.PartCol >= 0 }

// SetPartitionColumn resolves and records the PARTITION BY column and its
// optional PARTIAL marker. Windows inherit their source stream's
// partitioning and cannot declare their own.
func (r *Relation) SetPartitionColumn(name string, partial bool) error {
	if r.Kind == KindWindow {
		return fmt.Errorf("catalog: window %q cannot declare PARTITION BY", r.Name)
	}
	ord := r.Schema.ColumnIndex(name)
	if ord < 0 {
		return fmt.Errorf("catalog: relation %q has no column %q to partition by", r.Name, name)
	}
	r.PartCol = ord
	r.Partial = partial
	return nil
}

// Catalog is the metadata root. It is mutated only during DDL (which the
// partition engine serializes like any transaction) and dataflow
// deployment, and read during planning and execution.
type Catalog struct {
	rels      map[string]*Relation
	dataflows map[string]*Dataflow
	// clock is the partition's commit clock: every table created through
	// this catalog stamps its row versions from it, so one publish at
	// commit makes a whole transaction's writes — across all its tables —
	// visible atomically to snapshot readers.
	clock *storage.PartitionClock

	// cold, when set, is the partition's shared cold store; every base
	// table (existing and future) is attached to it and marked evictable.
	cold *coldstore.Store
}

// New returns an empty catalog with a fresh partition clock.
func New() *Catalog {
	return &Catalog{
		rels:      make(map[string]*Relation),
		dataflows: make(map[string]*Dataflow),
		clock:     storage.NewPartitionClock(),
	}
}

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
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for _, r := range c.rels {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}

// CreateTable registers a new base table.
func (c *Catalog) CreateTable(schema *types.Schema) (*Relation, error) {
	return c.create(schema, KindTable, nil)
}

// CreateStream registers a new stream. Streams are keyless append-only
// relations; the engine garbage-collects their tuples after downstream
// consumption.
func (c *Catalog) CreateStream(schema *types.Schema) (*Relation, error) {
	if schema.HasPrimaryKey() {
		return nil, fmt.Errorf("catalog: stream %q cannot declare a primary key", schema.Name())
	}
	return c.create(schema, KindStream, nil)
}

// CreateWindow registers a window over an existing stream. The window's
// schema equals the source stream's schema (window name substituted).
func (c *Catalog) CreateWindow(name string, spec WindowSpec) (*Relation, error) {
	src, err := c.MustRelation(spec.Source)
	if err != nil {
		return nil, err
	}
	if src.Kind != KindStream {
		return nil, fmt.Errorf("catalog: window %q source %q is a %s, want STREAM", name, spec.Source, src.Kind)
	}
	if spec.Size <= 0 || spec.Slide <= 0 {
		return nil, fmt.Errorf("catalog: window %q size and slide must be positive", name)
	}
	if !spec.Rows {
		if spec.TimeCol < 0 || spec.TimeCol >= src.Schema.NumColumns() {
			return nil, fmt.Errorf("catalog: window %q time column %d out of range", name, spec.TimeCol)
		}
		ct := src.Schema.Column(spec.TimeCol).Type
		if ct != types.TypeTimestamp && ct != types.TypeInt {
			return nil, fmt.Errorf("catalog: window %q time column must be TIMESTAMP or BIGINT, got %s", name, ct)
		}
	}
	cols := src.Schema.Columns()
	schema, err := types.NewSchema(name, cols, nil)
	if err != nil {
		return nil, err
	}
	spec.Source = src.Name
	rel, err := c.create(schema, KindWindow, &WindowState{Spec: spec})
	if err != nil {
		return nil, err
	}
	// A window over a partitioned stream holds partition-local state; it
	// inherits the source's partitioning (same schema, same ordinal, same
	// PARTIAL marker) so the query router knows to fan reads out across
	// partitions.
	rel.PartCol = src.PartCol
	rel.Partial = src.Partial
	at := sort.Search(len(src.Windows), func(i int) bool { return src.Windows[i].Name >= rel.Name })
	src.Windows = slices.Insert(src.Windows, at, rel)
	return rel, nil
}

func (c *Catalog) create(schema *types.Schema, kind RelationKind, win *WindowState) (*Relation, error) {
	name := schema.Name()
	if _, exists := c.rels[key(name)]; exists {
		return nil, fmt.Errorf("catalog: relation %q already exists", name)
	}
	r := &Relation{
		Name:    name,
		Kind:    kind,
		Schema:  schema,
		Table:   storage.NewTableWithClock(schema, c.clock),
		Win:     win,
		PartCol: -1,
	}
	if kind == KindTable && c.cold != nil {
		r.Evictable = true
		r.Table.AttachColdStore(c.cold)
	}
	c.rels[key(name)] = r
	return r, nil
}

// AttachColdStore enables anti-caching: every base table — present and
// future — shares the given cold store and becomes evictable. Streams
// and windows stay hot (see Relation.Evictable).
func (c *Catalog) AttachColdStore(cs *coldstore.Store) {
	c.cold = cs
	for _, r := range c.rels {
		if r.Kind == KindTable {
			r.Evictable = true
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
	var out []*Relation
	for _, r := range c.rels {
		if r.Evictable {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	tbls := make([]*storage.Table, len(out))
	for i, r := range out {
		tbls[i] = r.Table
	}
	return tbls
}

// Drop removes a relation. Dropping a stream with dependent windows fails.
func (c *Catalog) Drop(name string) error {
	r := c.rels[key(name)]
	if r == nil {
		return fmt.Errorf("catalog: relation %q does not exist", name)
	}
	if len(r.Windows) > 0 {
		return fmt.Errorf("catalog: stream %q has dependent window %q", name, r.Windows[0].Name)
	}
	if r.Kind == KindWindow {
		if src := c.rels[key(r.Win.Spec.Source)]; src != nil {
			src.Windows = slices.DeleteFunc(src.Windows, func(w *Relation) bool { return w == r })
		}
	}
	delete(c.rels, key(name))
	return nil
}

// Streams lists every stream relation, sorted by name.
func (c *Catalog) Streams() []*Relation {
	var out []*Relation
	for _, r := range c.rels {
		if r.Kind == KindStream {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tables lists every base table, sorted by name.
func (c *Catalog) Tables() []*Relation {
	var out []*Relation
	for _, r := range c.rels {
		if r.Kind == KindTable {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
