package catalog

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/types"
)

// Schema is the store-wide description of the data: every relation's
// definition and the deployed dataflows. Partitions own only storage
// (Catalog) and sync it to a Schema. A published Schema is never modified:
// DDL edits a Clone and the dataflow lifecycle derives a copy (With...), so
// whoever holds one sees it whole.
type Schema struct {
	rels      map[string]*RelDef
	dataflows map[string]*Dataflow
	// paused maps each paused graph's consumed streams (lowercased) to the
	// graph's name, the router's pause gate; empty while nothing is paused.
	paused map[string]string
}

// emptySchema is the Schema of a fresh catalog.
var emptySchema = &Schema{rels: map[string]*RelDef{}, dataflows: map[string]*Dataflow{}}

// RelDef is one relation's definition. A Schema shares a RelDef with the
// Schemas cloned from it, so an edit replaces it rather than changing it.
type RelDef struct {
	Name   string
	Kind   RelationKind
	Schema *types.Schema

	// PartCol is the ordinal of the hash-partitioning column declared with
	// PARTITION BY, or -1 when the relation is unpartitioned. In a
	// multi-partition store the router hashes this column to pick the owning
	// partition; unpartitioned tables are treated as replicated reference
	// data and unpartitioned streams are pinned to partition 0.
	PartCol int

	// Partial marks a partitioned relation declared PARTITION BY ... PARTIAL:
	// its rows are partition-local partial state (e.g. per-partition partial
	// aggregates maintained by procedures routed on a different key), so
	// every partition may legitimately hold a row for any key. A read walks
	// every partition's rows, so no key names one owner; elastic
	// repartitioning must leave their rows where they are — rehoming them
	// by partition key would collide unique indexes and double-count
	// aggregates.
	Partial bool

	// Window is a window's specification (KindWindow only).
	Window WindowSpec

	// Indexes are the secondary indexes in creation order; a primary key's
	// index comes with the table.
	Indexes []IndexDef
}

// IndexDef is one secondary index: its name (unique store-wide), the
// column ordinals it keys on, and whether keys must be unique.
type IndexDef struct {
	Name   string
	Cols   []int
	Unique bool
}

// Partitioned reports whether the relation declares a partitioning column.
func (r *RelDef) Partitioned() bool { return r.PartCol >= 0 }

// SetPartitionColumn resolves and records the PARTITION BY column and its
// optional PARTIAL marker on a definition not yet published. Windows
// inherit their source stream's partitioning and cannot declare their own.
func (r *RelDef) SetPartitionColumn(name string, partial bool) error {
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

// Clone returns a modifiable copy: the edit methods below may be called on
// it until it is published.
func (s *Schema) Clone() *Schema {
	return &Schema{rels: maps.Clone(s.rels), dataflows: maps.Clone(s.dataflows), paused: s.paused}
}

// Relation resolves a name (case-insensitive) to its definition, or nil.
func (s *Schema) Relation(name string) *RelDef { return s.rels[key(name)] }

// Names returns all relation names in sorted order.
func (s *Schema) Names() []string {
	out := make([]string, 0, len(s.rels))
	for _, r := range s.rels {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}

// Create defines a new base table or stream. Streams are keyless
// append-only relations; the engine garbage-collects their tuples after
// downstream consumption.
func (s *Schema) Create(kind RelationKind, schema *types.Schema) (*RelDef, error) {
	if kind == KindStream && schema.HasPrimaryKey() {
		return nil, fmt.Errorf("catalog: stream %q cannot declare a primary key", schema.Name())
	}
	return s.create(&RelDef{Name: schema.Name(), Kind: kind, Schema: schema, PartCol: -1})
}

// CreateWindow defines a window over an existing stream. The window's
// schema equals the source stream's schema (window name substituted).
func (s *Schema) CreateWindow(name string, spec WindowSpec) (*RelDef, error) {
	src := s.Relation(spec.Source)
	if src == nil {
		return nil, fmt.Errorf("catalog: relation %q does not exist", spec.Source)
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
	schema, err := types.NewSchema(name, src.Schema.Columns(), nil)
	if err != nil {
		return nil, err
	}
	spec.Source = src.Name
	// A window over a partitioned stream holds partition-local state; it
	// inherits the source's partitioning (same schema, same ordinal, same
	// PARTIAL marker) so the query router knows to fan reads out across
	// partitions.
	return s.create(&RelDef{Name: name, Kind: KindWindow, Schema: schema, Window: spec,
		PartCol: src.PartCol, Partial: src.Partial})
}

func (s *Schema) create(r *RelDef) (*RelDef, error) {
	if _, exists := s.rels[key(r.Name)]; exists {
		return nil, fmt.Errorf("catalog: relation %q already exists", r.Name)
	}
	s.rels[key(r.Name)] = r
	return r, nil
}

// Drop removes a relation of the given kind; a relation of another kind
// under the name is refused, as is a stream with dependent windows or a
// relation a deployed dataflow uses.
func (s *Schema) Drop(name string, kind RelationKind, ifExists bool) error {
	r := s.rels[key(name)]
	switch {
	case r == nil && ifExists:
		return nil
	case r == nil:
		return fmt.Errorf("catalog: relation %q does not exist", name)
	case r.Kind != kind:
		return fmt.Errorf("catalog: %q is a %s, not a %s", r.Name, r.Kind, kind)
	}
	for _, n := range s.Names() {
		if w := s.Relation(n); w.Kind == KindWindow && strings.EqualFold(w.Window.Source, r.Name) {
			return fmt.Errorf("catalog: stream %q has dependent window %q", r.Name, w.Name)
		}
	}
	for _, df := range s.Dataflows() {
		if df.uses(r.Name) {
			return fmt.Errorf("catalog: %s %q is used by dataflow %q; undeploy it first", r.Kind, r.Name, df.Name)
		}
	}
	delete(s.rels, key(name))
	return nil
}

// CreateIndex defines a secondary index over columns of a relation.
func (s *Schema) CreateIndex(name, table string, cols []string, unique bool) error {
	r := s.Relation(table)
	if r == nil {
		return fmt.Errorf("catalog: relation %q does not exist", table)
	}
	if owner, _ := s.index(name); owner != nil || (r.Schema.HasPrimaryKey() && name == r.Schema.Name()+"_pkey") {
		return fmt.Errorf("catalog: index %q already exists", name)
	}
	ix := IndexDef{Name: name, Unique: unique}
	for _, c := range cols {
		o := r.Schema.ColumnIndex(c)
		if o < 0 {
			return fmt.Errorf("catalog: index %q: unknown column %q", name, c)
		}
		ix.Cols = append(ix.Cols, o)
	}
	def := *r
	def.Indexes = append(slices.Clip(r.Indexes), ix)
	s.rels[key(r.Name)] = &def
	return nil
}

// DropIndex removes a secondary index definition by name.
func (s *Schema) DropIndex(name string, ifExists bool) error {
	r, i := s.index(name)
	switch {
	case r == nil && ifExists:
		return nil
	case r == nil:
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	def := *r
	def.Indexes = slices.Delete(slices.Clone(r.Indexes), i, i+1)
	s.rels[key(r.Name)] = &def
	return nil
}

// index finds a secondary index by name (case-insensitive): its relation
// and position, or nil.
func (s *Schema) index(name string) (*RelDef, int) {
	for _, r := range s.rels {
		for i, ix := range r.Indexes {
			if strings.EqualFold(ix.Name, name) {
				return r, i
			}
		}
	}
	return nil, -1
}

// WithDataflow returns a copy of s that lists df, in place of any graph of
// the same name.
func (s *Schema) WithDataflow(df *Dataflow) *Schema {
	c := s.Clone()
	c.dataflows[key(df.Name)] = df
	return c.indexPaused()
}

// WithoutDataflow returns a copy of s without the named graph.
func (s *Schema) WithoutDataflow(name string) *Schema {
	c := s.Clone()
	delete(c.dataflows, key(name))
	return c.indexPaused()
}

// WithPaused returns a copy of s in which the named graph is paused or
// running.
func (s *Schema) WithPaused(name string, paused bool) *Schema {
	df := *s.dataflows[key(name)]
	df.Paused = paused
	return s.WithDataflow(&df)
}

func (s *Schema) indexPaused() *Schema {
	s.paused = make(map[string]string)
	for _, df := range s.dataflows {
		for stream := range df.Consumers() {
			if df.Paused {
				s.paused[stream] = df.Name
			}
		}
	}
	return s
}

// PausedGraph returns the paused dataflow consuming a stream, or "" when
// its graph is running or the stream is unbound.
func (s *Schema) PausedGraph(stream string) string {
	if len(s.paused) == 0 {
		return ""
	}
	return s.paused[key(stream)]
}

// Dataflow resolves a deployed graph by name (case-insensitive), or nil.
func (s *Schema) Dataflow(name string) *Dataflow { return s.dataflows[key(name)] }

// Dataflows lists every deployed graph, sorted by name.
func (s *Schema) Dataflows() []*Dataflow {
	out := make([]*Dataflow, 0, len(s.dataflows))
	for _, d := range s.dataflows {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].Name) < strings.ToLower(out[j].Name)
	})
	return out
}
