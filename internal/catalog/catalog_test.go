package catalog

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func tableSchema(t *testing.T, name string) *types.Schema {
	t.Helper()
	s, err := types.NewSchema(name, []types.Column{
		{Name: "id", Type: types.TypeInt, NotNull: true},
		{Name: "v", Type: types.TypeInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamSchema(t *testing.T, name string) *types.Schema {
	t.Helper()
	s, err := types.NewSchema(name, []types.Column{
		{Name: "v", Type: types.TypeInt},
		{Name: "ts", Type: types.TypeTimestamp},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// edit returns an empty Schema open for edits.
func edit() *Schema { return New().Schema().Clone() }

func TestCreateAndResolve(t *testing.T) {
	c := edit()
	if _, err := c.Create(KindTable, tableSchema(t, "t1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(KindStream, streamSchema(t, "s1")); err != nil {
		t.Fatal(err)
	}
	// Case-insensitive resolution.
	if c.Relation("T1") == nil || c.Relation("S1") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
	if c.Relation("t1").Kind != KindTable || c.Relation("s1").Kind != KindStream {
		t.Fatal("kinds wrong")
	}
	if c.Relation("absent") != nil {
		t.Fatal("absent relation resolved")
	}
	// Duplicate names rejected across kinds.
	if _, err := c.Create(KindStream, streamSchema(t, "T1")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// A partition's storage follows the Schema it syncs to.
	cat := New()
	if changed, err := cat.Sync(c); err != nil || !changed {
		t.Fatalf("Sync: changed %v, %v", changed, err)
	}
	if cat.Schema() != c || cat.Relation("T1") == nil || cat.Relation("t1").Table == nil {
		t.Fatal("synced catalog lacks t1's storage")
	}
}

func TestStreamRules(t *testing.T) {
	c := edit()
	if _, err := c.Create(KindStream, tableSchema(t, "bad")); err == nil {
		t.Fatal("stream with primary key accepted")
	}
}

func TestWindowCreation(t *testing.T) {
	c := edit()
	if _, err := c.Create(KindStream, streamSchema(t, "s")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(KindTable, tableSchema(t, "t")); err != nil {
		t.Fatal(err)
	}
	// Over a table: rejected.
	if _, err := c.CreateWindow("w", WindowSpec{Rows: true, Size: 5, Slide: 1, Source: "t"}); err == nil {
		t.Fatal("window over table accepted")
	}
	// Bad sizes rejected.
	if _, err := c.CreateWindow("w", WindowSpec{Rows: true, Size: 0, Slide: 1, Source: "s"}); err == nil {
		t.Fatal("zero size accepted")
	}
	// Time column must be timestamp/int and in range.
	if _, err := c.CreateWindow("w", WindowSpec{Rows: false, Size: 10, Slide: 1, Source: "s", TimeCol: 9}); err == nil {
		t.Fatal("out-of-range time column accepted")
	}
	w, err := c.CreateWindow("w", WindowSpec{Rows: false, Size: 10, Slide: 2, Source: "s", TimeCol: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != KindWindow || w.Window.Source != "s" {
		t.Fatalf("window relation: %+v", w)
	}
	// Window schema mirrors the stream's columns.
	if w.Schema.NumColumns() != 2 || w.Schema.ColumnIndex("ts") != 1 {
		t.Fatal("window schema mismatch")
	}
	// On a partition the stream lists its windows, sorted, and forgets a
	// dropped one.
	if _, err := c.CreateWindow("a_first", WindowSpec{Rows: true, Size: 3, Slide: 1, Source: "S"}); err != nil {
		t.Fatal(err)
	}
	cat := New()
	if _, err := cat.Sync(c); err != nil {
		t.Fatal(err)
	}
	if cat.Relation("w").Win == nil {
		t.Fatal("window without slide state")
	}
	wins := cat.Relation("S").Windows
	if len(wins) != 2 || wins[0].Name != "a_first" || wins[1].Name != "w" {
		t.Fatalf("windows over s: %v", wins)
	}
	next := c.Clone()
	if err := next.Drop("a_first", KindWindow, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Sync(next); err != nil {
		t.Fatal(err)
	}
	if wins = cat.Relation("s").Windows; len(wins) != 1 || wins[0].Name != "w" {
		t.Fatalf("windows over s after drop: %v", wins)
	}
}

func TestDropRules(t *testing.T) {
	c := edit()
	c.Create(KindStream, streamSchema(t, "s"))
	c.CreateWindow("w", WindowSpec{Rows: true, Size: 3, Slide: 1, Source: "s"})
	// Stream with dependent window cannot be dropped.
	if err := c.Drop("s", KindStream, false); err == nil {
		t.Fatal("dropped stream with dependent window")
	}
	// A drop names the relation's kind.
	if err := c.Drop("w", KindTable, false); err == nil || !strings.Contains(err.Error(), "is a WINDOW") {
		t.Fatalf("DROP TABLE of a window: %v", err)
	}
	if err := c.Drop("w", KindWindow, false); err != nil {
		t.Fatal(err)
	}
	// A relation a deployed dataflow uses stays.
	g := c.WithDataflow(&Dataflow{Name: "g", Nodes: []DataflowNode{{Proc: "p", Input: "S", Batch: 1}}})
	if err := g.Drop("s", KindStream, false); err == nil || !strings.Contains(err.Error(), `dataflow "g"`) {
		t.Fatalf("dropped a stream dataflow g consumes: %v", err)
	}
	if err := c.Drop("s", KindStream, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("s", KindStream, false); err == nil {
		t.Fatal("double drop accepted")
	}
	if err := c.Drop("s", KindStream, true); err != nil {
		t.Fatalf("DROP IF EXISTS: %v", err)
	}
}

func TestEnumerationsSortedAndKindString(t *testing.T) {
	c := edit()
	c.Create(KindTable, tableSchema(t, "zz"))
	c.Create(KindTable, tableSchema(t, "aa"))
	c.Create(KindStream, streamSchema(t, "mm"))
	names := c.Names()
	if len(names) != 3 || names[0] != "aa" || names[2] != "zz" {
		t.Fatalf("Names: %v", names)
	}
	if KindTable.String() != "TABLE" || KindStream.String() != "STREAM" || KindWindow.String() != "WINDOW" {
		t.Fatal("kind strings")
	}
}

func TestPartitionColumnMetadata(t *testing.T) {
	c := edit()
	tbl, err := c.Create(KindTable, tableSchema(t, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Partitioned() {
		t.Fatal("fresh relation should be unpartitioned")
	}
	if err := tbl.SetPartitionColumn("V", false); err != nil { // case-insensitive
		t.Fatal(err)
	}
	if !tbl.Partitioned() || tbl.PartCol != 1 {
		t.Fatalf("PartCol = %d", tbl.PartCol)
	}
	if err := tbl.SetPartitionColumn("nope", false); err == nil {
		t.Fatal("unknown partition column accepted")
	}

	// Windows inherit the source stream's partitioning and cannot declare
	// their own.
	s, err := c.Create(KindStream, streamSchema(t, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPartitionColumn("v", false); err != nil {
		t.Fatal(err)
	}
	w, err := c.CreateWindow("w", WindowSpec{Rows: true, Size: 4, Slide: 2, Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if w.PartCol != s.PartCol {
		t.Fatalf("window PartCol = %d, want %d", w.PartCol, s.PartCol)
	}
	if err := w.SetPartitionColumn("v", false); err == nil {
		t.Fatal("window PARTITION BY accepted")
	}
}

func TestDataflowGraphHelpers(t *testing.T) {
	df := &Dataflow{
		Name: "g",
		Nodes: []DataflowNode{
			{Proc: "oltp", Emits: []string{"a"}},
			{Proc: "p1", Input: "in", Batch: 4, Emits: []string{"a"}},
			{Proc: "p2", Input: "a", Batch: 1, Emits: []string{"b"}},
			{Proc: "p3", Input: "b", Batch: 1},
		},
	}
	if got := df.BorderStreams(); len(got) != 1 || got[0] != "in" {
		t.Fatalf("BorderStreams = %v, want [in]", got)
	}
	if got := df.InteriorStreams(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("InteriorStreams = %v, want [a b]", got)
	}
	if got := df.NumEdges(); got != 6 { // 3 consumed inputs + 3 emits
		t.Fatalf("NumEdges = %d, want 6", got)
	}
	if cyc := df.FindCycle(); cyc != nil {
		t.Fatalf("acyclic graph reported cycle %v", cyc)
	}
	// Close the loop: p3 feeds back into p1's input.
	df.Nodes[3].Emits = []string{"in"}
	cyc := df.FindCycle()
	if cyc == nil {
		t.Fatal("cycle not detected")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("cycle %v does not close", cyc)
	}
}

func TestDataflowRegistry(t *testing.T) {
	c := edit().WithDataflow(&Dataflow{Name: "b"}).
		WithDataflow(&Dataflow{Name: "a", Nodes: []DataflowNode{{Proc: "p", Input: "In", Batch: 1}}})
	if c.Dataflow("A") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
	dfs := c.Dataflows()
	if len(dfs) != 2 || dfs[0].Name != "a" || dfs[1].Name != "b" {
		t.Fatalf("Dataflows = %v", dfs)
	}
	// Pausing publishes a copy and indexes the graph's input streams.
	paused := c.WithPaused("a", true)
	if g := paused.PausedGraph("in"); g != "a" || c.Dataflow("a").Paused || c.PausedGraph("in") != "" {
		t.Fatalf("paused gate %q; the Schema it was derived from changed", g)
	}
	if g := paused.WithPaused("a", false).PausedGraph("in"); g != "" {
		t.Fatalf("resumed graph still gates %q", g)
	}
	if paused.WithoutDataflow("a").Dataflow("a") != nil || paused.Dataflow("a") == nil {
		t.Fatal("WithoutDataflow")
	}
}
