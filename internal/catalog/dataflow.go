package catalog

import (
	"slices"
	"sort"
	"strings"
)

// A Dataflow is a named workflow graph registered as one deployment unit:
// procedure nodes, the stream edges connecting them (with batch sizes),
// and the EE triggers that ride along. It is both the declarative value an
// application hands to Store.Deploy and the Schema's entry after a
// successful deploy, so the graph is introspectable (SHOW DATAFLOWS,
// EXPLAIN DATAFLOW) and addressable by name for pause/resume — including
// after recovery, since deployment code re-deploys it before Start exactly
// like DDL and stored procedures. A deployed Dataflow is never modified: a
// lifecycle change publishes a copy.
type Dataflow struct {
	// Name addresses the graph in the Schema and the lifecycle API.
	Name string
	// Nodes are the stored procedures participating in the graph. A node
	// with an Input stream is wired as a PE trigger (border or interior
	// stream procedure); a node without one is an OLTP entry point that
	// participates by emitting into the graph's streams.
	Nodes []DataflowNode
	// Triggers are EE triggers deployed with the graph.
	Triggers []DataflowTrigger

	// SerialTables is the deploy-time report of the paper's forced-serial
	// constraint: tables writable by one node and touched by another, which
	// require the workflow's procedures to execute serially (every
	// partition runs a chain to its end before the next batch, so this is a
	// report, never a rejection). Computed by Deploy.
	SerialTables []string
	// Paused is the lifecycle state: while paused, border ingest for the
	// graph's streams queues (bounded) instead of dispatching batches, and
	// the graph's admitted executions wait behind the pause gate. A durable
	// store logs it, so a recovered store keeps the graph paused.
	Paused bool
}

// DataflowNode is one procedure node of a dataflow graph.
type DataflowNode struct {
	// Proc names a registered stored procedure.
	Proc string
	// Input is the stream whose tuples become this node's input batches
	// (the PE trigger wiring). Empty for OLTP-invoked nodes.
	Input string
	// Batch is the input batch size; required (>= 1) when Input is set.
	Batch int
	// Emits lists the streams the node's handler emits to. The
	// declarations give the graph its edges: they drive cycle detection
	// and the border/interior classification of consumed streams.
	Emits []string
}

// DataflowTrigger declares one EE trigger deployed with the graph: the
// bodies run inside the inserting transaction whenever tuples arrive on
// Relation (a stream) or Relation (a window) slides.
type DataflowTrigger struct {
	Name     string
	Relation string
	Bodies   []string
}

// Consumers maps each consumed stream (lowercased) to the node consuming
// it. Validation guarantees at most one consumer per stream.
func (d *Dataflow) Consumers() map[string]string {
	out := make(map[string]string)
	for _, n := range d.Nodes {
		if n.Input != "" {
			out[key(n.Input)] = n.Proc
		}
	}
	return out
}

// Producers maps each emitted stream (lowercased) to the nodes declared to
// emit into it, in node order.
func (d *Dataflow) Producers() map[string][]string {
	out := make(map[string][]string)
	for _, n := range d.Nodes {
		for _, em := range n.Emits {
			out[key(em)] = append(out[key(em)], n.Proc)
		}
	}
	return out
}

// BorderStreams lists the consumed streams no node of the graph emits into
// — the client-fed inputs (their consumers are border stream procedures).
// Sorted for deterministic output.
func (d *Dataflow) BorderStreams() []string {
	prod := d.Producers()
	var out []string
	for _, n := range d.Nodes {
		if n.Input != "" && len(prod[key(n.Input)]) == 0 {
			out = append(out, n.Input)
		}
	}
	sort.Strings(out)
	return out
}

// InteriorStreams lists the consumed streams some node of the graph emits
// into (their consumers are interior stream procedures). Sorted.
func (d *Dataflow) InteriorStreams() []string {
	prod := d.Producers()
	var out []string
	for _, n := range d.Nodes {
		if n.Input != "" && len(prod[key(n.Input)]) > 0 {
			out = append(out, n.Input)
		}
	}
	sort.Strings(out)
	return out
}

// NumEdges counts the graph's stream edges: one per consumed stream plus
// one per declared emission.
func (d *Dataflow) NumEdges() int {
	n := 0
	for _, node := range d.Nodes {
		if node.Input != "" {
			n++
		}
		n += len(node.Emits)
	}
	return n
}

// FindCycle returns a procedure cycle in the graph (first node repeated at
// the end), or nil when the graph is a DAG. The edges are derived from the
// declarations: node A emitting stream S consumed by node B is A -> B.
func (d *Dataflow) FindCycle() []string {
	adj := make(map[string][]string)
	for _, n := range d.Nodes {
		for _, em := range n.Emits {
			for _, m := range d.Nodes {
				if m.Input != "" && key(m.Input) == key(em) {
					adj[n.Proc] = append(adj[n.Proc], m.Proc)
				}
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var dfs func(p string) []string
	dfs = func(p string) []string {
		color[p] = gray
		stack = append(stack, p)
		for _, q := range adj[p] {
			switch color[q] {
			case gray:
				// Unwind the stack to the cycle entry.
				for i, s := range stack {
					if s == q {
						return append(append([]string(nil), stack[i:]...), q)
					}
				}
			case white:
				if cyc := dfs(q); cyc != nil {
					return cyc
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[p] = black
		return nil
	}
	for _, n := range d.Nodes {
		if color[n.Proc] == white {
			if cyc := dfs(n.Proc); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// uses reports whether the graph names a relation: as a node's input or
// emission, or as a trigger's relation.
func (d *Dataflow) uses(rel string) bool {
	_, consumed := d.Consumers()[key(rel)]
	_, emitted := d.Producers()[key(rel)]
	return consumed || emitted || slices.ContainsFunc(d.Triggers, func(t DataflowTrigger) bool { return strings.EqualFold(t.Relation, rel) })
}
