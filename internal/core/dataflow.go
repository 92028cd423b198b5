package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/pe"
	"repro/internal/sql"
	"repro/internal/types"
)

// This file is the dataflow-graph deployment layer: the declarative
// workflow API of the paper's §3 made first-class. An application declares
// a whole graph — procedure nodes, stream edges with batch sizes, EE
// triggers — as one Dataflow value and deploys it atomically with
// Store.Deploy: the graph is validated in full before any partition is
// touched (unknown streams/procedures, duplicate consumers, cycles,
// invalid batch sizes, trigger compilation), the forced-serial constraint
// over shared writable tables is computed as a deploy-time report, and
// only then is the wiring fanned out to every partition and the graph
// published in the store's Schema, where it stays introspectable (SHOW
// DATAFLOWS, EXPLAIN DATAFLOW <name>) and addressable by name for the
// pause/resume lifecycle.

// Dataflow is the declarative workflow graph deployed by Store.Deploy.
type Dataflow = catalog.Dataflow

// DataflowNode is one procedure node of a Dataflow.
type DataflowNode = catalog.DataflowNode

// DataflowTrigger is one EE trigger deployed with a Dataflow.
type DataflowTrigger = catalog.DataflowTrigger

// Deploy validates the whole graph against the Schema and the registered
// procedures, then wires it onto every partition atomically: a graph that
// fails validation leaves no partition partially wired. On a started
// store the wiring is applied under an all-partition barrier, so running
// transactions never observe a half-deployed graph.
func (s *Store) Deploy(df *Dataflow) error {
	if df == nil || df.Name == "" {
		return fmt.Errorf("core: deploy: dataflow needs a name")
	}
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	norm, err := s.validateDataflow(df)
	if err != nil {
		return fmt.Errorf("core: deploy %q: %w", df.Name, err)
	}
	if s.partList()[0].pe.Started() {
		return s.runExclusiveAll(func() error { return s.applyDataflow(norm) })
	}
	return s.applyDataflow(norm)
}

// validateDataflow checks the graph as a whole against the Schema and
// partition 0's procedures and wiring (every partition has the same) and
// returns a normalized copy — canonical relation/procedure names, computed
// SerialTables — ready to deploy. The caller holds deployMu.
func (s *Store) validateDataflow(df *Dataflow) (*Dataflow, error) {
	sch := s.schema.Load()
	p0 := s.partList()[0]
	if sch.Dataflow(df.Name) != nil {
		return nil, fmt.Errorf("dataflow %q already deployed", df.Name)
	}
	if len(df.Nodes) == 0 && len(df.Triggers) == 0 {
		return nil, fmt.Errorf("a dataflow needs at least one node or trigger")
	}
	norm := &Dataflow{Name: df.Name}
	consumers := map[string]string{} // stream key -> consuming proc
	procSeen := map[string]bool{}
	var procs []*pe.Procedure
	for _, n := range df.Nodes {
		p := p0.pe.Procedure(n.Proc)
		if p == nil {
			return nil, fmt.Errorf("unknown procedure %q", n.Proc)
		}
		if procSeen[strings.ToLower(p.Name)] {
			return nil, fmt.Errorf("procedure %q appears in more than one node", p.Name)
		}
		procSeen[strings.ToLower(p.Name)] = true
		procs = append(procs, p)
		nn := DataflowNode{Proc: p.Name, Batch: n.Batch}
		if n.Input == "" {
			if n.Batch != 0 {
				return nil, fmt.Errorf("node %q has no input stream but declares batch size %d", p.Name, n.Batch)
			}
		} else {
			if s.cfg.HStoreMode {
				return nil, fmt.Errorf("stream bindings are an S-Store feature; the store is in H-Store mode")
			}
			rel := sch.Relation(n.Input)
			if rel == nil {
				return nil, fmt.Errorf("node %q consumes unknown stream %q", p.Name, n.Input)
			}
			if rel.Kind != catalog.KindStream {
				return nil, fmt.Errorf("node %q input %q is a %s; dataflow edges connect streams", p.Name, n.Input, rel.Kind)
			}
			if n.Batch < 1 {
				return nil, fmt.Errorf("node %q: batch size %d for stream %q is invalid (must be >= 1)", p.Name, n.Batch, rel.Name)
			}
			k := strings.ToLower(rel.Name)
			if prev, dup := consumers[k]; dup {
				return nil, fmt.Errorf("stream %q already has a consumer in the graph (%s); a stream feeds at most one procedure", rel.Name, prev)
			}
			consumers[k] = p.Name
			if g, bound := p0.pe.BoundGraph(rel.Name); bound {
				return nil, fmt.Errorf("stream %q already has a consumer in dataflow %q", rel.Name, g)
			}
			nn.Input = rel.Name
		}
		for _, em := range n.Emits {
			rel := sch.Relation(em)
			if rel == nil {
				return nil, fmt.Errorf("node %q emits to unknown stream %q", p.Name, em)
			}
			if rel.Kind != catalog.KindStream {
				return nil, fmt.Errorf("node %q emits to %q, a %s; only streams carry dataflow edges", p.Name, em, rel.Kind)
			}
			nn.Emits = append(nn.Emits, rel.Name)
		}
		norm.Nodes = append(norm.Nodes, nn)
	}
	if cyc := norm.FindCycle(); cyc != nil {
		return nil, fmt.Errorf("dataflow has a cycle: %s", strings.Join(cyc, " -> "))
	}
	trigSeen := map[string]bool{}
	for _, t := range df.Triggers {
		if t.Name == "" {
			return nil, fmt.Errorf("EE trigger needs a name")
		}
		if len(t.Bodies) == 0 {
			return nil, fmt.Errorf("EE trigger %q needs at least one body statement", t.Name)
		}
		tk := strings.ToLower(t.Relation) + "\x00" + t.Name
		if trigSeen[tk] {
			return nil, fmt.Errorf("EE trigger %q on %q declared twice", t.Name, t.Relation)
		}
		trigSeen[tk] = true
		if err := p0.ee.CheckTrigger(t.Name, t.Relation, t.Bodies...); err != nil {
			return nil, err
		}
		rel := sch.Relation(t.Relation)
		norm.Triggers = append(norm.Triggers, DataflowTrigger{
			Name: t.Name, Relation: rel.Name, Bodies: append([]string(nil), t.Bodies...),
		})
	}
	// The paper's forced-serial constraint, surfaced at deploy time: tables
	// writable by one node and touched by another force the workflow's
	// procedures to execute serially. The partition's one schedule runs
	// each chain to its end before the next batch, so this is a report.
	norm.SerialTables = pe.SharedWritableTables(procs)
	return norm, nil
}

// applyDataflow wires a validated graph onto every partition and publishes
// the Schema that lists it. A failure on any partition (which validation
// should have made impossible) unwinds the partitions already wired, so
// the deploy is all-or-nothing.
func (s *Store) applyDataflow(df *Dataflow) error {
	for i, p := range s.partList() {
		if err := deployOnPartition(p, df); err != nil {
			for _, q := range s.partList()[:i+1] {
				undeployFromPartition(q, df)
			}
			return fmt.Errorf("core: deploy %q on partition %d: %w", df.Name, p.idx, err)
		}
	}
	return s.publish(s.schema.Load().WithDataflow(df))
}

func deployOnPartition(p *partition, df *Dataflow) error {
	for _, t := range df.Triggers {
		if err := p.ee.CreateTrigger(t.Name, t.Relation, t.Bodies...); err != nil {
			return err
		}
	}
	for _, n := range df.Nodes {
		if n.Input == "" {
			continue
		}
		if err := p.pe.BindStream(df.Name, n.Input, n.Proc, n.Batch); err != nil {
			return err
		}
	}
	return nil
}

func undeployFromPartition(p *partition, df *Dataflow) {
	for _, t := range df.Triggers {
		_ = p.ee.DropTrigger(t.Name, true)
	}
	for _, n := range df.Nodes {
		if n.Input != "" {
			p.pe.UnbindStream(n.Input)
		}
	}
}

// PauseDataflow halts a graph with drain semantics: the pause gate cuts
// the graph at every stream edge — border ingest queues (bounded; see
// pe.Engine.Ingest) and the workers defer the graph's queued batches and
// triggered stages — then PauseDataflow waits until every admitted
// execution of the graph has finished or been deferred on every
// partition. Other graphs keep running; the wait is scoped to
// this graph's in-flight work, not the whole partition. On a durable
// store the pause is forced into partition 0's log before it takes effect,
// so a crash cannot silently resume a paused graph: recovery restores the
// gate (see applier.finish / restorePausedGraphs).
func (s *Store) PauseDataflow(name string) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	df := s.schema.Load().Dataflow(name)
	if df == nil {
		return fmt.Errorf("core: unknown dataflow %q", name)
	}
	if df.Paused {
		return nil
	}
	// Durable-before-effective: if the force fails the graph keeps running,
	// which the caller learns from the error; the reverse order would leave
	// a paused graph that silently resumes after a crash — the bug this
	// record exists to fix.
	if err := s.logPauseState(pe.RecPauseGraph, df.Name); err != nil {
		return err
	}
	return s.pauseAndDrain(df)
}

// testHookAfterPauseLogged, when set, runs after a pause or resume record
// is durable and before the state it records is published.
var testHookAfterPauseLogged func()

// logPauseState forces one pause-lifecycle record (RecPauseGraph /
// RecResumeGraph, graph name in Proc) into partition 0's log. A no-op on
// non-durable stores and before recovery opens the log. The caller holds
// deployMu until the state is published, so the paused graphs a
// Checkpoint's cut holds are what the log says.
func (s *Store) logPauseState(kind pe.RecordKind, graph string) error {
	if err := s.partList()[0].force(&pe.LogRecord{Kind: kind, Proc: graph}); err != nil {
		return fmt.Errorf("core: pause-state log: %w", err)
	}
	if hook := testHookAfterPauseLogged; hook != nil {
		hook()
	}
	return nil
}

// restorePausedGraphs re-installs the pause gates the log applier collected
// from partition 0's log (a pause record with no later resume). Runs
// before Start. Records for graphs that are no longer deployed are stale
// (undeploy logs a resume, but a crash can beat it) and are ignored.
func (s *Store) restorePausedGraphs(paused map[string]bool) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	for name := range paused {
		if df := s.schema.Load().Dataflow(name); df != nil {
			if err := s.pauseAndDrain(df); err != nil {
				return err
			}
		}
	}
	return nil
}

// pauseAndDrain is PauseDataflow's body for a running graph: set the pause
// gates, publish the paused state, wait out the graph's admitted
// executions. The caller holds deployMu.
func (s *Store) pauseAndDrain(df *Dataflow) error {
	for _, p := range s.partList() {
		p.pe.PauseGraph(df.Name)
	}
	// Publish the paused state before waiting out the drain: the router's
	// spanning-ingest gate keys off it, and the per-partition gates are
	// already set, so ingest arriving during the drain must take the
	// store-wide queue-or-reject path too.
	if err := s.publish(s.schema.Load().WithPaused(df.Name, true)); err != nil {
		return err
	}
	for _, p := range s.partList() {
		p.pe.WaitGraphIdle(df.Name)
	}
	return nil
}

// UndeployDataflow removes a deployed graph: the graph is paused and its
// admitted executions drained, then the wiring (EE triggers, stream
// consumer edges) is removed from every partition and the graph is
// removed from the Schema. Border tuples that queued
// behind the pause gate during the drain are discarded with the graph.
// The undeploy is refused while another deployed graph consumes a stream
// this graph emits to — removing the producer would silently starve the
// downstream graph; undeploy the consumer first.
func (s *Store) UndeployDataflow(name string) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	df := s.schema.Load().Dataflow(name)
	if df == nil {
		return fmt.Errorf("core: unknown dataflow %q", name)
	}
	interior := map[string]bool{}
	for _, n := range df.Nodes {
		for _, em := range n.Emits {
			interior[strings.ToLower(em)] = true
		}
	}
	for _, other := range s.Dataflows() {
		if strings.EqualFold(other.Name, df.Name) {
			continue
		}
		for _, n := range other.Nodes {
			if n.Input != "" && interior[strings.ToLower(n.Input)] {
				return fmt.Errorf("core: undeploy %q: dataflow %q consumes its stream %q; undeploy the consumer first",
					df.Name, other.Name, n.Input)
			}
		}
	}
	started := s.partList()[0].pe.Started()
	if started && !df.Paused {
		if err := s.pauseAndDrain(df); err != nil {
			return err
		}
	}
	remove := func() error {
		for _, p := range s.partList() {
			undeployFromPartition(p, df)
			p.pe.DropGraph(df.Name)
		}
		return s.publish(s.schema.Load().WithoutDataflow(df.Name))
	}
	if started {
		if err := s.runExclusiveAll(remove); err != nil {
			return err
		}
	} else if err := remove(); err != nil {
		return err
	}
	// Clear any durable pause for the name: the graph is gone, and a later
	// redeploy under the same name must not recover into a stale pause.
	return s.logPauseState(pe.RecResumeGraph, df.Name)
}

// ResumeDataflow lifts a graph's pause gate on every partition and
// re-admits what waited behind it — the deferred executions in the order
// they were deferred, then the batches that queued at ingest — so no tuple
// ingested during the pause is lost and workflow order holds.
func (s *Store) ResumeDataflow(name string) error {
	s.deployMu.Lock()
	defer s.deployMu.Unlock()
	df := s.schema.Load().Dataflow(name)
	if df == nil {
		return fmt.Errorf("core: unknown dataflow %q", name)
	}
	// Durable-before-effective, mirroring PauseDataflow: a logged resume
	// that fails to apply leaves the graph paused and the caller informed;
	// the reverse order would resurrect the pause after a crash.
	if err := s.logPauseState(pe.RecResumeGraph, df.Name); err != nil {
		return err
	}
	for _, p := range s.partList() {
		if err := p.pe.ResumeGraph(df.Name); err != nil {
			return err
		}
	}
	return s.publish(s.schema.Load().WithPaused(df.Name, false))
}

// Dataflows lists the deployed graphs, sorted by name. The returned values
// belong to the published Schema; treat them as read-only.
func (s *Store) Dataflows() []*Dataflow { return s.schema.Load().Dataflows() }

// DataflowsResult renders SHOW DATAFLOWS: one row per deployed graph with
// its shape, lifecycle state, and per-graph counters.
func (s *Store) DataflowsResult() *pe.Result {
	res := &pe.Result{Columns: []string{
		"name", "state", "nodes", "edges", "triggers", "batches", "triggered", "p50_us", "p99_us",
	}}
	for _, df := range s.Dataflows() {
		state := "running"
		if df.Paused {
			state = "paused"
		}
		gs := s.met.Graph(df.Name)
		res.Rows = append(res.Rows, types.Row{
			types.NewString(df.Name),
			types.NewString(state),
			types.NewInt(int64(len(df.Nodes))),
			types.NewInt(int64(df.NumEdges())),
			types.NewInt(int64(len(df.Triggers))),
			types.NewInt(gs.Batches.Load()),
			types.NewInt(gs.Triggered.Load()),
			types.NewInt(time.Duration(gs.Latency.Quantile(0.50)).Microseconds()),
			types.NewInt(time.Duration(gs.Latency.Quantile(0.99)).Microseconds()),
		})
	}
	return res
}

// ExplainDataflow renders a deployed graph: nodes, edges, border/interior
// classification, EE triggers, the ordering constraints the engine
// enforces for it, and its live counters.
func (s *Store) ExplainDataflow(name string) (string, error) {
	df := s.schema.Load().Dataflow(name)
	if df == nil {
		return "", fmt.Errorf("core: unknown dataflow %q", name)
	}
	var b strings.Builder
	state := "running"
	if df.Paused {
		state = "paused"
	}
	fmt.Fprintf(&b, "DATAFLOW %s (%s)\n", df.Name, state)
	prod := df.Producers()
	if len(df.Nodes) > 0 {
		fmt.Fprintf(&b, "  nodes:\n")
		for _, n := range df.Nodes {
			switch {
			case n.Input == "":
				fmt.Fprintf(&b, "    %-20s (OLTP entry)", n.Proc)
			case len(prod[strings.ToLower(n.Input)]) == 0:
				fmt.Fprintf(&b, "    %-20s <- %s [batch %d] (border)", n.Proc, n.Input, n.Batch)
			default:
				fmt.Fprintf(&b, "    %-20s <- %s [batch %d] (interior, from %s)",
					n.Proc, n.Input, n.Batch, strings.Join(prod[strings.ToLower(n.Input)], ", "))
			}
			if len(n.Emits) > 0 {
				fmt.Fprintf(&b, "  emits -> %s", strings.Join(n.Emits, ", "))
			}
			b.WriteString("\n")
		}
	}
	if border := df.BorderStreams(); len(border) > 0 {
		fmt.Fprintf(&b, "  border streams  : %s\n", strings.Join(border, ", "))
	}
	if interior := df.InteriorStreams(); len(interior) > 0 {
		fmt.Fprintf(&b, "  interior streams: %s\n", strings.Join(interior, ", "))
	}
	if len(df.Triggers) > 0 {
		fmt.Fprintf(&b, "  EE triggers:\n")
		for _, t := range df.Triggers {
			fmt.Fprintf(&b, "    %s ON %s\n", t.Name, t.Relation)
			for _, body := range t.Bodies {
				// The compiled body's plan: whether it is driven from the
				// delta or scans its target is what the trigger costs.
				plan, err := s.Explain(body)
				if err != nil {
					plan = fmt.Sprintf("(no plan: %v)", err)
				}
				for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
					fmt.Fprintf(&b, "      %s\n", line)
				}
			}
		}
	}
	fmt.Fprintf(&b, "  ordering constraints:\n")
	fmt.Fprintf(&b, "    - natural order: border batches execute in per-partition arrival order\n")
	fmt.Fprintf(&b, "    - workflow order: triggered executions run before pending border work\n")
	if len(df.SerialTables) > 0 {
		fmt.Fprintf(&b, "    - serial execution forced: nodes share writable tables [%s]\n",
			strings.Join(df.SerialTables, ", "))
	}
	if df.Paused {
		// What the pause gate holds, where it holds it: tuples not yet cut
		// into batches at ingest, executions the worker deferred.
		for _, p := range s.partList() {
			tuples, deferred := p.pe.Held(df.Name)
			fmt.Fprintf(&b, "  held: partition %d: %d tuples queued at ingest, %d executions deferred\n",
				p.idx, tuples, deferred)
		}
	}
	gs := s.met.Graph(df.Name)
	fmt.Fprintf(&b, "  stats: batches=%d triggered=%d latency p50=%s p99=%s\n",
		gs.Batches.Load(), gs.Triggered.Load(),
		time.Duration(gs.Latency.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(gs.Latency.Quantile(0.99)).Round(time.Microsecond))
	return b.String(), nil
}

// dataflowFromAST converts a parsed DEPLOY DATAFLOW statement into the
// Deploy API's graph value. Validation happens in Deploy — the text form
// and the Go API go through the same checks.
func dataflowFromAST(dd *sql.DeployDataflow) *Dataflow {
	df := &Dataflow{Name: dd.Name}
	for _, n := range dd.Nodes {
		df.Nodes = append(df.Nodes, DataflowNode{
			Proc: n.Proc, Input: n.Input, Batch: n.Batch,
			Emits: append([]string(nil), n.Emits...),
		})
	}
	for _, t := range dd.Triggers {
		df.Triggers = append(df.Triggers, DataflowTrigger{
			Name: t.Name, Relation: t.Relation,
			Bodies: append([]string(nil), t.Bodies...),
		})
	}
	return df
}
