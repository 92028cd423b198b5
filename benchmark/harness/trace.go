package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/benchmark/sut"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// files around the public call (spans inside the program are a later
// change). Spans of one request share Op; Parent indexes the span that
// caused this one (-1 for a request's root).
type Span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, label string, op, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Label: label, Op: op, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

func (t *tracer) newOp() int {
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return op
}

// durations returns the lengths in ns of the spans with this name whose
// label starts with prefix.
func (t *tracer) durations(name, prefix string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Label, prefix) {
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	return ds
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opLabels names the statements the workloads send, for span labels and
// for splitting core.Store.Query time by query shape.
var opLabels = map[string]string{
	sut.KVPoint:    "point",
	sut.KVRange:    "range",
	sut.KVAgg:      "agg",
	sut.PairInsert: "mp",
	sut.PairCount:  "agg",
	sut.PairClear:  "clear",
	voterTop3:      "range",
}

var kindLabels = map[wire.MsgKind]string{wire.MsgCall: "Call", wire.MsgIngest: "Ingest",
	wire.MsgQuery: "Query", wire.MsgExec: "Exec", wire.MsgFlush: "Flush"}

func requestLabel(req *wire.Request) string {
	kind := kindLabels[req.Kind]
	if l, ok := opLabels[req.Target]; ok {
		return kind + ":" + l
	}
	if req.Kind == wire.MsgQuery || req.Kind == wire.MsgExec {
		return kind + ":other"
	}
	return kind + ":" + req.Target
}

// inproc is a Conn that replays server.serve's sequence in this process —
// encode, decode, dispatch to the store, encode, decode — with a span
// around every public call when a tracer is set. It is how the harness
// times the layers of a request without instrumenting the program.
type inproc struct {
	st *core.Store
	tr *tracer // nil: the same sequence, untraced
}

// dispatch mirrors server.Server.dispatch for the messages ssbench sends.
func (c *inproc) dispatch(req *wire.Request) *wire.Response {
	result := func(res *pe.Result, err error) *wire.Response {
		if err != nil {
			return &wire.Response{Kind: wire.MsgError, Err: err.Error()}
		}
		return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
			Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}
	}
	switch req.Kind {
	case wire.MsgCall:
		return result(c.st.Call(req.Target, req.Params...))
	case wire.MsgIngest:
		if err := c.st.Ingest(req.Target, req.Rows...); err != nil {
			return result(nil, err)
		}
		return &wire.Response{Kind: wire.MsgResult, RowsAffected: int64(len(req.Rows))}
	case wire.MsgQuery:
		return result(c.st.Query(req.Target, req.Params...))
	case wire.MsgExec:
		return result(c.st.Exec(req.Target, req.Params...))
	case wire.MsgFlush:
		c.st.FlushBatches()
		c.st.Drain()
		return &wire.Response{Kind: wire.MsgResult}
	case wire.MsgStats:
		return result(c.st.StatsResult(), nil)
	case wire.MsgDataflows:
		return result(c.st.DataflowsResult(), nil)
	}
	return result(nil, fmt.Errorf("inproc: message kind %d is not part of ssbench", req.Kind))
}

func (c *inproc) roundTrip(req *wire.Request) (*wire.Response, error) {
	var resp *wire.Response
	var err error
	// Counter fetches are the harness's own requests, not the workload's:
	// they leave no spans.
	if c.tr == nil || req.Kind == wire.MsgStats || req.Kind == wire.MsgDataflows {
		var dreq *wire.Request
		if dreq, err = wire.DecodeRequest(wire.EncodeRequest(req)); err != nil {
			return nil, err
		}
		resp, err = wire.DecodeResponse(wire.EncodeResponse(c.dispatch(dreq)))
	} else {
		resp, err = c.tracedRoundTrip(req)
	}
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.MsgError {
		return resp, fmt.Errorf("server: %s", resp.Err)
	}
	return resp, nil
}

func (c *inproc) tracedRoundTrip(req *wire.Request) (*wire.Response, error) {
	t := c.tr
	label := requestLabel(req)
	op := t.newOp()
	root := t.begin("client.roundtrip", label, op, -1)
	defer t.end(root)

	s := t.begin("wire.EncodeRequest", label, op, root)
	payload := wire.EncodeRequest(req)
	t.end(s)

	s = t.begin("wire.DecodeRequest", label, op, root)
	dreq, err := wire.DecodeRequest(payload)
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("core.Store", label, op, root)
	resp := c.dispatch(dreq)
	t.end(s)

	s = t.begin("wire.EncodeResponse", label, op, root)
	out := wire.EncodeResponse(resp)
	t.end(s)

	s = t.begin("wire.DecodeResponse", label, op, root)
	dresp, err := wire.DecodeResponse(out)
	t.end(s)
	return dresp, err
}

func (c *inproc) Call(proc string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgCall, Target: proc, Params: params})
}

func (c *inproc) Ingest(stream string, rows ...types.Row) error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgIngest, Target: stream, Rows: rows})
	return err
}

func (c *inproc) Query(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgQuery, Target: sqlText, Params: params})
}

func (c *inproc) Exec(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgExec, Target: sqlText, Params: params})
}

func (c *inproc) Flush() error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgFlush})
	return err
}

func (c *inproc) Stats() (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgStats})
}

func (c *inproc) Dataflows() (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgDataflows})
}

func (c *inproc) Close() error { return nil }

// PerLayer lists the per-layer metrics with their units, in the order
// BENCHMARK.json carries them. Names are layer.metric; layers are this
// repo's packages. A metric whose layer does no work on a workload is
// reported as 0 there.
var PerLayer = []Metric{
	{"wire.encode_req_ns", "ns"}, {"wire.decode_req_ns", "ns"},
	{"wire.encode_resp_ns", "ns"}, {"wire.decode_resp_ns", "ns"},
	{"wire.decode_req_allocs", "count"}, {"wire.req_bytes_op", "B"}, {"wire.resp_bytes_op", "B"},
	{"server.ping_rtt_us", "us"}, {"server.shell_self_us", "us"}, {"server.cpu_us_op", "us"},
	{"client.lat_p50_ms", "ms"}, {"client.read_lat_p50_ms", "ms"}, {"client.lat_p99_ms", "ms"},
	{"sql.parse_ns", "ns"}, {"sql.parse_cached_ns", "ns"},
	{"core.ingest_us_row", "us"}, {"core.call_us", "us"},
	{"core.query_point_us", "us"}, {"core.query_range_us", "us"}, {"core.query_agg_us", "us"},
	{"core.exec_mp_us", "us"}, {"core.mp_durable_us", "us"}, {"core.router_self_us", "us"},
	{"core.mp_aborts_op", "count"}, {"core.mp_one_phase_op", "count"}, {"core.mp_prepare_batch_mean", "count"},
	{"core.checkpoint_s", "s"}, {"core.recover_s", "s"},
	{"pe.call_us", "us"}, {"pe.query_point_us", "us"},
	{"pe.ingest_us_row", "us"}, {"pe.ingest_drain_us_row", "us"}, {"pe.sched_self_us", "us"},
	{"pe.txns_op", "count"}, {"pe.triggered_txns_op", "count"}, {"pe.border_batches_op", "count"},
	{"pe.client_to_pe_op", "count"}, {"pe.pe_to_ee_op", "count"}, {"pe.workflow_lat_p50_ms", "ms"},
	{"ee.select_point_ns", "ns"}, {"ee.insert_ns", "ns"}, {"ee.update_ns", "ns"},
	{"ee.range_ns_row", "ns"}, {"ee.window_trigger_ns", "ns"},
	{"ee.internal_op", "count"}, {"ee.window_slides_op", "count"},
	{"storage.insert_ns", "ns"}, {"storage.get_ns", "ns"}, {"storage.update_ns", "ns"},
	{"storage.snapshot_get_ns", "ns"}, {"storage.snapshot_range_ns_row", "ns"},
	{"storage.snapshot_reads_op", "count"}, {"storage.worker_queries_op", "count"},
	{"storage.gc_runs_kop", "count"}, {"storage.gc_reclaimed_op", "count"}, {"storage.versions_retained", "count"},
	{"storage.cold_evictions_kop", "count"}, {"storage.cold_faults_kop", "count"}, {"storage.cold_resident_mb", "MB"},
	{"coldstore.read_us", "us"}, {"coldstore.write_us", "us"},
	{"wal.append_ns", "ns"}, {"wal.sync_us", "us"}, {"wal.group_wait_us", "us"},
	{"wal.records_op", "count"}, {"wal.bytes_op", "B"},
	{"types.encode_row_ns", "ns"}, {"types.decode_row_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// traceShare is the traced segment's size as a share of a timed segment.
const traceShare = 0.1

// Trace performs the traced run: a short timed run over the wire for the
// counts (MsgStats deltas per op), the tail latency, the ping round trip
// and the recovery time; then, in this process and on the same seed and op
// stream, one untraced and one traced segment through the dispatch replica
// and the ladder below it. It returns every per-layer metric and writes
// the spans to OutDir/trace-<workload>.json.
func Trace(o Options) (*Result, error) {
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	// Over the wire: one set-up, then segments for half of --seconds.
	wireOpts := o
	wireOpts.Seconds = o.Seconds / 2
	res, err := run(wireOpts, 1, true)
	if err != nil {
		return nil, err
	}
	m, wirePrimaryUS := wireMetrics(res)

	// In this process.
	spec := sut.Spec{Workload: o.Workload, Scale: o.Scale,
		Dir: filepath.Join(o.OutDir, fmt.Sprintf("trace-data-%s-%d", o.Workload, os.Getpid()))}
	if spec.Durable() {
		if err := os.RemoveAll(spec.Dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spec.Dir)
	}
	st, err := sut.Open(spec)
	if err != nil {
		return nil, err
	}
	if err := st.Start(); err != nil {
		return nil, err
	}
	defer st.Stop()
	w, err := newWorkload(spec, o.Seed)
	if err != nil {
		return nil, err
	}
	plain := &inproc{st: st}
	r := &sutRun{}
	for i := 0; i < w.conns(); i++ {
		r.conns = append(r.conns, plain)
	}
	if err := w.load(r.conns); err != nil {
		return nil, fmt.Errorf("in-process preload: %w", err)
	}
	traceOps := max(int(float64(o.scaled(segOps[o.Workload]))*traceShare), 1)
	if _, err := runSegment(w, r, -1, traceOps); err != nil { // warm-up
		return nil, err
	}
	untraced, err := runSegment(w, r, 0, traceOps)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced := &inproc{st: st, tr: tr}
	for i := range r.conns {
		r.conns[i] = traced
	}
	seg, err := runSegment(w, r, 1, traceOps)
	if err != nil {
		return nil, err
	}
	if untraced.failed+seg.failed > 0 {
		return nil, fmt.Errorf("in-process replay: %d requests failed", untraced.failed+seg.failed)
	}
	m["trace.overhead_ratio"] = (float64(seg.ops) / seg.wallS) / (float64(untraced.ops) / untraced.wallS)
	for i := range r.conns {
		r.conns[i] = plain
	}
	if err := w.check(plain); err != nil {
		return nil, fmt.Errorf("in-process reference check: %w", err)
	}
	if err := tr.write(filepath.Join(o.OutDir, "trace-"+o.Workload+".json")); err != nil {
		return nil, err
	}

	// Wire codec and core.Store times, from the spans.
	spanMedian := func(name, prefix string) float64 { return Median(tr.durations(name, prefix)) }
	m["wire.encode_req_ns"] = spanMedian("wire.EncodeRequest", "")
	m["wire.decode_req_ns"] = spanMedian("wire.DecodeRequest", "")
	m["wire.encode_resp_ns"] = spanMedian("wire.EncodeResponse", "")
	m["wire.decode_resp_ns"] = spanMedian("wire.DecodeResponse", "")
	m["core.ingest_us_row"] = spanMedian("core.Store", "Ingest:") / 1e3 / voterIngestRows
	m["core.call_us"] = spanMedian("core.Store", "Call:") / 1e3
	m["core.query_point_us"] = spanMedian("core.Store", "Query:point") / 1e3
	m["core.query_range_us"] = spanMedian("core.Store", "Query:range") / 1e3
	m["core.query_agg_us"] = spanMedian("core.Store", "Query:agg") / 1e3
	m["core.exec_mp_us"] = spanMedian("core.Store", "Exec:mp") / 1e3

	// Request and response sizes and decode allocations, over the
	// workload's own request stream.
	p := w.profile()
	reqs := w.sample()
	var reqBytes, respBytes float64
	payloads := make([][]byte, len(reqs))
	for i, req := range reqs {
		payloads[i] = wire.EncodeRequest(req)
		reqBytes += float64(len(payloads[i]))
		respBytes += float64(len(wire.EncodeResponse(plain.dispatch(req))))
	}
	m["wire.req_bytes_op"] = reqBytes / float64(len(reqs))
	m["wire.resp_bytes_op"] = respBytes / float64(len(reqs))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, pl := range payloads {
		_, _ = wire.DecodeRequest(pl) // a payload this process just encoded decodes
	}
	runtime.ReadMemStats(&ms)
	m["wire.decode_req_allocs"] = float64(ms.Mallocs-mallocs) / float64(len(payloads))

	if err := ladder(st, &o, spec, p, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// Differences between rungs.
	corePrimaryUS := spanMedian("core.Store", p.primary) / 1e3
	m["server.shell_self_us"] = wirePrimaryUS - corePrimaryUS
	switch o.Workload {
	case sut.VoterStream:
		m["core.router_self_us"] = m["core.ingest_us_row"] - m["pe.ingest_us_row"]
		// A no-op logged call is scheduler + log append + ack wait.
		m["pe.sched_self_us"] = m["pe.call_us"] - m["wal.group_wait_us"]
	case sut.KVMixed, sut.KVCold:
		m["core.router_self_us"] = m["core.query_point_us"] - m["pe.query_point_us"]
		m["pe.sched_self_us"] = m["pe.call_us"] - m["ee.update_ns"]/1e3 - m["wal.group_wait_us"]
	case sut.MPPair:
		// Two single-partition inserts are what the 2PC statement does
		// below the coordinator.
		m["core.router_self_us"] = m["core.exec_mp_us"] - 2*m["pe.call_us"]
		m["pe.sched_self_us"] = m["pe.call_us"] - m["ee.insert_ns"]/1e3
	}

	// Checkpoint the in-process store, and time a durable coordinated
	// transaction: the wire reaches only unlogged 2PC legs today.
	if spec.Durable() {
		t0 := time.Now()
		if err := st.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		m["core.checkpoint_s"] = since(t0)
	} else if m["core.mp_durable_us"], m["core.checkpoint_s"], err = durableMP(&o, spec); err != nil {
		return nil, err
	}

	res.Metrics = m
	return res, nil
}

// wireMetrics turns the wire run into per-layer metrics: counter deltas
// per op, gauges after the last segment, tail latency, ping and recovery
// times. Every per-layer name starts at 0, which is what a layer that does
// no work on this workload reports. It also returns the median wire round
// trip of the workload's primary request, in microseconds.
func wireMetrics(res *Result) (map[string]float64, float64) {
	m := map[string]float64{}
	for _, pl := range PerLayer {
		m[pl.Name] = 0
	}
	var ops float64
	total := map[string]float64{}
	var all, primary []float64
	for _, s := range res.Segments {
		ops += float64(s.ops)
		for k, v := range s.stats {
			total[k] += v
		}
		all = append(all, s.rec.all...)
		primary = append(primary, s.rec.primary...)
	}
	last := res.Segments[len(res.Segments)-1].gauges
	perOp := func(name, stat string, scale float64) { m[name] = total[stat] / ops * scale }
	perOp("pe.txns_op", "txn_committed", 1)
	perOp("pe.triggered_txns_op", "triggered_txns", 1)
	perOp("pe.border_batches_op", "batches_border", 1)
	perOp("pe.client_to_pe_op", "client_to_pe", 1)
	perOp("pe.pe_to_ee_op", "pe_to_ee", 1)
	perOp("ee.internal_op", "ee_internal", 1)
	perOp("ee.window_slides_op", "window_slides", 1)
	perOp("storage.snapshot_reads_op", "snapshot_reads", 1)
	perOp("storage.worker_queries_op", "worker_queries", 1)
	perOp("storage.gc_runs_kop", "gc_runs", 1e3)
	perOp("storage.gc_reclaimed_op", "gc_versions_reclaimed", 1)
	perOp("storage.cold_evictions_kop", "cold_evictions", 1e3)
	perOp("storage.cold_faults_kop", "cold_faults", 1e3)
	perOp("wal.records_op", "log_records", 1)
	perOp("wal.bytes_op", "log_bytes", 1)
	perOp("core.mp_aborts_op", "mp_aborts", 1)
	perOp("core.mp_one_phase_op", "mp_one_phase", 1)
	m["core.mp_prepare_batch_mean"] = last["mp_prepare_batch_mean"]
	m["storage.versions_retained"] = last["versions_retained"]
	m["storage.cold_resident_mb"] = last["cold_resident_bytes"] / (1 << 20)
	m["pe.workflow_lat_p50_ms"] = res.WorkflowP50MS
	m["core.recover_s"] = res.RecoverS
	m["server.ping_rtt_us"] = res.PingRTTUS
	m["client.lat_p99_ms"] = quantile(all, 0.99) / 1e6
	for _, d := range Diagnostics {
		m[d.PerLayer] = res.Metrics[d.Name]
	}
	return m, Median(primary) / 1e3
}

// durableMP times Store.MultiPartitionTxn, the logged form of mp-pair's
// write, and a checkpoint, on a durable twin of the mp-pair store.
func durableMP(o *Options, spec sut.Spec) (mpUS, checkpointS float64, err error) {
	dir := filepath.Join(o.OutDir, fmt.Sprintf("trace-data-mp-durable-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cfg := spec.Config()
	cfg.Dir = dir
	cfg.Sync = wal.SyncGroupCommit
	st := core.Open(cfg)
	if err := st.ExecScript(sut.PairsDDL); err != nil {
		return 0, 0, err
	}
	if err := st.Start(); err != nil {
		return 0, 0, err
	}
	defer st.Stop()
	w := newMP(spec, 0)
	ns, err := rung(max(o.scaled(ladderPer)/4, 2), func(int) error {
		a, b := w.pair(0)
		return st.MultiPartitionTxn(func(tx *core.MPTxn) error {
			for _, leg := range [][2]int64{{a, b}, {b, a}} {
				id, peer := types.NewInt(leg[0]), types.NewInt(leg[1])
				if _, err := tx.Exec(tx.PartitionFor(id), "INSERT INTO pairs VALUES (?, ?, 1)", id, peer); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return 0, 0, fmt.Errorf("durable MultiPartitionTxn: %w", err)
	}
	t0 := time.Now()
	if err := st.Checkpoint(); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return ns / 1e3, since(t0), nil
}
