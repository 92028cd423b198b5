// Package harness is ssbench's load generator and measurement code: it
// spawns the SUT, drives a workload over the wire in fixed-op-count
// segments, reads the SUT's CPU and memory from /proc, checks the result
// against a reference (also across a SIGKILL), and reports each metric's
// median over segments (on voter-stream its best decile: overSegments). It
// is one process with never more than two connections open (the reference
// host has two CPUs).
package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/benchmark/sut"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wire"
)

// Conn is the request surface a workload drives; *client.TCP over the wire
// and the traced in-process replica both provide it.
type Conn interface {
	Call(proc string, params ...types.Value) (*wire.Response, error)
	Ingest(stream string, rows ...types.Row) error
	Query(sqlText string, params ...types.Value) (*wire.Response, error)
	Exec(sqlText string, params ...types.Value) (*wire.Response, error)
	Flush() error
	Stats() (*wire.Response, error)
	Dataflows() (*wire.Response, error)
	Close() error
}

// workload is one traffic mix with its reference.
type workload interface {
	// conns is how many connections the workload drives.
	conns() int
	// load fills the store; part of set-up.
	load(cs []Conn) error
	// prepare does a segment's untimed work (generate ops, top up or
	// clear tables) and returns the timed part, which records into one
	// recorder per connection and returns how many requests failed.
	prepare(cs []Conn, seg, ops int) (func(recs []*recorder) (failed int, err error), error)
	// check compares the SUT's state with the reference.
	check(c Conn) error
	// profile and sample serve the traced run: what the ladder needs to
	// know about the workload, and a short run of its requests in order.
	profile() profile
	sample() []*wire.Request
}

// Committed op counts at scale 1: segOps per timed segment and warmOps for
// the warm-up segment that ends set-up. They are constants, never
// durations: both sides of a comparison do identical work. --seconds
// selects how many segments run, at segPerSecond each. On voter-stream that
// is the rate the reference host sustains: --seconds 24 is 36 segments and
// measures for about 24 s there. The other three get 6 segments, 12 to 17 s:
// what they report is set by the group-commit tick and by wake-ups, not by
// how fast the host's cache is at the moment, and six values settle it.
var (
	segPerSecond = map[string]float64{
		sut.VoterStream: 1.5,
		sut.KVMixed:     0.25,
		sut.KVCold:      0.25,
		sut.MPPair:      0.25,
	}
	segOps = map[string]int{
		sut.VoterStream: 32 * voterGroup, // votes
		sut.KVMixed:     7_000,
		sut.KVCold:      7_000,
		sut.MPPair:      12_000,
	}
	warmOps = map[string]int{
		sut.VoterStream: 64 * voterGroup,
		sut.KVMixed:     2_000,
		sut.KVCold:      2_000,
		sut.MPPair:      12_000,
	}
	// replaySegs is how many segments of its command log the SUT replays in
	// the crash check: the harness asks for a checkpoint, untimed, before
	// that many segments from the end. Only voter-stream needs one: replay
	// pushes every vote through the workflow again and would take as long as
	// the run, where the kv workloads replay their whole log in under a
	// second.
	replaySegs = map[string]int{sut.VoterStream: 2}
)

func newWorkload(spec sut.Spec, seed int64) (workload, error) {
	switch spec.Workload {
	case sut.VoterStream:
		return newVoter(spec, seed), nil
	case sut.KVMixed, sut.KVCold:
		return newKV(spec, seed), nil
	case sut.MPPair:
		return newMP(spec, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long to measure, in the reference host's seconds: it
	// selects the number of fixed-size segments (see segPerSecond).
	Seconds float64
	// Scale divides table sizes and op counts. Only the smoke test sets it
	// (to 50), and only with the store in this process: a spawned SUT is
	// always full size.
	Scale int
	// SUTBin is the ssbench-sut binary ("" serves the store from this
	// process, without CPU or memory readings: the smoke test); OutDir
	// holds data directories (removed on success) and trace files.
	SUTBin string
	OutDir string
	Log    func(format string, args ...any)
}

const (
	// timedSetups is how many times a timed run sets up: setup_s is the
	// fastest of them and the last one's SUT is the one measured. The
	// traced run reports no set-up time and sets up once.
	timedSetups = 3
	// diagPings is how many Ping round trips the traced run times.
	diagPings = 2000
)

// segment is one timed segment's measurements.
type segment struct {
	ops, failed int
	wallS       float64
	cpuNS       int64
	stealS      float64 // CPU seconds the hypervisor withheld from the guest
	rec         *recorder
	stats       map[string]float64 // MsgStats delta over the segment
	gauges      map[string]float64 // MsgStats values after the segment
}

// cpuUSOp is the SUT's on-CPU microseconds per op over the segment.
func (s segment) cpuUSOp() float64 { return float64(s.cpuNS) / 1e3 / float64(s.ops) }

// Result is one run's outcome.
type Result struct {
	Attempted, Failed int
	SetupS            []float64
	Segments          []segment
	RSSPeakMB         float64
	RecoverS          float64
	// PingRTTUS is the median Ping round trip on the idle SUT, and
	// WorkflowP50MS the engine's own median latency (the dataflow's, where
	// the workload has one); both only in the traced run.
	PingRTTUS, WorkflowP50MS float64
	Metrics                  map[string]float64
	// StolenShare is the share of the guest's CPU time the hypervisor
	// withheld during the timed segments (see stealS).
	StolenShare float64
	// Spread is each per-segment metric's inter-quartile range over the
	// run's segments as a share of its median (runs of four segments or
	// more).
	Spread map[string]float64
}

func (o *Options) scaled(n int) int {
	if o.Scale > 1 {
		n /= o.Scale
	}
	return max(n, 1)
}

// sutRun is one live SUT with its connections. child is nil when the
// store lives in this process: behind an in-process server (stop is set;
// the smoke test) or called directly (the traced run).
type sutRun struct {
	child *child
	store *core.Store // the in-process store behind stop's server
	stop  func()
	conns []Conn
}

// checkpoint has the SUT write a snapshot and truncate its command log.
func (r *sutRun) checkpoint() error {
	if r.child != nil {
		return r.child.checkpoint()
	}
	return r.store.Checkpoint()
}

func (r *sutRun) cpuNS() (int64, error) {
	if r.child == nil {
		return 0, nil
	}
	return r.child.cpuNS()
}

func (r *sutRun) close() {
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil
	if r.child != nil {
		r.child.kill()
		r.child = nil
	}
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
}

// start spawns the SUT (or, without a binary, serves the same store from
// this process) and connects; the first Ping proves it serves.
func start(o *Options, spec sut.Spec, nconn int) (*sutRun, error) {
	r := &sutRun{}
	var addr string
	if o.SUTBin != "" {
		if spec.Scale > 1 {
			return nil, fmt.Errorf("scale %d needs the store in this process: a spawned SUT is always full size", spec.Scale)
		}
		ch, err := spawn(o.SUTBin, spec)
		if err != nil {
			return nil, err
		}
		r.child, addr = ch, ch.addr
	} else {
		st, err := sut.Open(spec)
		if err != nil {
			return nil, err
		}
		if err := st.Start(); err != nil {
			return nil, err
		}
		srv := server.New(st)
		srv.Logf = func(string, ...any) {}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			_ = st.Stop() // the listen error is the one to report
			return nil, err
		}
		r.store = st
		r.stop = func() {
			srv.Close()
			_ = st.Stop() // a stand-in for SIGKILL: nothing to report to
		}
		addr = srv.Addr()
	}
	for i := 0; i < nconn; i++ {
		c, err := client.DialTCP(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		if i == 0 {
			if err := c.Ping(); err != nil {
				r.close()
				return nil, err
			}
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// statsMap fetches the SUT's counters as numbers (durations and other
// non-numeric rows are skipped).
func statsMap(c Conn) (map[string]float64, error) {
	resp, err := c.Stats()
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(resp.Rows))
	for _, r := range resp.Rows {
		if v, err := strconv.ParseFloat(r[1].Str(), 64); err == nil {
			m[r[0].Str()] = v
		}
	}
	return m, nil
}

// runSegment runs one segment: untimed prepare, then the timed part
// bracketed by wall clock, SUT CPU time and counter snapshots.
func runSegment(w workload, r *sutRun, seg, ops int) (segment, error) {
	run, err := w.prepare(r.conns, seg, ops)
	if err != nil {
		return segment{}, err
	}
	recs := make([]*recorder, w.conns())
	for i := range recs {
		recs[i] = newRecorder(ops)
	}
	before, err := statsMap(r.conns[0])
	if err != nil {
		return segment{}, err
	}
	cpu0, err := r.cpuNS()
	if err != nil {
		return segment{}, err
	}
	steal0 := stealS()
	t0 := time.Now()
	failed, err := run(recs)
	wall := since(t0)
	stolen := stealS() - steal0
	if err != nil {
		return segment{}, err
	}
	cpu1, err := r.cpuNS()
	if err != nil {
		return segment{}, err
	}
	after, err := statsMap(r.conns[0])
	if err != nil {
		return segment{}, err
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	return segment{ops: ops, failed: failed, wallS: wall, cpuNS: cpu1 - cpu0,
		rec: mergeRecorders(recs), stats: delta, gauges: after, stealS: stolen}, nil
}

// setup is spawn → first Ping → (schema, inside the SUT) → preload → one
// warm-up segment, on a fresh data directory.
func setup(o *Options, spec sut.Spec, w workload) (*sutRun, float64, error) {
	if spec.Durable() {
		if err := os.RemoveAll(spec.Dir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	r, err := start(o, spec, w.conns())
	if err != nil {
		return nil, 0, err
	}
	if err := w.load(r.conns); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	warm, err := runSegment(w, r, -1, o.scaled(warmOps[spec.Workload]))
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	if warm.failed > 0 {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.ops)
	}
	return r, since(t0), nil
}

// Run performs one timed run of one workload.
func Run(o Options) (*Result, error) { return run(o, timedSetups, false) }

// run sets up `setups` times, measures the segments on the last set-up's
// SUT, checks the result against the reference, and on a durable workload
// kills the SUT, restarts it on the same directory and checks again. diag
// adds what only the traced run reports: Ping round trips on the idle SUT
// before the first segment and the engine's own latency after the last.
func run(o Options, setups int, diag bool) (*Result, error) {
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	spec := sut.Spec{Workload: o.Workload, Scale: o.Scale,
		Dir: filepath.Join(o.OutDir, fmt.Sprintf("data-%s-%d", o.Workload, os.Getpid()))}
	res := &Result{}

	var r *sutRun
	var w workload
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if w, err = newWorkload(spec, o.Seed); err != nil {
			return nil, err
		}
		var s float64
		if r, s, err = setup(&o, spec, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, s)
		o.Log("set-up %d: %.3f s", i+1, s)
	}

	if diag {
		rtts := make([]float64, diagPings)
		for i := range rtts {
			t0 := time.Now()
			if err := r.conns[0].(*client.TCP).Ping(); err != nil {
				return nil, err
			}
			rtts[i] = float64(time.Since(t0))
		}
		res.PingRTTUS = Median(rtts) / 1e3
	}
	ops := o.scaled(segOps[o.Workload])
	segments := max(int(math.Round(o.Seconds*segPerSecond[o.Workload])), 1)
	for seg := 0; seg < segments; seg++ {
		if n := replaySegs[o.Workload]; n > 0 && seg == segments-n {
			if err := r.checkpoint(); err != nil {
				return nil, err
			}
		}
		s, err := runSegment(w, r, seg, ops)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", seg, err)
		}
		res.Segments = append(res.Segments, s)
		res.Attempted += len(s.rec.all)
		res.Failed += s.failed
		o.Log("segment %d: %d ops in %.3f s (%.0f ops/s), write p50 %.3f ms, sut cpu %.2f us/op, %d failed, %.0f ms stolen",
			seg, s.ops, s.wallS, float64(s.ops)/s.wallS, Median(s.rec.write)/1e6, s.cpuUSOp(), s.failed, 1e3*s.stealS)
	}
	var err error
	if r.child != nil {
		if res.RSSPeakMB, err = r.child.rssPeakMB(); err != nil {
			return nil, err
		}
	}
	if err := finalCheck(w, r, spec); err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	if diag {
		if res.WorkflowP50MS, err = workflowP50MS(r.conns[0]); err != nil {
			return nil, err
		}
	}
	if spec.Durable() {
		// Everything the run was acked must survive SIGKILL: the preload,
		// every segment's writes, on voter-stream every reset and every
		// elimination in order. Recovery replays the whole command log, so
		// the restart-to-ready time is that of a fixed amount of work.
		r.close()
		t0 := time.Now()
		if r, err = start(&o, spec, w.conns()); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		res.RecoverS = since(t0)
		o.Log("recovered in %.3f s", res.RecoverS)
		if err := w.check(r.conns[0]); err != nil {
			return nil, fmt.Errorf("reference check after SIGKILL and restart: %w", err)
		}
	}
	r.close()
	r = nil
	if spec.Durable() {
		if err := os.RemoveAll(spec.Dir); err != nil {
			return nil, err
		}
	}
	res.summarize(o.Workload)
	return res, nil
}

// workflowP50MS is the engine's own median latency: the first deployed
// dataflow's end-to-end p50 where there is one (border batch in to last
// triggered transaction out), else the transaction latency histogram's.
func workflowP50MS(c Conn) (float64, error) {
	df, err := c.Dataflows()
	if err != nil {
		return 0, err
	}
	if len(df.Rows) > 0 {
		return float64(df.Rows[0][7].Int()) / 1e3, nil // p50_us
	}
	resp, err := c.Stats()
	if err != nil {
		return 0, err
	}
	for _, r := range resp.Rows {
		if r[0].Str() == "latency_p50" {
			d, err := time.ParseDuration(r[1].Str())
			return float64(d) / 1e6, err
		}
	}
	return 0, fmt.Errorf("no latency_p50 in stats")
}

// finalCheck is the workload's reference check plus the properties only
// the live SUT's counters can show.
func finalCheck(w workload, r *sutRun, spec sut.Spec) error {
	if err := w.check(r.conns[0]); err != nil {
		return err
	}
	st, err := statsMap(r.conns[0])
	if err != nil {
		return err
	}
	if st["worker_queries"] != 0 {
		return fmt.Errorf("%v reads went through the partition worker; snapshot reads must bypass it", st["worker_queries"])
	}
	if budget := float64(spec.MemoryBudget()); budget > 0 {
		// The fault counter is published by the evictor's sweep, every
		// 1024 commits: a scaled-down run ends before the first one.
		if st["cold_evictions"] == 0 || st["cold_faults"] == 0 && spec.Scale <= 1 {
			return fmt.Errorf("kv-cold saw %v evictions and %v faults; the cold store did no work", st["cold_evictions"], st["cold_faults"])
		}
		// The evictor trims to budget at its own rhythm and lets the
		// resident set run up to an eighth over between sweeps.
		if st["cold_resident_bytes"] > budget*1.125 {
			return fmt.Errorf("kv-cold resident bytes %v exceed the budget %v by more than the evictor's slack", st["cold_resident_bytes"], budget)
		}
	} else if st["cold_faults"] != 0 {
		return fmt.Errorf("%s reported %v cold faults without a memory budget", spec.Workload, st["cold_faults"])
	}
	return nil
}

// EndToEnd lists the end-to-end metrics with their units, in the order
// BENCHMARK.json carries them.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"tput_ops_s", "1/s"},
	{"write_lat_p50_ms", "ms"},
	{"sut_rss_peak_mb", "MB"},
}

// Diagnostics are the timed run's other numbers: measured the same way,
// but they do not repeat within a bound on a shared host (a sub-millisecond
// round trip is mostly the cost of waking a halted vCPU), so the traced
// run reports them per layer, ungated, under the names on the right.
var Diagnostics = []struct {
	Metric
	PerLayer string
}{
	{Metric{"lat_p50_ms", "ms"}, "client.lat_p50_ms"},
	{Metric{"read_lat_p50_ms", "ms"}, "client.read_lat_p50_ms"},
	{Metric{"sut_cpu_us_op", "us"}, "server.cpu_us_op"},
}

// Metric names one reported number.
type Metric struct{ Name, Unit string }

// overSegments reduces a metric's per-segment values to the run's value:
// their median, except on voter-stream, where it is their best decile (the
// 90th percentile of a metric that is better higher, else the 10th).
// voter-stream is one thread bound by the CPU and its caches, and on a
// shared host whatever else runs there can only slow that down, for seconds
// at a time and by up to half: the best decile of three dozen segments is
// what the program does when left alone, and repeats twice as closely as
// their median. The other workloads wait on the group-commit tick or on
// wake-ups, run six segments, and are now and then faster than usual too.
func overSegments(workload string, xs []float64, higherIsBetter bool) float64 {
	switch {
	case workload != sut.VoterStream:
		return Median(xs)
	case higherIsBetter:
		return quantile(xs, 0.9)
	default:
		return quantile(xs, 0.1)
	}
}

// summarize reduces the segments to the end-to-end metrics and the
// diagnostics (see overSegments).
func (r *Result) summarize(workload string) {
	per := map[string][]float64{}
	var wall, stolen float64
	for _, s := range r.Segments {
		wall, stolen = wall+s.wallS, stolen+s.stealS
		per["tput_ops_s"] = append(per["tput_ops_s"], float64(s.ops)/s.wallS)
		per["lat_p50_ms"] = append(per["lat_p50_ms"], Median(s.rec.all)/1e6)
		per["read_lat_p50_ms"] = append(per["read_lat_p50_ms"], Median(s.rec.read)/1e6)
		per["write_lat_p50_ms"] = append(per["write_lat_p50_ms"], Median(s.rec.write)/1e6)
		per["sut_cpu_us_op"] = append(per["sut_cpu_us_op"], s.cpuUSOp())
	}
	r.Metrics = map[string]float64{
		// Set-up is CPU-bound on every workload (the warm-up votes, the
		// preload), so what else runs on the host can only lengthen it: the
		// fastest of the set-ups is the one least disturbed.
		"setup_s":         slices.Min(r.SetupS),
		"sut_rss_peak_mb": r.RSSPeakMB,
	}
	r.StolenShare = stolen / (wall * float64(runtime.NumCPU()))
	r.Spread = map[string]float64{}
	for name, xs := range per {
		r.Metrics[name] = overSegments(workload, xs, name == "tput_ops_s")
		if len(xs) >= 4 { // fewer values have no quartiles
			r.Spread[name] = iqrShare(xs)
		}
	}
}

// Report renders the named metrics of a result as the one-line JSON object
// the benchmark contract asks for.
func (r *Result) Report(names []Metric) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range names {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = mv{v, m.Unit}
	}
	return json.Marshal(out)
}

// SegmentCPU is sut_cpu_us_op of each timed segment in order (the A/A
// check's stationarity table).
func (r *Result) SegmentCPU() []float64 {
	out := make([]float64, len(r.Segments))
	for i, s := range r.Segments {
		out[i] = s.cpuUSOp()
	}
	return out
}

// stealS is the CPU time the hypervisor has withheld from the guest so far,
// in seconds over all CPUs (the steal column of /proc/stat, in ticks of
// 10 ms); 0 where /proc/stat does not say. A run during which much was
// stolen measured the host: the harness reports the share so that such a
// run can be told from a slow program. Lesser interference (a neighbour on
// the sibling hyperthread or in the shared cache) does not show here.
func stealS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64) // not a number: report 0
	return ticks / 100
}
