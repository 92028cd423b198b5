package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/benchmark/sut"
	"repro/internal/wire"
)

// manifest is the part of BENCHMARK.json the smoke test holds the code to.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func asMetrics(ms []manifestMetric) []Metric {
	out := make([]Metric, len(ms))
	for i, m := range ms {
		out[i] = Metric(m)
	}
	return out
}

// TestManifestMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the harness emits, with the same units.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, sut.Workloads) {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", names, sut.Workloads)
	}
	if got := asMetrics(m.EndToEnd); !reflect.DeepEqual(got, EndToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, code has %v", got, EndToEnd)
	}
	if got := asMetrics(m.PerLayer); !reflect.DeepEqual(got, PerLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, code has %v", got, PerLayer)
	}
}

// emittedNames runs a result through Report and returns the metric names
// of the JSON line, sorted.
func emittedNames(t *testing.T, res *Result, want []Metric) []string {
	t.Helper()
	line, err := res.Report(want)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	var names []string
	for name, m := range out.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks a value or a unit", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedNames(ms []Metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at 1/50 scale against a server in this
// process: timed run and traced run, reference checks on (including the
// restart from the same directory), no timing assertions. The emitted JSON
// must carry exactly the manifest's metric names.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range sut.Workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			o := Options{Workload: w, Seed: 7, Seconds: 2, Scale: 50, OutDir: t.TempDir()}
			res, err := Run(o)
			if err != nil {
				t.Fatalf("timed run: %v", err)
			}
			if got, want := emittedNames(t, res, EndToEnd), sortedNames(asMetrics(m.EndToEnd)); !reflect.DeepEqual(got, want) {
				t.Errorf("timed run emitted %v, BENCHMARK.json wants %v", got, want)
			}
			res, err = Trace(o)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if got, want := emittedNames(t, res, PerLayer), sortedNames(asMetrics(m.PerLayer)); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run emitted %v, BENCHMARK.json wants %v", got, want)
			}
			if _, err := os.Stat(filepath.Join(o.OutDir, "trace-"+w+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
			if w == sut.KVMixed && res.Metrics["storage.cold_faults_kop"] != 0 {
				t.Error("kv-mixed traced run reports cold faults")
			}
			if res.Metrics["storage.worker_queries_op"] != 0 {
				t.Error("reads went through the partition worker")
			}
		})
	}
}

// TestSameSeedSameInputs: the request stream is a function of the seed.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{sut.VoterStream, sut.KVMixed} {
		spec := sut.Spec{Workload: w, Scale: 50}
		sample := func(seed int64) [][]byte {
			wl, err := newWorkload(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for _, req := range wl.sample() {
				out = append(out, wire.EncodeRequest(req))
			}
			return out
		}
		if !reflect.DeepEqual(sample(3), sample(3)) {
			t.Errorf("%s: seed 3 gave two different request streams", w)
		}
		if reflect.DeepEqual(sample(3), sample(4)) {
			t.Errorf("%s: seeds 3 and 4 gave the same request stream", w)
		}
	}
}
