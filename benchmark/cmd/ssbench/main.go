// Command ssbench is the repo's benchmark harness: one workload per
// invocation, over the wire against a spawned ssbench-sut, checked against
// a reference. See ../../README.md for the metrics and workloads.
//
//	ssbench --workload kv-mixed --seed 7 --seconds 24 --trace 0   # end-to-end metrics
//	ssbench --workload kv-mixed --seed 7 --seconds 24 --trace 1   # per-layer metrics
//	ssbench -aa 5                                                  # A/A: is the benchmark steady?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"repro/benchmark/harness"
	"repro/benchmark/sut"
)

func main() {
	var o harness.Options
	flag.StringVar(&o.Workload, "workload", "", "voter-stream | kv-mixed | kv-cold | mp-pair (with -aa: empty runs all four)")
	flag.Int64Var(&o.Seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.Seconds, "seconds", 24, "how many whole segments to measure: as many as take this long on the reference host")
	flag.StringVar(&o.SUTBin, "sut", "out/bin/ssbench-sut", "the ssbench-sut binary")
	flag.StringVar(&o.OutDir, "out", "out", "directory for data directories (removed on success) and traces")
	trace := flag.Int("trace", 0, "0: timed run over the wire, end-to-end metrics; 1: traced run, per-layer metrics")
	aa := flag.Int("aa", 0, "run the timed benchmark this many times back to back and report each metric's largest deviation from the median of runs")
	manifest := flag.String("manifest", "../BENCHMARK.json", "BENCHMARK.json, for -aa's bounds")
	verbose := flag.Bool("v", false, "log progress to standard error")
	flag.Parse()
	if *verbose {
		o.Log = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	// The host block goes to standard error: standard output ends with the
	// result line and nothing else.
	fmt.Fprintf(os.Stderr, "host: cpus=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if *aa > 0 {
		os.Exit(runAA(o, *aa, *manifest))
	}
	run, names := harness.Run, harness.EndToEnd
	if *trace != 0 {
		run, names = harness.Trace, harness.PerLayer
	}
	res, err := run(o)
	if err == nil {
		var line []byte
		if line, err = res.Report(names); err == nil {
			// How far the segments of this run disagree with each other:
			// a later review can say "unresolved" instead of "unchanged".
			for _, m := range harness.EndToEnd {
				if sp, ok := res.Spread[m.Name]; ok && *trace == 0 {
					fmt.Fprintf(os.Stderr, "spread over segments: %-18s %5.1f%%\n", m.Name, 100*sp)
				}
			}
			fmt.Fprintf(os.Stderr, "stolen by the host during the timed segments: %.1f%% of the guest's CPU time\n", 100*res.StolenShare)
			fmt.Println(string(line))
			return
		}
	}
	// A failed run or reference check prints no result.
	fmt.Fprintf(os.Stderr, "ssbench: %v\n", err)
	os.Exit(1)
}

// runAA is the A/A check: the same code and seed, n runs per workload. For
// every end-to-end metric it prints the median of runs and the largest
// relative deviation of a run from it, and fails when that exceeds the
// metric's bound in BENCHMARK.json. It also prints the SUT's CPU time per
// op by segment (median across runs) and its trend from the first segment
// to the sixth, and fails when that exceeds maxDrift: the stationarity
// rule.
func runAA(o harness.Options, n int, manifestPath string) int {
	var manifest struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(manifestPath)
	if err == nil {
		err = json.Unmarshal(b, &manifest)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssbench: %s: %v\n", manifestPath, err)
		return 1
	}
	bound := map[string]float64{}
	for _, m := range manifest.EndToEnd {
		bound[m.Name] = m.Bound
	}
	workloads := sut.Workloads
	if o.Workload != "" {
		workloads = []string{o.Workload}
	}
	status := 0
	for _, w := range workloads {
		o.Workload = w
		values := map[string][]float64{}
		var perSegment [][]float64 // [segment][run] sut_cpu_us_op
		for i := 0; i < n; i++ {
			res, err := harness.Run(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ssbench: %s run %d: %v\n", w, i+1, err)
				return 1
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v)
			}
			for s, cpu := range res.SegmentCPU() {
				if s == len(perSegment) {
					perSegment = append(perSegment, nil)
				}
				perSegment[s] = append(perSegment[s], cpu)
			}
		}
		fmt.Printf("%s, %d runs\n", w, n)
		deviation := func(m harness.Metric) (med, dev float64) {
			xs := values[m.Name]
			med = harness.Median(xs)
			for _, x := range xs {
				dev = math.Max(dev, math.Abs(x-med)/med)
			}
			return med, dev
		}
		for _, m := range harness.EndToEnd {
			med, dev := deviation(m)
			verdict := "ok"
			if dev > bound[m.Name] {
				verdict, status = "OVER", 1
			}
			fmt.Printf("  %-18s median %12.4f %-4s max deviation %5.1f%%  bound %4.0f%%  %s\n",
				m.Name, med, m.Unit, 100*dev, 100*bound[m.Name], verdict)
		}
		for _, d := range harness.Diagnostics {
			med, dev := deviation(d.Metric)
			fmt.Printf("  %-18s median %12.4f %-4s max deviation %5.1f%%  not gated\n", d.Name, med, d.Unit, 100*dev)
		}
		var cpu []float64
		for _, xs := range perSegment {
			cpu = append(cpu, harness.Median(xs))
		}
		fmt.Printf("  sut cpu us/op by segment:")
		for _, v := range cpu {
			fmt.Printf(" %.1f", v)
		}
		if len(cpu) >= 6 {
			d := drift(cpu)
			verdict := "ok"
			if math.Abs(d) > maxDrift {
				verdict, status = "NOT STATIONARY", 1
			}
			fmt.Printf("  trend 1→6 %+.1f%%  allowed %.0f%%  %s", 100*d, 100*maxDrift, verdict)
		}
		fmt.Println()
	}
	return status
}

// maxDrift is the stationarity rule: the SUT's CPU time per op may not trend
// by more than this share from the first segment to the sixth.
const maxDrift = 0.05

// drift is the trend of ys from its first value to its sixth as a share of
// the first, along the least-squares line through all of ys: two single
// segments differ by more than the rule allows from noise alone.
func drift(ys []float64) float64 {
	n := float64(len(ys))
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	first := (sy - slope*sx) / n
	return 5 * slope / first
}

// commit is the VCS revision the binary was built from, when the build
// had one to stamp (a checkout without .git has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
