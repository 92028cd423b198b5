package metrics

import (
	"regexp"
	"sync"
	"testing"
	"time"
)

// TestRegistryNames: every Metric has a declaration. A keyed array literal
// leaves a forgotten entry zero, so an empty or repeated name is one.
func TestRegistryNames(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := make(map[string]Metric)
	for k := Metric(0); k < numMetrics; k++ {
		d := defs[k]
		if !snake.MatchString(d.name) {
			t.Errorf("metric %d has name %q, want non-empty snake_case", k, d.name)
		}
		if prev, dup := seen[d.name]; dup {
			t.Errorf("metrics %d and %d are both %q", prev, k, d.name)
		}
		seen[d.name] = k
		if d.perPartition && d.kind != Counter && d.kind != Gauge {
			t.Errorf("%s: a per-partition metric sums, so it is a counter or a gauge", d.name)
		}
		if (d.kind == Mean || d.kind == Quantile) && d.hist == noHist {
			t.Errorf("%s: a mean or quantile reads a histogram", d.name)
		}
	}
}

// TestSnapshotAndDelta: Delta subtracts counters (a histogram's count
// among them) and keeps the newer gauge, mean and quantile.
func TestSnapshotAndDelta(t *testing.T) {
	m := &Metrics{}
	m.Add(ClientToPE, 10)
	m.Add(MPConcurrent, 3)
	m.Observe(PrepareBatch, 2)
	m.Observe(Latency, int64(time.Millisecond))
	prev := m.Snapshot()
	m.Add(ClientToPE, 7)
	m.Add(MPConcurrent, -1)
	m.Observe(PrepareBatch, 4)
	m.Observe(Latency, int64(3*time.Millisecond))
	m.Observe(Latency, int64(3*time.Millisecond))
	now := m.Snapshot()
	d := now.Delta(prev)
	for _, c := range []struct {
		k          Metric
		kind       Kind
		delta, row string
	}{
		{ClientToPE, Counter, "7", "17"},
		{TxnAborted, Counter, "0", "0"},
		{MPPrepareBatches, Counter, "1", "2"},
		{LatencyCount, Counter, "2", "3"},
		{MPConcurrent, Gauge, "2", "2"},
		{MPPrepareBatchMean, Mean, "3.00", "3.00"},
		{LatencyP99, Quantile, "3ms", "3ms"},
	} {
		if defs[c.k].kind != c.kind {
			t.Errorf("%s is kind %d, want %d", c.k, defs[c.k].kind, c.kind)
		}
		if got := d.Format(c.k); got != c.delta {
			t.Errorf("%s delta = %s, want %s", c.k, got, c.delta)
		}
		if got := now.Format(c.k); got != c.row {
			t.Errorf("%s = %s, want %s", c.k, got, c.row)
		}
	}
}

// TestRowsPerPartition: a per-partition metric is the sum over the
// partitions, then one name.p<i> row each; the rest come from the store's
// snapshot.
func TestRowsPerPartition(t *testing.T) {
	m := &Metrics{}
	m.Add(TxnCommitted, 5)
	parts := make([]Snapshot, 2)
	parts[0][AckBacklog], parts[1][AckBacklog] = 3, 4
	rows := make(map[string]string)
	var order []string
	Rows(m.Snapshot(), parts, func(name, val string) {
		rows[name] = val
		order = append(order, name)
	})
	for name, want := range map[string]string{
		"txn_committed": "5", "ack_backlog": "7", "ack_backlog.p0": "3", "ack_backlog.p1": "4",
		"deferred_executions.p1": "0", "latency_p50": "0s", "mp_prepare_batch_mean": "0.00",
	} {
		if rows[name] != want {
			t.Errorf("%s = %q, want %q", name, rows[name], want)
		}
	}
	if len(order) != int(numMetrics)+6*2 {
		t.Errorf("%d rows, want one per metric plus two per per-partition metric", len(order))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(int64(time.Duration(i) * time.Millisecond))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := time.Duration(h.Quantile(0.50))
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %s", p50)
	}
	p99 := time.Duration(h.Quantile(0.99))
	if p99 < 95*time.Millisecond {
		t.Fatalf("p99 = %s", p99)
	}
	mean := time.Duration(h.Mean())
	if mean < 48*time.Millisecond || mean > 53*time.Millisecond {
		t.Fatalf("mean = %s", mean)
	}
	// Negative samples clamp rather than corrupt.
	h.Observe(-int64(time.Second))
	if h.Quantile(0) < 0 {
		t.Fatal("negative quantile")
	}
}

// TestHistogramRingWindow: past reservoirSize samples, quantiles describe
// the most recent samples while Count and Mean cover the whole run.
func TestHistogramRingWindow(t *testing.T) {
	var h Histogram
	for i := 0; i < reservoirSize; i++ {
		h.Observe(1000)
	}
	for i := 0; i < reservoirSize; i++ {
		h.Observe(1)
	}
	if p := h.Quantile(0.99); p != 1 {
		t.Fatalf("p99 = %d after %d recent samples of 1, want 1", p, reservoirSize)
	}
	if h.Count() != 2*reservoirSize || h.Mean() != 500.5 {
		t.Fatalf("count %d mean %.2f, want %d and 500.50", h.Count(), h.Mean(), 2*reservoirSize)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should be zeroed")
	}
}

func TestHistogramConcurrentSafety(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestLatencyThroughMetrics(t *testing.T) {
	m := &Metrics{}
	m.Observe(Latency, int64(5*time.Millisecond))
	m.Observe(Latency, int64(10*time.Millisecond))
	s := m.Snapshot()
	if s[LatencyCount] != 2 || s.Duration(LatencyP50) == 0 {
		t.Fatalf("latency snapshot: %v", s)
	}
}
