package harness

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank on a sorted
// copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// Median is the mean of the two middle values for an even count, so that
// the median of six segments moves smoothly rather than by whole samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// recorder collects one connection's round-trip times in nanoseconds, by
// class. Slices are sized before the timed segment so recording allocates
// nothing.
type recorder struct {
	all, read, write []float64
	// primary holds the workload's most frequent request alone (the
	// traced run compares it with the same call made in-process).
	primary []float64
}

func newRecorder(n int) *recorder {
	return &recorder{
		all:     make([]float64, 0, n),
		read:    make([]float64, 0, n),
		write:   make([]float64, 0, n),
		primary: make([]float64, 0, n),
	}
}

func mergeRecorders(rs []*recorder) *recorder {
	m := &recorder{}
	for _, r := range rs {
		m.all = append(m.all, r.all...)
		m.read = append(m.read, r.read...)
		m.write = append(m.write, r.write...)
		m.primary = append(m.primary, r.primary...)
	}
	return m
}
