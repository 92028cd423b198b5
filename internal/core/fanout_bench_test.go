package core

import (
	"testing"
)

// Fan-out read-path benchmarks: pin every partition, run the leg on the
// fan-out workers, merge. allocs/op is what the pooled cut (cutPool) keeps
// down.

func BenchmarkFanoutScanQuery(b *testing.B) {
	st := buildPartApp(b, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(b, st, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT k, n FROM totals WHERE n >= 0")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 64 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func BenchmarkFanoutAggQuery(b *testing.B) {
	st := buildPartApp(b, Config{Partitions: 4})
	if err := st.Start(); err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	ingestKeys(b, st, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("SELECT k, SUM(n) FROM totals GROUP BY k")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 64 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}
