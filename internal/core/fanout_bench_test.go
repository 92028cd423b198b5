package core

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/types"
)

// Read-path benchmarks: pin every partition and run one plan over the cut,
// which reads every partition (or the key's owner alone). allocs/op is
// what the pooled cut (cutPool) keeps down.

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

// BenchmarkPointQuery is kv-mixed's point read on 1 000 keys: a SELECT
// binding the partition key reads the key's owner alone at its pin, so its
// cost does not grow with the partition count. pins/op is snapshot_reads
// per read, which counts one per read statement whatever partitions it
// walks.
func BenchmarkPointQuery(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", n), func(b *testing.B) {
			st := Open(Config{Partitions: n})
			must(b, st.ExecScript(`
				CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k;
				CREATE INDEX kv_by_grp ON kv (grp);`))
			must(b, st.Start())
			defer st.Stop()
			const keys = 1000
			for k := int64(0); k < keys; k++ {
				_, err := st.Exec("INSERT INTO kv VALUES (?, ?, ?, ?)",
					types.NewInt(k), types.NewInt(k%100), types.NewInt(0), types.NewString("v"))
				must(b, err)
			}
			params := make([]types.Value, keys)
			for k := range params {
				params[k] = types.NewInt(int64(k))
			}
			before := st.Metrics().Snapshot()[metrics.SnapshotReads]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := st.Query("SELECT k, grp, n, v FROM kv WHERE k = ?", params[i%keys])
				if err != nil || len(res.Rows) != 1 {
					b.Fatalf("point read: %v, %v", res, err)
				}
			}
			b.StopTimer()
			reads := st.Metrics().Snapshot()[metrics.SnapshotReads] - before
			b.ReportMetric(float64(reads)/float64(b.N), "pins/op")
		})
	}
}
