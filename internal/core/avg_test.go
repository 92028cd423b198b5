package core

import (
	"testing"

	"repro/internal/types"
)

// buildAvgStore loads the partitioned totals table with uneven per-key
// values via routed INSERTs so partition-local averages differ from the
// global one — the case naive AVG merging gets wrong.
func buildAvgStore(t *testing.T, parts int) *Store {
	t.Helper()
	st := buildPartApp(t, Config{Partitions: parts})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Stop() })
	for k := int64(0); k < 10; k++ {
		if _, err := st.Exec("INSERT INTO totals (k, n) VALUES (?, ?)",
			types.NewInt(k), types.NewInt(k*k)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestAvgPushdownGlobal(t *testing.T) {
	single := buildAvgStore(t, 1)
	multi := buildAvgStore(t, 4)
	want, err := single.Query("SELECT AVG(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	got, err := multi.Query("SELECT AVG(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rows[0][0].Equal(want.Rows[0][0]) {
		t.Fatalf("4-partition AVG = %v, single-partition reference = %v", got.Rows[0][0], want.Rows[0][0])
	}
	// Σ k² for k=0..9 is 285, over 10 rows.
	if got.Rows[0][0].Float() != 28.5 {
		t.Fatalf("AVG(n) = %v want 28.5", got.Rows[0][0])
	}
	// One column, named as one partition names it.
	if len(got.Columns) != 1 || got.Columns[0] != "avg" {
		t.Fatalf("columns = %v", got.Columns)
	}
	if len(got.Rows[0]) != 1 {
		t.Fatalf("row width = %d", len(got.Rows[0]))
	}
}

func TestAvgPushdownMixedAggregates(t *testing.T) {
	st := buildAvgStore(t, 4)
	res, err := st.Query("SELECT COUNT(*), AVG(n) AS mean, SUM(n), MAX(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int() != 10 || r[1].Float() != 28.5 || r[2].Int() != 285 || r[3].Int() != 81 {
		t.Fatalf("mixed agg row = %v", r)
	}
	if res.Columns[1] != "mean" {
		t.Fatalf("aliased AVG column = %v", res.Columns)
	}
}

func TestAvgPushdownGroupBy(t *testing.T) {
	st := buildAvgStore(t, 4)
	res, err := st.Query("SELECT k, AVG(n) FROM totals GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %v", res.Rows)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) || r[1].Float() != float64(i*i) {
			t.Fatalf("group %d = %v", i, r)
		}
	}
}

func TestAvgPushdownWithParams(t *testing.T) {
	st := buildAvgStore(t, 4)
	// A parameter inside the AVG argument binds the client's value.
	res, err := st.Query("SELECT AVG(n + ?) FROM totals WHERE k >= ?",
		types.NewInt(100), types.NewInt(8))
	if err != nil {
		t.Fatal(err)
	}
	// k=8,9 → n=64,81 → avg(164, 181) = 172.5
	if got := res.Rows[0][0].Float(); got != 172.5 {
		t.Fatalf("AVG with params = %v want 172.5", got)
	}
	// String params bind through the rewrite too.
	res, err = st.Query("SELECT AVG(n) FROM totals WHERE 'it''s' = ?", types.NewString("it's"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Float(); got != 28.5 {
		t.Fatalf("AVG with string param = %v want 28.5", got)
	}
	// One statement text is one cached plan: successive values must bind
	// correctly.
	for _, c := range []struct {
		lo   int64
		want float64
	}{{8, 72.5}, {9, 81}, {0, 28.5}} {
		res, err := st.Query("SELECT AVG(n) FROM totals WHERE k >= ?", types.NewInt(c.lo))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Float(); got != c.want {
			t.Fatalf("AVG(n) k>=%d = %v want %v", c.lo, got, c.want)
		}
	}
}

// TestAvgPushdownDoesNotCorruptCachedPlans: an AVG read over several
// partitions leaves the column names of a later read of the same shape
// with SUM and COUNT, and of an expression over an aggregate, as one
// partition names them.
func TestAvgPushdownDoesNotCorruptCachedPlans(t *testing.T) {
	st := buildAvgStore(t, 4)
	if _, err := st.Query("SELECT AVG(n) FROM totals"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("SELECT SUM(n), COUNT(n) FROM totals")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "sum" || res.Columns[1] != "count" {
		t.Fatalf("cached plan columns corrupted by an AVG read: %v", res.Columns)
	}
	if res, err = st.Query("SELECT k, SUM(n) * 2 FROM totals GROUP BY k"); err != nil || res.Columns[1] != "expr" {
		t.Fatalf("columns = %v, %v", res, err)
	}
}

func TestAvgPushdownEmptyInput(t *testing.T) {
	st := buildAvgStore(t, 4)
	res, err := st.Query("SELECT AVG(n) FROM totals WHERE k > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("AVG over empty input = %v want NULL", res.Rows[0][0])
	}
}
