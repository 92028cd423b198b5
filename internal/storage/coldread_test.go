package storage

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage/coldstore"
	"repro/internal/types"
)

// evictedVotes builds a votes table of n rows of ~350 encoded bytes, all
// evicted to a fresh cold store.
func evictedVotes(tb testing.TB, n int) *Table {
	tb.Helper()
	cs, err := coldstore.Open(filepath.Join(tb.TempDir(), "cold.pages"), coldstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cs.Close() })
	t := NewTable(votesSchema(tb))
	t.AttachColdStore(cs)
	note := types.NewString(strings.Repeat("n", 330))
	for i := 0; i < n; i++ {
		if _, err := t.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), note}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	t.Clock().Publish()
	t.Evict(t.Clock().Current(), 1<<40)
	if cv, _, _ := t.ColdStats(); cv != n {
		tb.Fatalf("%d of %d rows evicted", cv, n)
	}
	return t
}

// BenchmarkColdSnapshotGet: a snapshot point read of a random evicted row,
// which reads it through from the cold store.
func BenchmarkColdSnapshotGet(b *testing.B) {
	const n = 50_000
	t := evictedVotes(b, n)
	seq := t.Clock().Current()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.SnapshotGet(RowID(1+rng.Intn(n)), seq); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkColdSnapshotScan: a full snapshot scan of a table whose every
// row is evicted; one op is the whole scan.
func BenchmarkColdSnapshotScan(b *testing.B) {
	const n = 50_000
	t := evictedVotes(b, n)
	seq := t.Clock().Current()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		t.SnapshotScan(seq, func(RowID, types.Row) bool { rows++; return true })
		if rows != n {
			b.Fatalf("scanned %d rows of %d", rows, n)
		}
	}
}

// TestColdSnapshotGetAllocatesOnlyTheRow: a snapshot read of an evicted
// row allocates what decoding the row allocates, and nothing for the read.
func TestColdSnapshotGetAllocatesOnlyTheRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not asserted under the race detector")
	}
	tb := evictedVotes(t, 100)
	seq := tb.Clock().Current()
	enc := types.EncodeRow(nil, types.Row{types.NewInt(1), types.NewInt(1), types.NewString(strings.Repeat("n", 330))})
	decode := testing.AllocsPerRun(100, func() {
		if _, _, err := types.DecodeRow(enc); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(100, func() {
		if _, ok := tb.SnapshotGet(7, seq); !ok {
			t.Fatal("miss")
		}
	})
	if get != decode {
		t.Fatalf("a cold SnapshotGet allocates %.1f times, decoding its row %.1f", get, decode)
	}
}

// TestColdWalkStopsWithinOneWindow: a walk over evicted rows whose
// callback stops early has read at most one window of them, and every
// walk hands back the rows as stored.
func TestColdWalkStopsWithinOneWindow(t *testing.T) {
	const n = 1000
	tb := evictedVotes(t, n)
	seq := tb.Clock().Current()
	faults := func() uint64 { _, _, f := tb.ColdStats(); return f }
	check := func(row types.Row) {
		t.Helper()
		if len(row) != 3 || row[1].Int() != row[0].Int()%7 || len(row[2].Str()) != 330 {
			t.Fatalf("a cold walk returned %v", row[:min(len(row), 2)])
		}
	}
	before, seen := faults(), 0
	tb.SnapshotScan(seq, func(_ RowID, row types.Row) bool { check(row); seen++; return seen < 10 })
	if f := faults() - before; f > coldWindow {
		t.Fatalf("a scan stopped after 10 rows faulted %d", f)
	}
	before, seen = faults(), 0
	if err := tb.SnapshotRange(tb.PrimaryIndex(), nil, nil, seq, func(_, row types.Row) bool {
		check(row)
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if f := faults() - before; f > coldWindow {
		t.Fatalf("a range stopped after 10 rows faulted %d", f)
	}
	before, seen = faults(), 0
	tb.SnapshotScan(seq, func(_ RowID, row types.Row) bool { check(row); seen++; return true })
	if f := faults() - before; seen != n || f != n {
		t.Fatalf("a full scan saw %d rows and faulted %d, want %d", seen, f, n)
	}
}
