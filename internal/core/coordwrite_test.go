package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/types"
)

// pairIDs returns n pairs of keys owned by different partitions of a
// two-partition store, mp-pair's write shape.
func pairIDs(st *Store, n int) [][2]int64 {
	out := make([][2]int64, 0, n)
	for a := int64(1 << 40); len(out) < n; {
		b := a + 1
		for st.partitionFor(types.NewInt(b)) == st.partitionFor(types.NewInt(a)) {
			b++
		}
		out = append(out, [2]int64{a, b})
		a = b + 1
	}
	return out
}

const pairInsert = "INSERT INTO pairs VALUES (?, ?, 1), (?, ?, 1)"

func buildPairs(tb testing.TB) *Store {
	tb.Helper()
	st := Open(Config{Partitions: 2})
	if err := st.ExecScript(`CREATE TABLE pairs (id BIGINT PRIMARY KEY, peer BIGINT, n BIGINT) PARTITION BY id;`); err != nil {
		tb.Fatal(err)
	}
	if err := st.Start(); err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestMPSpanningInsertTwoWaitsPerLeg: a router-issued spanning INSERT
// queues each leg's rows and its vote before waiting, so the coordinator
// waits on each leg's worker twice — once for the vote, once for the
// decision — where fragment, vote and decision used to cost three.
func TestMPSpanningInsertTwoWaitsPerLeg(t *testing.T) {
	st := buildPairs(t)
	defer st.Stop()
	ids := pairIDs(st, 8)
	before := st.Metrics().Snapshot()
	for _, p := range ids {
		a, b := types.NewInt(p[0]), types.NewInt(p[1])
		res, err := st.Exec(pairInsert, a, b, b, a)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 2 {
			t.Fatalf("spanning insert affected %d rows, want 2", res.RowsAffected)
		}
	}
	d := st.Metrics().Snapshot().Delta(before)
	if d[metrics.MPTxns] != int64(len(ids)) || d[metrics.MPLegsCommitted] != 2*int64(len(ids)) {
		t.Fatalf("%d coordinated txns with %d legs, want %d and %d", d[metrics.MPTxns], d[metrics.MPLegsCommitted], len(ids), 2*len(ids))
	}
	if d[metrics.MPLegWaits] != 2*d[metrics.MPLegsCommitted] {
		t.Fatalf("%d waits for %d legs, want 2 per leg", d[metrics.MPLegWaits], d[metrics.MPLegsCommitted])
	}
}

// TestMPSpanningInsertDuplicateAbortsBothLegs: a spanning INSERT whose
// second leg hits a duplicate key vetoes at PREPARE, with nobody having
// waited for the failed fragment: both legs abort, the error names the
// duplicate key, and both partitions serve the next call.
func TestMPSpanningInsertDuplicateAbortsBothLegs(t *testing.T) {
	st := buildKV(t, Config{Partitions: 2})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	k0, k1 := keysOwnedBy(st, 0, 1, 100)[0], keysOwnedBy(st, 1, 2, 100)
	if _, err := st.Exec("INSERT INTO kv VALUES (?, 1)", types.NewInt(k1[0])); err != nil {
		t.Fatal(err)
	}
	_, err := st.Exec("INSERT INTO kv VALUES (?, 2), (?, 2)", types.NewInt(k0), types.NewInt(k1[0]))
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("err = %v, want duplicate key", err)
	}
	res, err := st.Query("SELECT k, v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != k1[0] || res.Rows[0][1].Int() != 1 {
		t.Fatalf("after the aborted insert kv = %v, want only (%d, 1)", res.Rows, k1[0])
	}
	for _, k := range []int64{k0, k1[1]} {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
			t.Fatalf("put(%d) after the abort: %v", k, err)
		}
	}
}

// BenchmarkMPPairInsert is mp-pair's write in process: a two-row INSERT
// whose rows hash to different partitions, committed through the 2PC
// coordinator on a volatile two-partition store.
func BenchmarkMPPairInsert(b *testing.B) {
	st := buildPairs(b)
	defer st.Stop()
	ids := pairIDs(st, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, p := range ids {
		x, y := types.NewInt(p[0]), types.NewInt(p[1])
		if _, err := st.Exec(pairInsert, x, y, y, x); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMPLegResultSurvivesLaterTxns: a leg runs in its worker's own context,
// which the worker resets for its next transaction, so the rows a leg's
// read hands the coordinator are copied out. Kept past their transaction,
// they read the same after 1 000 later coordinated writes on the same
// partitions, each of which reads its own rows back through its legs.
func TestMPLegResultSurvivesLaterTxns(t *testing.T) {
	st := buildPairs(t)
	defer st.Stop()
	ids := pairIDs(st, 1008)
	for _, p := range ids[:8] {
		a, b := types.NewInt(p[0]), types.NewInt(p[1])
		if _, err := st.Exec(pairInsert, a, b, b, a); err != nil {
			t.Fatal(err)
		}
	}
	const read = "SELECT id, peer, n FROM pairs ORDER BY id"
	var kept [2][]types.Row
	if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		for part := range kept {
			res, err := tx.Query(part, read)
			if err != nil {
				return err
			}
			kept[part] = res.Rows
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(kept)
	if len(kept[0]) != 8 || len(kept[1]) != 8 {
		t.Fatalf("legs read %d and %d rows, want 8 each", len(kept[0]), len(kept[1]))
	}
	for _, p := range ids[8:] {
		if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
			for i, id := range p {
				part := tx.PartitionFor(types.NewInt(id))
				if _, err := tx.Exec(part, "INSERT INTO pairs VALUES (?, ?, 2)", types.NewInt(id), types.NewInt(p[1-i])); err != nil {
					return err
				}
				row, err := tx.QueryRow(part, "SELECT n, peer, id FROM pairs WHERE id = ?", types.NewInt(id))
				if err != nil || len(row) != 3 || row[2].Int() != id {
					return fmt.Errorf("read back %d: %v, %v", id, row, err)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(kept); got != want {
		t.Fatalf("a leg's rows changed after later transactions:\n%s\nwant\n%s", got, want)
	}
}
