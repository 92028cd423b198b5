package core

import (
	"fmt"
	"testing"

	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestCommitPoliciesAgree: a logged commit takes one path whatever the sync
// policy (the worker appends, the acker acknowledges once the future
// resolves; the policy decides only when that is). One script of keyed
// calls, border batches through a deployed dataflow, one batch per
// partition whose interior stage aborts, a coordinated pair insert, a
// checkpoint mid-way and, after it, ad-hoc writes runs under each policy and
// log mode; after a clean stop, recovery holds every acknowledged effect and
// nothing of the aborted stage, and all six recovered stores are identical.
func TestCommitPoliciesAgree(t *testing.T) {
	var first, firstName string
	for _, sp := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"never", wal.SyncNever}, {"every", wal.SyncEveryRecord}, {"group", wal.SyncGroupCommit}} {
		for _, lm := range []struct {
			name string
			mode pe.LogMode
		}{{"border", pe.LogBorderOnly}, {"all", pe.LogAllTEs}} {
			name := sp.name + "/" + lm.name
			t.Run(name, func(t *testing.T) {
				got := commitPolicyScript(t, Config{Dir: t.TempDir(), Partitions: 2, Sync: sp.policy, LogMode: lm.mode})
				switch {
				case first == "":
					first, firstName = got, name
				case got != first:
					t.Errorf("recovered state differs from %s:\n--- %s\n%s--- %s\n%s", firstName, firstName, first, name, got)
				}
			})
		}
	}
}

// commitPolicyScript runs the script on a fresh durable store, stops it,
// recovers the directory into a second store, checks the acknowledged
// effects and returns the recovered state.
func commitPolicyScript(t *testing.T, cfg Config) string {
	st := buildPartApp(t, cfg)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	const keys = 8
	// bumpAll pipelines one keyed call per key and waits for every ack.
	bumpAll := func() {
		t.Helper()
		var acks []<-chan pe.CallResult
		for k := int64(0); k < keys; k++ {
			acks = append(acks, st.CallAsync("bump", types.NewInt(k)))
		}
		for k, ack := range acks {
			cr := <-ack
			if cr.Err != nil {
				t.Fatal(cr.Err)
			}
			if cr.Result.RowsAffected != 1 {
				t.Fatalf("bump(%d) acknowledged with %d rows affected", k, cr.Result.RowsAffected)
			}
		}
	}
	ingestKeys(t, st, keys, 2) // every key: 2 events, doubled
	bumpAll()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One negative event per partition: its border TE commits and is
	// logged, the apply TE it triggers aborts and leaves its tuple in
	// derived. Upstream backup re-derives that abort at replay. The
	// triggered records that follow must GC their own tuples at replay
	// under LogAllTEs, not the aborted batch's older one.
	for part := 0; part < st.NumPartitions(); part++ {
		k := keysOwnedBy(st, part, 1, 2000)[0]
		if err := st.Ingest("events", types.Row{types.NewInt(k), types.NewInt(-1)}); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushBatches()
	st.Drain()
	ingestKeys(t, st, keys, 1)
	pa, pb := keysOwnedBy(st, 0, 1, 1000)[0], keysOwnedBy(st, 1, 1, 1000)[0]
	if err := st.MultiPartitionTxn(func(tx *MPTxn) error {
		if _, err := tx.Exec(0, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(pa)); err != nil {
			return err
		}
		_, err := tx.Exec(1, "INSERT INTO totals (k, n) VALUES (?, 1)", types.NewInt(pb))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	bumpAll()
	adHoc := adHocWrites(t, st, 5000)
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	re := buildPartApp(t, cfg)
	if err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	defer re.Stop()
	want := map[int64]int64{pa: 1, pb: 1}
	for k := int64(0); k < keys; k++ {
		want[k] = 3*2 + 2*100
	}
	for k, n := range adHoc {
		want[k] = n
	}
	if got := totalsOf(re); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered totals = %v\nwant %v", got, want)
	}
	return storeState(re)
}

// adHocWrites runs one of each ad-hoc write shape through st.Exec on totals,
// with keys from base up, and returns the totals rows they leave: a keyed
// INSERT (routed to its owner), a keyed UPDATE and DELETE (which the router
// runs on every partition of a partitioned table), a two-row INSERT
// spanning partitions 0 and 1, and a broadcast UPDATE. The store needs two
// partitions or more.
func adHocWrites(t *testing.T, st *Store, base int64) map[int64]int64 {
	t.Helper()
	on0, on1 := keysOwnedBy(st, 0, 2, base), keysOwnedBy(st, 1, 1, base)
	x, y, z := on0[0], on0[1], on1[0]
	for _, w := range []struct {
		q        string
		params   []types.Value
		affected int
	}{
		{"INSERT INTO totals (k, n) VALUES (?, 5)", []types.Value{types.NewInt(x)}, 1},
		{"UPDATE totals SET n = n + 1 WHERE k = ?", []types.Value{types.NewInt(x)}, 1},
		{"INSERT INTO totals (k, n) VALUES (?, 1), (?, 1)", []types.Value{types.NewInt(y), types.NewInt(z)}, 2},
		{"DELETE FROM totals WHERE k = ?", []types.Value{types.NewInt(y)}, 1},
		{"UPDATE totals SET n = n * 2 WHERE k >= ?", []types.Value{types.NewInt(base)}, 2},
	} {
		res, err := st.Exec(w.q, w.params...)
		if err != nil {
			t.Fatalf("%s: %v", w.q, err)
		}
		if res.RowsAffected != w.affected {
			t.Fatalf("%s affected %d rows, want %d", w.q, res.RowsAffected, w.affected)
		}
	}
	return map[int64]int64{x: 12, z: 2}
}
