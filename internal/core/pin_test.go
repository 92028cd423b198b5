package core

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// TestSnapshotPinStableAcrossWrites is the session-pin contract: every
// query against one pin observes the identical cross-partition cut no
// matter how much commits in between, unpinned queries see the new state,
// and release invalidates the pin.
func TestSnapshotPinStableAcrossWrites(t *testing.T) {
	const parts = 2
	st := buildKV(t, Config{Partitions: parts})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for k := int64(0); k < 20; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}

	pin := st.PinSnapshot()
	defer pin.Release()
	base, err := st.QueryPinned(pin, "SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if base.Rows[0][0].Int() != 20 {
		t.Fatalf("pinned count = %v, want 20", base.Rows)
	}
	// Commit another wave on both partitions.
	for k := int64(20); k < 40; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	// The pin still sees the old cut; a fresh statement sees the new state.
	again, err := st.QueryPinned(pin, "SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0][0].Int() != 20 || again.Rows[0][1].Int() != 20 {
		t.Fatalf("pinned cut moved under writes: %v", again.Rows)
	}
	fresh, err := st.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rows[0][0].Int() != 40 {
		t.Fatalf("unpinned count = %v, want 40", fresh.Rows)
	}

	// Pins are read artifacts: writes and foreign pins are rejected.
	if _, err := st.QueryPinned(pin, "INSERT INTO kv VALUES (99, 9)"); err == nil ||
		!strings.Contains(err.Error(), "SELECT") {
		t.Fatalf("pinned write err = %v", err)
	}
	other := buildKV(t, Config{Partitions: parts})
	if err := other.Start(); err != nil {
		t.Fatal(err)
	}
	defer other.Stop()
	if _, err := other.QueryPinned(pin, "SELECT COUNT(*) FROM kv"); err == nil ||
		!strings.Contains(err.Error(), "belong") {
		t.Fatalf("foreign pin err = %v", err)
	}

	// Release invalidates; double release is a no-op.
	pin.Release()
	pin.Release()
	if _, err := st.QueryPinned(pin, "SELECT COUNT(*) FROM kv"); err == nil ||
		!strings.Contains(err.Error(), "released") {
		t.Fatalf("released pin err = %v", err)
	}
}

// TestSnapshotPinConcurrentReadsAndRelease hammers one pin from several
// reader goroutines racing a writer, stats reads and a late release: every
// successful read must return the pinned cut, and reads after release fail
// cleanly.
func TestSnapshotPinConcurrentReadsAndRelease(t *testing.T) {
	const parts = 2
	st := buildKV(t, Config{Partitions: parts})
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for k := int64(0); k < 10; k++ {
		if _, err := st.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	stop, statsDone := make(chan struct{}), make(chan struct{})
	go func() { // stats reads the live pins while one is taken and released
		defer close(statsDone)
		for {
			select {
			case <-stop:
				return
			default:
				st.StatsResult()
			}
		}
	}()
	pin := st.PinSnapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(10); k < 200; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		res, err := st.QueryPinned(pin, "SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 10 {
			t.Fatalf("pinned read drifted: %v", res.Rows)
		}
	}
	<-done
	pin.Release()
	close(stop)
	<-statsDone
	if _, err := st.QueryPinned(pin, "SELECT COUNT(*) FROM kv"); err == nil {
		t.Fatal("read on released pin succeeded")
	}
}
