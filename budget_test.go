package sstore_test

import (
	"runtime"
	"strings"
	"testing"

	sstore "repro"
	"repro/internal/apps/voter"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Allocation budgets for the two paths BenchmarkVoterVoteSStore and
// BenchmarkOLTPCall time, as tests: testing.AllocsPerRun counts every
// goroutine's allocations, so a figure is the client's (the ingested row's
// copy, the request) plus the worker's, and it is the same on any host.
// What the worker has left to allocate is what the TE stores: validated
// rows, versions, slots (DESIGN.md §1.6.3; EXPERIMENTS.md E18 lists each).
// Before TE-scoped memory these read 107 and 23; before a version held its
// own row, 33 and 10.

// TestVoteAllocBudget: one vote through SP1 → SP2 with the trending window
// and its trigger, ingested and drained, every hundredth with SP3 behind it.
func TestVoteAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{})
	if err := voter.Setup(st, 250); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	phone := int64(0)
	vote := func() {
		phone++
		if err := st.Ingest("votes_in",
			sstore.Row{sstore.Int(5_550_000 + phone), sstore.Int(1 + phone%200), sstore.Int(phone)}); err != nil {
			t.Fatal(err)
		}
		st.Drain()
	}
	for i := 0; i < 500; i++ { // fills the window, settles the scratch
		vote()
	}
	// Measured 25, and 26 under the race detector, whose sync.Pool drops a
	// quarter of what the version and index-node pools are given back.
	const budget = 26
	if got := testing.AllocsPerRun(1000, vote); got > budget {
		t.Fatalf("%.0f allocations per vote, budget %d", got, budget)
	}
	// All but the votes for a candidate already eliminated were counted.
	res, err := st.Query("SELECT n FROM vote_totals WHERE id = 0")
	if err != nil || res.Rows[0][0].Int() < phone*9/10 {
		t.Fatalf("vote_totals = %v, %v after %d votes", res, err, phone)
	}
}

// TestOLTPCallAllocBudget: a one-INSERT procedure called and answered.
func TestOLTPCallAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{})
	if err := st.ExecScript("CREATE TABLE t (k INT PRIMARY KEY, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&sstore.Procedure{
		Name: "put",
		Handler: func(ctx *sstore.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO t VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	k := int64(0)
	put := func() {
		k++
		if _, err := st.Call("put", sstore.Int(k), sstore.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	const budget = 9 // measured, with and without the race detector
	if got := testing.AllocsPerRun(1000, put); got > budget {
		t.Fatalf("%.0f allocations per call, budget %d", got, budget)
	}
}

// TestKeyedQueryAllocBudget: kv-mixed's point read on two partitions. The
// key names its owner, so the statement runs there alone: no leg
// goroutines, no merge (a fan-out read ~15).
func TestKeyedQueryAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{Partitions: 2})
	if err := st.ExecScript("CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	const keys = 1000
	for k := int64(0); k < keys; k++ {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?, ?, ?)",
			sstore.Int(k), sstore.Int(k%100), sstore.Int(0), sstore.Str("v")); err != nil {
			t.Fatal(err)
		}
	}
	params := make([]sstore.Value, keys)
	for k := range params {
		params[k] = sstore.Int(int64(k))
	}
	k := 0
	read := func() {
		k = (k + 1) % keys
		res, err := st.Query("SELECT k, grp, n, v FROM kv WHERE k = ?", params[k])
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point read of %d: %v, %v", k, res, err)
		}
	}
	for i := 0; i < 100; i++ {
		read()
	}
	// Measured 5, and 8 under the race detector, whose sync.Pool drops a
	// quarter of the snapshot-read contexts it is given (9 and 10 before a
	// read reused its context).
	const budget = 9
	if got := testing.AllocsPerRun(1000, read); got > budget {
		t.Fatalf("%.0f allocations per keyed read, budget %d", got, budget)
	}
}

// pairWrite is mp-pair's write (benchmark/sut): two rows whose ids hash to
// different partitions of two, each naming the other, inserted as one
// coordinated transaction.
const pairWrite = "INSERT INTO pairs VALUES (?, ?, 1), (?, ?, 1)"

// pairIDs returns a function yielding the next two ids owned by different
// partitions of a two-partition store.
func pairIDs() func() (a, b sstore.Value) {
	slots := catalog.NewSlotTable(2)
	next := int64(0)
	return func() (sstore.Value, sstore.Value) {
		next++
		a, b := sstore.Int(next), sstore.Int(next+1)
		for slots.Partition(b) == slots.Partition(a) {
			next++
			b = sstore.Int(next + 1)
		}
		next++
		return a, b
	}
}

// TestCoordinatedWriteAllocBudget: mp-pair's write on two partitions, a
// 2PC through the coordinator, routed and answered in process. What is
// left is the router's (the statement's parameters, the evaluated rows,
// their targets) and what the legs store; the coordinator's transaction,
// its sessions and a leg's context are reused. It read 51 before that.
func TestCoordinatedWriteAllocBudget(t *testing.T) {
	st := sstore.Open(sstore.Config{Partitions: 2})
	if err := st.ExecScript("CREATE TABLE pairs (id BIGINT PRIMARY KEY, peer BIGINT, n BIGINT) PARTITION BY id"); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	ids := pairIDs()
	write := func() {
		a, b := ids()
		if res, err := st.Exec(pairWrite, a, b, b, a); err != nil || res.RowsAffected != 2 {
			t.Fatalf("pair write: %v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ {
		write()
	}
	txns := st.Metrics().Load(metrics.MPTxns)
	const runs = 1000
	// Measured 16, and 18 under the race detector, whose sync.Pool drops a
	// quarter of the sessions and transactions it is given back.
	const budget = 18
	if got := testing.AllocsPerRun(runs, write); got > budget {
		t.Fatalf("%.0f allocations per coordinated write, budget %d", got, budget)
	}
	if n := st.Metrics().Load(metrics.MPTxns) - txns; n != runs+1 {
		t.Fatalf("%d coordinated transactions for %d writes", n, runs+1)
	}
}

// kv-mixed's statements over the wire (benchmark/sut), on a 216-byte value,
// and mp-pair's fan-out count of a whole table.
const (
	wireKeys   = 1000
	wireGroups = 10 // a grp aggregate reads 50 rows on each of 2 partitions
	wirePoint  = "SELECT k, grp, n, v FROM kv WHERE k = ?"
	wireRange  = "SELECT k, n, v FROM kv WHERE k BETWEEN ? AND ? ORDER BY k"
	wireAgg    = "SELECT COUNT(*), SUM(n) FROM kv WHERE grp = ?"
	wireCount  = "SELECT COUNT(*) FROM kv"
)

// kvOverTCP serves kv-mixed's table, wireKeys rows on two partitions, and
// mp-pair's, from a server on loopback TCP, and returns the statements a
// client connected to it makes: a point read, a 50-row ordered range, a
// grp aggregate and a count of the table, each checked, each on the next
// key, and a pair write.
func kvOverTCP(tb testing.TB) map[string]func() {
	st := sstore.Open(sstore.Config{Partitions: 2})
	if err := st.ExecScript(`
		CREATE TABLE kv (k BIGINT PRIMARY KEY, grp INT, n BIGINT, v VARCHAR) PARTITION BY k;
		CREATE INDEX kv_by_grp ON kv (grp);
		CREATE TABLE pairs (id BIGINT PRIMARY KEY, peer BIGINT, n BIGINT) PARTITION BY id;`); err != nil {
		tb.Fatal(err)
	}
	if err := st.Start(); err != nil {
		tb.Fatal(err)
	}
	v := sstore.Str(strings.Repeat("x", 216))
	for k := int64(0); k < wireKeys; k++ {
		if _, err := st.Exec("INSERT INTO kv VALUES (?, ?, ?, ?)",
			sstore.Int(k), sstore.Int(k%wireGroups), sstore.Int(0), v); err != nil {
			tb.Fatal(err)
		}
	}
	srv := server.New(st)
	srv.Logf = tb.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close(); srv.Close(); st.Stop() })
	params := make([]sstore.Value, wireKeys)
	for k := range params {
		params[k] = sstore.Int(int64(k))
	}
	ids := pairIDs()
	k := 0
	next := func(span int) int {
		k = (k + 1) % (wireKeys - span)
		return k
	}
	return map[string]func(){
		"point": func() {
			k := next(0)
			resp, err := c.Query(wirePoint, params[k])
			if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].Int() != int64(k) {
				tb.Fatalf("point read of %d: %v, %v", k, resp, err)
			}
		},
		"range": func() {
			k := next(50)
			resp, err := c.Query(wireRange, params[k], params[k+49])
			if err != nil || len(resp.Rows) != 50 || resp.Rows[49][0].Int() != int64(k+49) {
				tb.Fatalf("range read from %d: %v, %v", k, resp, err)
			}
		},
		"count": func() {
			resp, err := c.Query(wireCount)
			if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].Int() != wireKeys {
				tb.Fatalf("count: %v, %v", resp, err)
			}
		},
		"agg": func() {
			k := next(0)
			resp, err := c.Query(wireAgg, params[k%wireGroups])
			if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].Int() != wireKeys/wireGroups {
				tb.Fatalf("grp aggregate of %d: %v, %v", k%wireGroups, resp, err)
			}
		},
		"pair": func() {
			a, b := ids()
			resp, err := c.Exec(pairWrite, a, b, b, a)
			if err != nil || resp.RowsAffected != 2 {
				tb.Fatalf("pair write: %v, %v", resp, err)
			}
		},
	}
}

// TestWireReadAllocBudget: bytes allocated per read over TCP, by every
// goroutine (client, connection, reader, legs), for kv-mixed's point read
// and its 50-row ordered range. Most of each figure is the client's: the
// response frame it reads and the rows it decodes. Before the server
// encoded into a buffer its connection keeps and a snapshot read reused its
// context, these read ~2 910 and ~107 000 B.
func TestWireReadAllocBudget(t *testing.T) {
	reads := kvOverTCP(t)
	for _, c := range []struct {
		name   string
		budget uint64
	}{
		// Measured ~1 420 and ~35 300 B; ~1 810 and ~42 700 B under the
		// race detector, whose sync.Pool drops a quarter of the contexts
		// it is given, so a read may grow a fresh one's scratch. The
		// budgets are the race figures and 10 %.
		{"point", 2000},
		{"range", 47000},
	} {
		read := reads[c.name]
		for i := 0; i < 200; i++ { // settles the pools and the buffers
			read()
		}
		const ops = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / ops; got > c.budget {
			t.Errorf("%s read over TCP allocates %d B, budget %d", c.name, got, c.budget)
		} else {
			t.Logf("%s read over TCP allocates %d B, budget %d", c.name, got, c.budget)
		}
	}
}
