package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wire"
)

func newServer(t *testing.T) (*Server, *core.Store) {
	t.Helper()
	st := core.Open(core.Config{})
	if err := st.ExecScript(`
		CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR);
		CREATE STREAM feed (k INT, v VARCHAR);
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name: "put",
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO kv VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name: "absorb",
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO kv SELECT k, v FROM batch")
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Deploy(&core.Dataflow{Name: "feed", Nodes: []core.DataflowNode{{Proc: "absorb", Input: "feed", Batch: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Stop() })
	return srv, st
}

func TestTCPRoundTrip(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("put", types.NewInt(1), types.NewString("hello")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "hello" {
		t.Fatalf("rows: %v", resp.Rows)
	}
	// Errors arrive as responses, not dropped connections.
	if _, err := c.Call("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("err = %v", err)
	}
	// The connection still works after a server-side error.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestMsgCallRefusesAdHocProc: a wire call of the built-in procedure ad-hoc
// writes run as is refused (it would skip the router's partition-key
// checks) and writes nothing; the same statement through Exec commits.
func TestMsgCallRefusesAdHocProc(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const insert = "INSERT INTO kv VALUES (1, 'x')"
	if _, err := c.Call(pe.AdHocProc, types.NewString(insert)); err == nil {
		t.Fatal("MsgCall ran the ad-hoc procedure")
	}
	count := func() int64 {
		t.Helper()
		resp, err := c.Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		return resp.Rows[0][0].Int()
	}
	if n := count(); n != 0 {
		t.Fatalf("a refused call left %d rows", n)
	}
	if _, err := c.Exec(insert); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("Exec left %d rows, want 1", n)
	}
}

func TestTCPIngestAndFlush(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ingest("feed", types.Row{types.NewInt(int64(100 + i)), types.NewString("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 5 {
		t.Fatalf("ingested rows: %v", resp.Rows)
	}
}

// TestTCPIngestTypedAtTheDoor: a row that does not fit the stream's schema
// is answered MsgError, and no row of its call is enqueued; the connection
// goes on, and good rows on the same stream still commit.
func TestTCPIngestTypedAtTheDoor(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good := types.Row{types.NewInt(1), types.NewString("a")}
	for _, bad := range []types.Row{{types.NewString("x"), types.NewInt(3)}, {types.NewInt(7)}} {
		if err := c.Ingest("feed", good, bad); err == nil || !strings.Contains(err.Error(), "feed") {
			t.Fatalf("ingest of %v: %v, want an error naming the stream", bad, err)
		}
	}
	for i := int64(2); i <= 3; i++ {
		if err := c.Ingest("feed", types.Row{types.NewInt(i), types.NewString("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query("SELECT k FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(resp.Rows); got != "[(2) (3)]" {
		t.Fatalf("kv holds %s, want the good rows alone", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.DialTCP(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				k := int64(g*1000 + i)
				if _, err := c.Call("put", types.NewInt(k), types.NewString("x")); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, _ := client.DialTCP(srv.Addr())
	defer c.Close()
	resp, err := c.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 160 {
		t.Fatalf("count: %v", resp.Rows)
	}
}

// explain runs EXPLAIN <stmt> over c and returns the plan, the one row of
// the response's one plan column.
func explain(c *client.TCP, stmt string) (string, error) {
	resp, err := c.Query("EXPLAIN " + stmt)
	if err != nil {
		return "", err
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "plan" || len(resp.Rows) != 1 {
		return "", fmt.Errorf("EXPLAIN answered %v %v, want one plan row", resp.Columns, resp.Rows)
	}
	return resp.Rows[0][0].Str(), nil
}

func TestExplainOverTCP(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan, err := explain(c, "SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kv_pkey") || !strings.Contains(plan, "equality probe") {
		t.Fatalf("plan: %s", plan)
	}
	if _, err := explain(c, "SELECT nope FROM kv"); err == nil {
		t.Fatal("bad explain accepted")
	}
}

// TestExplainNamesWhatAReadTouches: on a store of several partitions, EXPLAIN
// of a SELECT names for each access what it reads over the cut — every
// partition for a range or a count, the key's owner for a keyed read,
// partition 0 for a replicated table counted or joined in.
func TestExplainNamesWhatAReadTouches(t *testing.T) {
	st := core.Open(core.Config{Partitions: 3})
	if err := st.ExecScript(`
		CREATE TABLE pkv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;
		CREATE TABLE names (v BIGINT PRIMARY KEY, name VARCHAR);`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Stop() })
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct{ sql, want string }{
		{"SELECT k, v FROM pkv WHERE k BETWEEN ? AND ? ORDER BY k",
			"scan: pkv via index pkv_pkey (bounded range), reads every partition (3)\n"},
		{"SELECT v FROM pkv WHERE k = ?",
			"scan: pkv via index pkv_pkey (equality probe), reads the key's owner\n"},
		{"SELECT COUNT(*) FROM pkv",
			"count: pkv (counted by storage, no row read), reads every partition (3)\n"},
		{"SELECT COUNT(*) FROM names",
			"count: names (counted by storage, no row read), reads partition 0\n"},
		{"SELECT p.k, n.name FROM pkv p JOIN names n ON n.v = p.v",
			"scan: pkv (full scan), reads every partition (3)\n" +
				"  join: names via index names_pkey (equality probe), reads partition 0\n"},
	} {
		plan, err := explain(c, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, tc.want) {
			t.Errorf("EXPLAIN %s:\n%swant a line %q", tc.sql, plan, tc.want)
		}
	}
}

// TestTCPExecSpanningWrite drives an ad-hoc multi-partition write over the
// wire: the spanning INSERT must commit atomically through the server's
// coordinator, and a failing statement must leave nothing behind.
func TestTCPExecSpanningWrite(t *testing.T) {
	st := core.Open(core.Config{Partitions: 3})
	if err := st.ExecScript(`CREATE TABLE pkv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Stop() })

	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec("INSERT INTO pkv (k, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAffected != 4 {
		t.Fatalf("spanning insert affected %d", resp.RowsAffected)
	}
	// A duplicate in one leg aborts every leg.
	if _, err := c.Exec("INSERT INTO pkv (k, v) VALUES (100, 1), (1, 1)"); err == nil ||
		!strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("err = %v", err)
	}
	q, err := c.Query("SELECT COUNT(*) FROM pkv")
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Rows[0][0].Int(); n != 4 {
		t.Fatalf("count after aborted wire write = %d, want 4", n)
	}
}

// TestDataflowsOverWire exercises the dataflow surface end to end through
// the wire protocol: the listing, the per-graph rendering, and the
// pause/resume lifecycle — and checks that a pause/ingest/resume cycle
// driven by a remote client loses no tuples.
func TestDataflowsOverWire(t *testing.T) {
	srv, _ := newServer(t)
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// newServer deployed feed -> absorb as the graph "feed".
	resp, err := c.Dataflows()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "feed" {
		t.Fatalf("dataflows over wire: %v", resp.Rows)
	}
	resp, err = c.Query("EXPLAIN DATAFLOW feed")
	if err != nil {
		t.Fatal(err)
	}
	text := resp.Rows[0][0].Str()
	for _, want := range []string{"DATAFLOW feed", "absorb", "<- feed [batch 2] (border)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain over wire missing %q:\n%s", want, text)
		}
	}
	// SHOW DATAFLOWS is the listing's statement spelling.
	resp, err = c.Query("SHOW DATAFLOWS")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "feed" {
		t.Fatalf("SHOW DATAFLOWS over wire: %v", resp.Rows)
	}
	if _, err := c.Query("EXPLAIN DATAFLOW nosuch"); err == nil ||
		!strings.Contains(err.Error(), "unknown dataflow") {
		t.Fatalf("explain of unknown dataflow: %v", err)
	}

	// Pause over the wire: subsequent ingest queues server-side.
	resp, err = c.Exec("ALTER DATAFLOW feed PAUSE")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(resp.Columns, resp.Rows); got != "[dataflow state] [(feed, paused)]" {
		t.Fatalf("ALTER DATAFLOW ... PAUSE answered %s", got)
	}
	for i := 0; i < 4; i++ {
		if err := c.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = c.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 0 {
		t.Fatalf("paused graph consumed %d rows", n)
	}
	resp, _ = c.Dataflows()
	if state := resp.Rows[0][1].Str(); state != "paused" {
		t.Fatalf("state over wire = %q, want paused", state)
	}
	if _, err := c.Exec("ALTER DATAFLOW feed RESUME"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 4 {
		t.Fatalf("after resume: %d rows, want 4 (pause lost tuples)", n)
	}
	if _, err := c.Exec("ALTER DATAFLOW nosuch PAUSE"); err == nil ||
		!strings.Contains(err.Error(), "unknown dataflow") {
		t.Fatalf("pause of unknown dataflow: %v", err)
	}
	if _, err := c.Exec("ALTER DATAFLOW feed STOP"); err == nil ||
		!strings.Contains(err.Error(), "unknown action") {
		t.Fatalf("ALTER DATAFLOW with an unknown action: %v", err)
	}
}

func TestRebalanceOverWire(t *testing.T) {
	st := core.Open(core.Config{Partitions: 2})
	if err := st.ExecScript(`CREATE TABLE pt (k INT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Stop() })
	c, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := 0; k < 32; k++ {
		if _, err := c.Exec("INSERT INTO pt (k, v) VALUES (?, ?)",
			types.NewInt(int64(k)), types.NewInt(int64(k*10))); err != nil {
			t.Fatal(err)
		}
	}

	// The statement grows the store through Query...
	resp, err := c.Query("ALTER SYSTEM PARTITIONS 4")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 4 || st.NumPartitions() != 4 {
		t.Fatalf("rebalanced to %d (store has %d)", n, st.NumPartitions())
	}
	// ...and through Exec, like any statement.
	resp, err = c.Exec("ALTER SYSTEM PARTITIONS 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Int() != 5 {
		t.Fatalf("ALTER SYSTEM response: %v", resp.Rows)
	}
	if _, err := c.Exec("ALTER SYSTEM PARTITIONS 2"); err == nil ||
		!strings.Contains(err.Error(), "shrinking the partition count is not supported") {
		t.Fatalf("shrink err = %v", err)
	}
	// Data survived both migrations.
	q, err := c.Query("SELECT COUNT(*), SUM(v) FROM pt")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0].Int() != 32 || q.Rows[0][1].Int() != 4960 {
		t.Fatalf("post-rebalance data: %v", q.Rows)
	}
}

// TestGCStallRowsOverWire is an operator's view of why GC stopped: while
// one session holds a snapshot pin and another commits writes, the
// partition's gc_watermark_lag grows with the writes and oldest_pin_age_ms
// with the hold, and releasing the pin brings both back to 0.
func TestGCStallRowsOverWire(t *testing.T) {
	srv, _ := newServer(t)
	pinner, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pinner.Close()
	writer, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	stats := func() (lag, age int64) {
		t.Helper()
		resp, err := writer.Stats()
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]string{}
		for _, r := range resp.Rows {
			rows[r[0].Str()] = r[1].Str()
		}
		if rows["gc_watermark_lag"] != rows["gc_watermark_lag.p0"] {
			t.Fatalf("gc_watermark_lag %q, its one partition's %q", rows["gc_watermark_lag"], rows["gc_watermark_lag.p0"])
		}
		lag, err = strconv.ParseInt(rows["gc_watermark_lag"], 10, 64)
		if err != nil {
			t.Fatalf("gc_watermark_lag: %v", err)
		}
		age, err = strconv.ParseInt(rows["oldest_pin_age_ms"], 10, 64)
		if err != nil {
			t.Fatalf("oldest_pin_age_ms: %v", err)
		}
		return lag, age
	}
	put := func(from int64) {
		t.Helper()
		for k := from; k < from+5; k++ {
			if _, err := writer.Call("put", types.NewInt(k), types.NewString("a")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond) // the pin ages by at least 5 ms
	}

	if err := pinner.PinSnapshot(); err != nil {
		t.Fatal(err)
	}
	put(0)
	lag1, age1 := stats()
	put(100)
	lag2, age2 := stats()
	if lag1 < 5 || lag2 < lag1+5 {
		t.Errorf("gc_watermark_lag read %d after 5 writes and %d after 10, want both to count the writes", lag1, lag2)
	}
	if age1 < 5 || age2 < age1+5 {
		t.Errorf("oldest_pin_age_ms read %d, then %d 5 ms later", age1, age2)
	}
	if err := pinner.UnpinSnapshot(); err != nil {
		t.Fatal(err)
	}
	if lag, age := stats(); lag != 0 || age != 0 {
		t.Errorf("after the unpin gc_watermark_lag = %d, oldest_pin_age_ms = %d, want 0 and 0", lag, age)
	}
}

// TestMalformedFramesAnswerError: a frame the server cannot act on — a
// replication fetch whose partition is not a BIGINT, a retired kind's byte,
// an unknown byte — is answered MsgError on its connection, which then
// serves the next request; no frame brings the server down.
func TestMalformedFramesAnswerError(t *testing.T) {
	srv, _ := newServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	send := func(req *wire.Request) *wire.Response {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(in, nil)
		if err != nil {
			t.Fatalf("kind %d: %v", req.Kind, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, req := range []*wire.Request{
		{Kind: wire.MsgReplFetch, Params: types.Row{types.NewString("0"), types.NewInt(1 << 20)}},
		{Kind: wire.MsgReplFetch, Params: types.Row{types.NewInt(0), types.Null}},
		{Kind: wire.MsgReplFetch, Params: types.Row{types.NewInt(0), types.NewInt(0), types.NewInt(1 << 20)}},
		{Kind: 9, Target: "SELECT v FROM kv"},
		{Kind: 12, Target: "feed", Params: types.Row{types.NewInt(1)}},
		{Kind: 13, Target: "partitions", Params: types.Row{types.NewString("two")}},
		{Kind: 200, Target: "feed"},
	} {
		if resp := send(req); resp.Kind != wire.MsgError {
			t.Errorf("kind %d %v answered kind %d, want MsgError", req.Kind, req.Params, resp.Kind)
		}
	}
	if resp := send(&wire.Request{Kind: wire.MsgPing}); resp.Kind != wire.MsgPong {
		t.Fatalf("ping after malformed frames answered kind %d", resp.Kind)
	}
}
