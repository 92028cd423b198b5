package client

import (
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wire"
)

// startServer assembles a small engine behind a listening server. With
// partitions > 1 the schema is hash-partitioned, so the client exercises
// the router through the wire protocol.
func startServer(t *testing.T, partitions int) (*server.Server, *core.Store) {
	t.Helper()
	st := core.Open(core.Config{Partitions: partitions})
	if err := st.ExecScript(`
		CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR) PARTITION BY k;
		CREATE STREAM feed (k INT, v VARCHAR) PARTITION BY k;
	`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "put",
		PartitionParam: 1,
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
	if err := st.Deploy(&core.Dataflow{Name: "feed", Nodes: []core.DataflowNode{{Proc: "absorb", Input: "feed", Batch: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(st)
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := st.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return srv, st
}

func TestTCPClientRoundTrips(t *testing.T) {
	srv, _ := startServer(t, 1)
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call("put", types.NewInt(1), types.NewString("one"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.MsgResult {
		t.Fatalf("kind = %d", resp.Kind)
	}
	resp, err = c.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "one" {
		t.Fatalf("rows = %v", resp.Rows)
	}
	// Server-side failures surface as errors with the response intact, and
	// the connection survives them.
	if _, err := c.Call("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Query("SELECT nope FROM kv"); err == nil {
		t.Fatal("bad query accepted")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPClientIngestFlush(t *testing.T) {
	srv, _ := startServer(t, 1)
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 7; i++ {
		if err := c.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewString("s")}); err != nil {
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
	if resp.Rows[0][0].Int() != 7 {
		t.Fatalf("count = %v", resp.Rows)
	}
}

// TestTCPClientPartitionedServer drives a 4-partition store end-to-end
// through the wire protocol: keyed calls route by hash, ingest splits, and
// the fanned-out COUNT re-aggregates.
func TestTCPClientPartitionedServer(t *testing.T) {
	srv, st := startServer(t, 4)
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Call("put", types.NewInt(int64(i)), types.NewString("w")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 20; i++ {
		if err := c.Ingest("feed", types.Row{types.NewInt(int64(i)), types.NewString("w")}); err != nil {
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
	if resp.Rows[0][0].Int() != 20 {
		t.Fatalf("count = %v", resp.Rows)
	}
	// The rows really are spread: at least two partitions hold data.
	used := 0
	for i := 0; i < st.NumPartitions(); i++ {
		if st.EEAt(i).Catalog().Relation("kv").Table.Count() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d partitions hold data", used)
	}
}

// TestExplainStatement: EXPLAIN is a statement the client sends through
// Query; the plan comes back as one row of one plan column.
func TestExplainStatement(t *testing.T) {
	srv, _ := startServer(t, 1)
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query("EXPLAIN SELECT v FROM kv WHERE k = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "plan" || len(resp.Rows) != 1 {
		t.Fatalf("EXPLAIN answered %v %v", resp.Columns, resp.Rows)
	}
	if plan := resp.Rows[0][0].Str(); !strings.Contains(plan, "kv") {
		t.Fatalf("plan = %q", plan)
	}
}

// TestFetchErrorsAndClose: a server's MsgError answers a fetch and keeps
// the connection; Close ends a fetch a silent peer holds, and the client
// stays closed: neither a call nor a fetch gets a connection again.
func TestFetchErrorsAndClose(t *testing.T) {
	srv, _ := startServer(t, 1)
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchBatch(0, 1<<10); err == nil || !strings.Contains(err.Error(), "durable primary") {
		t.Fatalf("fetch from a volatile store: err %v", err)
	}
	if _, err := c.Call("put", types.NewInt(1), types.NewString("a")); err != nil {
		t.Fatalf("call after an answered fetch: %v", err)
	}

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	h, err := DialTCP(silent.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	held := <-accepted
	defer held.Close()
	done := make(chan error, 1)
	go func() {
		_, err := h.FetchBatch(0, 1<<10)
		done <- err
	}()
	h.Close()
	if err := <-done; err == nil {
		t.Fatal("a fetch on a closed client succeeded")
	}
	if _, err := h.FetchBatch(0, 1<<10); err == nil {
		t.Fatal("a fetch after Close succeeded")
	}
	if _, err := h.Call("put", types.NewInt(2), types.NewString("b")); err == nil {
		t.Fatal("a call after Close succeeded")
	}
}
