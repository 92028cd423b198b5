package server

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
)

// durableKV builds the replication fixture: a hash-partitioned kv table
// with a key-routed put procedure, durable when dir != "" (a follower
// store passes dir == "" and is never started).
func durableKV(t *testing.T, dir string, parts int) *core.Store {
	t.Helper()
	cfg := core.Config{Partitions: parts}
	if dir != "" {
		cfg.Dir = dir
		cfg.Sync = wal.SyncGroupCommit
	}
	st := core.Open(cfg)
	if err := st.ExecScript(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) PARTITION BY k;`); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterProcedure(&pe.Procedure{
		Name:           "put",
		WriteSet:       []string{"kv"},
		PartitionParam: 1,
		Handler: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Exec("INSERT INTO kv VALUES (?, ?)", ctx.Params[0], ctx.Params[1])
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

func listen(t *testing.T, srv *Server) {
	t.Helper()
	srv.Logf = t.Logf
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
}

// waitCount polls a COUNT(*) over the wire until it reaches want.
func waitCount(t *testing.T, c *client.TCP, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Rows[0][0].Int(); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("follower count = %d, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerOverWire runs the full second-process topology in one test:
// a durable primary behind a TCP server, a follower whose replication
// source is a TCP client of that server, and a second server fronting the
// follower for read traffic. The follower must tail continuously, reject
// every write verb, and pass the replication counters through MsgStats.
func TestFollowerOverWire(t *testing.T) {
	const parts = 2
	st := durableKV(t, t.TempDir(), parts)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	listen(t, srv)
	t.Cleanup(func() { srv.Close(); st.Stop() })

	pc, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for k := int64(0); k < 30; k++ {
		if _, err := pc.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}

	// The raw fetch surface first: frames are dense from LSN 1 and the
	// horizon row matches, so the wire framing loses nothing.
	batch, err := pc.FetchBatch(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if batch.EndLSN == 0 || uint64(len(batch.Frames)) != batch.EndLSN {
		t.Fatalf("fetch framing: %d frames, horizon %d", len(batch.Frames), batch.EndLSN)
	}
	for i, fr := range batch.Frames {
		if fr.LSN != uint64(i+1) || len(fr.Payload) == 0 {
			t.Fatalf("frame %d: lsn %d, %d payload bytes", i, fr.LSN, len(fr.Payload))
		}
	}

	// Follower fed by its own TCP connection — the sstored -follow shape.
	src, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fst := durableKV(t, "", parts)
	f, err := core.NewFollower(fst, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	fsrv := NewFollower(f)
	listen(t, fsrv)
	t.Cleanup(fsrv.Close)

	fc, err := client.DialTCP(fsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.Ping(); err != nil {
		t.Fatal(err)
	}
	waitCount(t, fc, 30)
	// Tailing is continuous, not a one-shot seed.
	for k := int64(100); k < 110; k++ {
		if _, err := pc.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, fc, 40)

	// Every mutating verb is rejected while fronting a replica.
	if _, err := fc.Call("put", types.NewInt(999), types.NewInt(1)); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica call err = %v", err)
	}
	if _, err := fc.Exec("INSERT INTO kv VALUES (999, 1)"); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica exec err = %v", err)
	}
	if err := fc.Ingest("feed", types.Row{types.NewInt(1)}); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica ingest err = %v", err)
	}

	// Stats pass through: the replication counters are visible to
	// `sstorecli stats` pointed at the replica.
	resp, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stats := make(map[string]int64)
	for _, r := range resp.Rows {
		if v, err := strconv.ParseInt(r[1].Str(), 10, 64); err == nil {
			stats[r[0].Str()] = v
		}
	}
	if stats["repl_records_applied"] < 40 {
		t.Fatalf("repl_records_applied = %d, want >= 40", stats["repl_records_applied"])
	}
	if _, ok := stats["repl_lag"]; !ok {
		t.Fatalf("stats over wire missing repl_lag: %v", stats)
	}
	if stats["follower_reads"] == 0 {
		t.Fatal("follower_reads not counted over the wire")
	}
}

// recordingSource records every afterLSN a follower asks of its source.
type recordingSource struct {
	core.ReplicationSource
	mu    sync.Mutex
	asked []uint64
}

func (r *recordingSource) FetchBatch(afterLSN uint64, maxBytes int) (core.ReplBatch, error) {
	r.mu.Lock()
	r.asked = append(r.asked, afterLSN)
	r.mu.Unlock()
	return r.ReplicationSource.FetchBatch(afterLSN, maxBytes)
}

// TestDurableFollowerRestartsOverWire stops a durable follower of a primary
// over the wire and reopens it on its directory while the primary takes
// more writes: it resumes at its log's last LSN (asking for the frame there
// first, to check it) and reaches the primary's state.
func TestDurableFollowerRestartsOverWire(t *testing.T) {
	const parts = 2
	st := durableKV(t, t.TempDir(), parts)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	listen(t, srv)
	t.Cleanup(func() { srv.Close(); st.Stop() })
	pc, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	put := func(lo, hi int64) {
		for k := lo; k < hi; k++ {
			if _, err := pc.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// follow runs a durable follower on fdir, fronted by its own server,
	// until it holds want rows.
	fdir := t.TempDir()
	follow := func(want int64) (*core.Follower, *recordingSource, *Server) {
		conn, err := client.DialTCP(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		src := &recordingSource{ReplicationSource: conn}
		f, err := core.NewFollower(durableKV(t, fdir, parts), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		fsrv := NewFollower(f)
		listen(t, fsrv)
		fc, err := client.DialTCP(fsrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		waitCount(t, fc, want)
		return f, src, fsrv
	}

	put(0, 30)
	f, _, fsrv := follow(30)
	fsrv.Close()
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	last, err := wal.ScanLog(wal.LogPath(fdir), func(uint64, []byte) error { return nil })
	if err != nil || last == 0 {
		t.Fatalf("follower log ends at LSN %d, %v", last, err)
	}
	put(30, 45)
	f, src, fsrv := follow(45)
	defer fsrv.Close()
	defer f.Stop()
	src.mu.Lock()
	defer src.mu.Unlock()
	if len(src.asked) == 0 || src.asked[0] != last-1 {
		t.Fatalf("restarted follower asked first after %v, want %d (its last LSN %d, checked)", src.asked, last-1, last)
	}
	for _, a := range src.asked[1:] {
		if a < last {
			t.Fatalf("restarted follower asked after LSN %d, behind its log's %d", a, last)
		}
	}
	sum, err := f.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows[0][0].Int() != 45 || sum.Rows[0][1].Int() != 44*45/2 {
		t.Fatalf("restarted follower holds %v, want [45 %d]", sum.Rows, 44*45/2)
	}
}

// TestDurableFollowerAcrossPrimaryRestart keeps a durable follower running
// while its primary stops the way sstored does on SIGTERM (checkpoint, then
// stop) and restarts on the same address: the follower's fetches fail, it
// re-dials, checks the frame at its position against the record the
// checkpoint kept at its cut, and tails on, never promoting itself. Then
// the follower is stopped while the primary writes and checkpoints past
// it: restarted, it reports the gap, sticky over the wire.
func TestDurableFollowerAcrossPrimaryRestart(t *testing.T) {
	const parts = 2
	pdir, fdir := t.TempDir(), t.TempDir()
	addr := "127.0.0.1:0"
	var st *core.Store
	var srv *Server
	var pc *client.TCP
	startPrimary := func() {
		st = durableKV(t, pdir, parts)
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		srv = New(st)
		srv.Logf = t.Logf
		if err := srv.Listen(addr); err != nil {
			t.Fatal(err)
		}
		addr = srv.Addr()
		var err error
		if pc, err = client.DialTCP(addr); err != nil {
			t.Fatal(err)
		}
	}
	stopPrimary := func() {
		pc.Close()
		srv.Close()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	put := func(lo, hi int64) {
		for k := lo; k < hi; k++ {
			if _, err := pc.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	follow := func() *core.Follower {
		conn, err := client.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		f, err := core.NewFollower(durableKV(t, fdir, parts), conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	startPrimary()
	put(0, 20)
	f := follow()
	waitApplied(t, f, st.LSN())
	stopPrimary()
	startPrimary()
	defer func() { pc.Close(); srv.Close(); st.Stop() }()
	put(20, 30)
	waitApplied(t, f, st.LSN())
	if n := statValue(t, f.Store(), "repl_fetch_errors"); n < 1 {
		t.Fatalf("repl_fetch_errors = %d across its primary's restart, want >= 1", n)
	}
	res, err := f.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 30 || res.Rows[0][1].Int() != 29*30/2 {
		t.Fatalf("follower across its primary's restart holds %v, want [30 %d]", res.Rows, 29*30/2)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	put(30, 40)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f = follow()
	defer f.Stop()
	err = waitErr(t, f)
	if !errors.Is(err, wal.ErrShipGap) || strings.Contains(err.Error(), "diverges") {
		t.Fatalf("follower restarted behind its primary's checkpoint: err %v, want a gap", err)
	}
	if f.Promoted() {
		t.Fatal("follower behind a gap promoted itself while its primary serves")
	}
}

// waitApplied waits until f has applied the log up to lsn, with its
// error nil all along; the deadline only bounds a failure.
func waitApplied(t *testing.T, f *core.Follower, lsn uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); f.Applied() < lsn; time.Sleep(time.Millisecond) {
		if err := f.Err(); err != nil {
			t.Fatalf("follower at LSN %d of %d: %v", f.Applied(), lsn, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower at LSN %d, want %d", f.Applied(), lsn)
		}
	}
	if f.Promoted() {
		t.Fatal("follower promoted itself")
	}
}

// waitErr waits until f reports its sticky error and returns it.
func waitErr(t *testing.T, f *core.Follower) error {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); f.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower at LSN %d reports no error", f.Applied())
		}
	}
	return f.Err()
}

// statValue reads one integer row of a store's stats.
func statValue(t *testing.T, st *core.Store, name string) int64 {
	t.Helper()
	for _, r := range st.StatsResult().Rows {
		if r[0].Str() == name {
			v, err := strconv.ParseInt(r[1].Str(), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no stats row %s", name)
	return 0
}

// TestFollowerPromotesByStatementOverWire kills the primary under a
// follower, which goes on re-dialing and never promotes itself. ALTER
// SYSTEM PROMOTE sent to the follower's server promotes it, and the same
// connection then takes writes and reads the replicated history with them.
func TestFollowerPromotesByStatementOverWire(t *testing.T) {
	const parts = 2
	st := durableKV(t, t.TempDir(), parts)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	listen(t, srv)

	pc, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if _, err := pc.Call("put", types.NewInt(k), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Exec("ALTER SYSTEM PROMOTE"); err == nil || !strings.Contains(err.Error(), "is a primary") {
		t.Fatalf("ALTER SYSTEM PROMOTE on the primary: err %v", err)
	}
	pc.Close()

	src, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	f, err := core.NewFollower(durableKV(t, "", parts), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	fsrv := NewFollower(f)
	listen(t, fsrv)
	t.Cleanup(fsrv.Close)

	fc, err := client.DialTCP(fsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitCount(t, fc, 50)
	if _, err := fc.Exec("ALTER SYSTEM PARTITIONS 4"); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("another system statement on the follower: err %v", err)
	}

	// The primary dies. The follower's fetches fail, and it waits for the
	// operator.
	lsn := st.LSN()
	srv.Close()
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); statValue(t, f.Store(), "repl_fetch_errors") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower's fetches from a dead primary never failed")
		}
	}
	if f.Promoted() || f.Err() != nil {
		t.Fatalf("follower of a dead primary: promoted %v, err %v", f.Promoted(), f.Err())
	}
	resp, err := fc.Exec("ALTER SYSTEM PROMOTE")
	if err != nil {
		t.Fatalf("ALTER SYSTEM PROMOTE: %v", err)
	}
	if !f.Promoted() || resp.Rows[0][0].Int() != int64(lsn) {
		t.Fatalf("promoted %v at LSN %v, want LSN %d", f.Promoted(), resp.Rows, lsn)
	}
	t.Cleanup(func() { f.Store().Stop() })

	// The same connection now accepts writes.
	if _, err := fc.Call("put", types.NewInt(500), types.NewInt(1)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	resp, err = fc.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 51 || resp.Rows[0][1].Int() != 51 {
		t.Fatalf("promoted state: %v", resp.Rows)
	}
	if _, err := fc.Query("ALTER SYSTEM PROMOTE"); err == nil || !strings.Contains(err.Error(), "already promoted") {
		t.Fatalf("ALTER SYSTEM PROMOTE on the promoted node: err %v", err)
	}
}

// TestSnapshotPinOverWire covers the session-pin protocol frames: a pinned
// connection reads one stable cut while other sessions write and read
// fresh state, unpin resumes fresh reads, and a dropped connection releases
// its pin server-side (the serve loop's deferred session close).
func TestSnapshotPinOverWire(t *testing.T) {
	srv, _ := newServer(t)
	c1, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	for k := int64(0); k < 10; k++ {
		if _, err := c2.Call("put", types.NewInt(k), types.NewString("a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.PinSnapshot(); err != nil {
		t.Fatal(err)
	}
	for k := int64(100); k < 110; k++ {
		if _, err := c2.Call("put", types.NewInt(k), types.NewString("b")); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned session holds its cut across repeated reads; the unpinned
	// session sees the writes land.
	for i := 0; i < 3; i++ {
		resp, err := c1.Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if n := resp.Rows[0][0].Int(); n != 10 {
			t.Fatalf("pinned session count = %d, want 10", n)
		}
	}
	resp, err := c2.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 20 {
		t.Fatalf("unpinned session count = %d, want 20", n)
	}
	if err := c1.UnpinSnapshot(); err != nil {
		t.Fatal(err)
	}
	resp, err = c1.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 20 {
		t.Fatalf("post-unpin count = %d, want 20", n)
	}

	// Re-pin replaces the cut rather than stacking pins, and dropping the
	// connection releases the pin without leaking it (the server keeps
	// accepting; a fresh session reads latest state).
	if err := c1.PinSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c1.PinSnapshot(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c3, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	resp, err = c3.Query("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Rows[0][0].Int(); n != 20 {
		t.Fatalf("fresh session after pinned disconnect: %d rows", n)
	}
}
