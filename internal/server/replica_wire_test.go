package server

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	f, err := core.NewFollower(fst, src, core.FollowerOpts{})
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
		f, err := core.NewFollower(durableKV(t, fdir, parts), src, core.FollowerOpts{})
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

// TestDurableFollowerAcrossPrimaryRestart stops a durable follower, stops
// its primary the way sstored does on SIGTERM (checkpoint, then stop) and
// restarts both with a short heartbeat: the checkpoint kept the record at
// its cut, so the follower checks its log against it and tails on. Then the
// follower is stopped again while the primary writes and checkpoints past
// it: restarted, it reports the gap, sticky over the wire, and never
// promotes itself while its primary serves.
func TestDurableFollowerAcrossPrimaryRestart(t *testing.T) {
	const parts = 2
	const heartbeat = 100 * time.Millisecond
	pdir, fdir := t.TempDir(), t.TempDir()
	var st *core.Store
	var srv *Server
	var pc *client.TCP
	startPrimary := func() {
		st = durableKV(t, pdir, parts)
		if err := st.Start(); err != nil {
			t.Fatal(err)
		}
		srv = New(st)
		listen(t, srv)
		var err error
		if pc, err = client.DialTCP(srv.Addr()); err != nil {
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
	var promotions atomic.Int32
	follow := func() *core.Follower {
		conn, err := client.DialTCP(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		f, err := core.NewFollower(durableKV(t, fdir, parts), conn, core.FollowerOpts{
			HeartbeatTimeout: heartbeat,
			OnPromote:        func(*core.Store, error) { promotions.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	count := func(f *core.Follower, want int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			res, err := f.Query("SELECT COUNT(*) FROM kv")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].Int(); got == want {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("follower holds %d rows, want %d", got, want)
			}
		}
	}
	startPrimary()
	put(0, 20)
	f := follow()
	count(f, 20)
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	stopPrimary()
	startPrimary()
	defer func() { pc.Close(); srv.Close(); st.Stop() }()
	f = follow()
	put(20, 30)
	count(f, 30)
	time.Sleep(3 * heartbeat)
	if err := f.Err(); err != nil || f.Promoted() || promotions.Load() != 0 {
		t.Fatalf("follower after its primary's restart: err %v, promoted %v (%d calls)", err, f.Promoted(), promotions.Load())
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
	time.Sleep(5 * heartbeat)
	err := f.Err()
	if !errors.Is(err, wal.ErrShipGap) || strings.Contains(err.Error(), "diverges") {
		t.Fatalf("follower restarted behind its primary's checkpoint: err %v, want a gap", err)
	}
	if f.Promoted() || promotions.Load() != 0 {
		t.Fatalf("follower behind a gap promoted itself (%d calls) while its primary serves", promotions.Load())
	}
}

// TestFollowerAutoPromoteOverWire kills the primary under a heartbeat-armed
// follower: the fetch failures trip auto-promotion, ClearFollower flips the
// replica server to primary dispatch, and the promoted node serves both the
// replicated history and new writes.
func TestFollowerAutoPromoteOverWire(t *testing.T) {
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
	pc.Close()

	src, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fst := durableKV(t, "", parts)
	promoted := make(chan error, 1)
	var fsrv *Server
	f, err := core.NewFollower(fst, src, core.FollowerOpts{
		HeartbeatTimeout: 100 * time.Millisecond,
		OnPromote: func(_ *core.Store, err error) {
			if err == nil {
				fsrv.ClearFollower()
			}
			promoted <- err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	fsrv = NewFollower(f)
	listen(t, fsrv)
	t.Cleanup(fsrv.Close)

	fc, err := client.DialTCP(fsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitCount(t, fc, 50)

	// Primary dies. The follower's fetches now fail until the heartbeat
	// window elapses and it takes over.
	srv.Close()
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-promoted:
		if err != nil {
			t.Fatalf("auto-promotion failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("auto-promotion never fired")
	}
	t.Cleanup(func() { f.Store().Stop() })

	// The same server (and even the same connection) now accepts writes.
	if _, err := fc.Call("put", types.NewInt(500), types.NewInt(1)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	resp, err := fc.Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 51 || resp.Rows[0][1].Int() != 51 {
		t.Fatalf("promoted state: %v", resp.Rows)
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
