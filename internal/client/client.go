// Package client provides the two client transports: a TCP client for the
// wire protocol and an in-process loopback with a configurable simulated
// round-trip time. The loopback is what the round-trip experiments (E2,
// E3) run on: it charges exactly one RTT per client→PE interaction, making
// the cost of polling and per-stage invocation measurable without network
// noise (see DESIGN.md §1.5 on this substitution).
package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Conn is the client interface shared by both transports.
type Conn interface {
	// Call invokes a stored procedure.
	Call(proc string, params ...types.Value) (*wire.Response, error)
	// Ingest pushes tuples onto a border stream.
	Ingest(stream string, rows ...types.Row) error
	// Query runs ad-hoc read-only SQL.
	Query(sqlText string, params ...types.Value) (*wire.Response, error)
	// Flush dispatches partial border batches and waits for quiescence.
	Flush() error
	// Close releases the connection.
	Close() error
}

// ---------- TCP transport ----------

// TCP is a synchronous wire-protocol client; one request in flight per
// connection (open several connections to pipeline).
type TCP struct {
	mu   sync.Mutex
	conn net.Conn
	// in buffers the connection's reads: a response's header and payload
	// arrive in one read(2).
	in *bufio.Reader
}

// DialTCP connects to a server address.
func DialTCP(addr string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return &TCP{conn: conn, in: bufio.NewReader(conn)}, nil
}

func (c *TCP) roundTrip(req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := wire.WriteFrame(c.conn, wire.EncodeRequest(req)); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(c.in)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.MsgError {
		return resp, fmt.Errorf("server: %s", resp.Err)
	}
	return resp, nil
}

// Call implements Conn.
func (c *TCP) Call(proc string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgCall, Target: proc, Params: params})
}

// Ingest implements Conn.
func (c *TCP) Ingest(stream string, rows ...types.Row) error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgIngest, Target: stream, Rows: rows})
	return err
}

// Query implements Conn.
func (c *TCP) Query(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgQuery, Target: sqlText, Params: params})
}

// Exec runs an ad-hoc DML statement as its own transaction on the server.
// Multi-partition statements execute atomically through the server's 2PC
// coordinator.
func (c *TCP) Exec(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgExec, Target: sqlText, Params: params})
}

// Flush implements Conn.
func (c *TCP) Flush() error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgFlush})
	return err
}

// Explain returns the server's plan description for a statement.
func (c *TCP) Explain(sqlText string) (string, error) {
	resp, err := c.roundTrip(&wire.Request{Kind: wire.MsgExplain, Target: sqlText})
	if err != nil {
		return "", err
	}
	if len(resp.Rows) == 0 {
		return "", fmt.Errorf("client: empty explain response")
	}
	return resp.Rows[0][0].Str(), nil
}

// Dataflows returns the server's SHOW DATAFLOWS listing: one row per
// deployed graph with its shape, lifecycle state, and counters.
func (c *TCP) Dataflows() (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgDataflows})
}

// ExplainDataflow returns the server's rendering of a deployed dataflow
// graph (nodes, edges, border/interior classification, constraints).
func (c *TCP) ExplainDataflow(name string) (string, error) {
	resp, err := c.roundTrip(&wire.Request{Kind: wire.MsgDataflows, Target: name})
	if err != nil {
		return "", err
	}
	if len(resp.Rows) == 0 {
		return "", fmt.Errorf("client: empty dataflow response")
	}
	return resp.Rows[0][0].Str(), nil
}

// PauseDataflow pauses the named dataflow on the server (drain semantics;
// see core.Store.PauseDataflow).
func (c *TCP) PauseDataflow(name string) error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgDataflowCtl, Target: name,
		Params: types.Row{types.NewString("pause")}})
	return err
}

// ResumeDataflow resumes the named dataflow on the server.
func (c *TCP) ResumeDataflow(name string) error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgDataflowCtl, Target: name,
		Params: types.Row{types.NewString("resume")}})
	return err
}

// Rebalance grows the server to target partitions, migrating hash slots
// live (a no-op if the server already has that many; shrinking errors).
// Returns the server's partition count after the rebalance.
func (c *TCP) Rebalance(target int) (int, error) {
	resp, err := c.roundTrip(&wire.Request{Kind: wire.MsgAdmin, Target: "partitions",
		Params: types.Row{types.NewInt(int64(target))}})
	if err != nil {
		return 0, err
	}
	if len(resp.Rows) == 0 {
		return 0, fmt.Errorf("client: empty rebalance response")
	}
	return int(resp.Rows[0][0].Int()), nil
}

// Stats fetches a metrics snapshot as metric/value rows (MP commit
// concurrency, force-batch sizes, latency quantiles, ...).
func (c *TCP) Stats() (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgStats})
}

// PinSnapshot pins a session-scoped snapshot on the server: subsequent
// Query calls on this connection read the pinned consistent cut until
// UnpinSnapshot (or Close) releases it. Re-pinning replaces the cut.
func (c *TCP) PinSnapshot() error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgPinSnapshot})
	return err
}

// UnpinSnapshot releases this connection's snapshot pin, if any.
func (c *TCP) UnpinSnapshot() error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgUnpinSnapshot})
	return err
}

// FetchBatch implements core.ReplicationSource over the wire: a follower
// sstored drives its apply loop with these fetches against the primary.
func (c *TCP) FetchBatch(part int, afterLSN uint64, maxBytes int) (core.ReplBatch, error) {
	resp, err := c.roundTrip(&wire.Request{Kind: wire.MsgReplFetch, Params: types.Row{
		types.NewInt(int64(part)), types.NewInt(int64(afterLSN)), types.NewInt(int64(maxBytes)),
	}})
	if err != nil && resp != nil {
		if rest, gap := strings.CutPrefix(resp.Err, wal.ErrShipGap.Error()); gap {
			err = fmt.Errorf("server: %w%s", wal.ErrShipGap, rest) // never taken for the primary being down
		}
	}
	if err != nil {
		return core.ReplBatch{}, err
	}
	if len(resp.Rows) == 0 {
		return core.ReplBatch{}, fmt.Errorf("client: repl fetch response missing horizon row")
	}
	batch := core.ReplBatch{EndLSN: uint64(resp.Rows[0][0].Int())}
	for _, row := range resp.Rows[1:] {
		if len(row) != 2 {
			return core.ReplBatch{}, fmt.Errorf("client: malformed repl frame row")
		}
		batch.Frames = append(batch.Frames, wal.Frame{
			LSN:     uint64(row[0].Int()),
			Payload: []byte(row[1].Str()),
		})
	}
	return batch, nil
}

// Ping checks liveness.
func (c *TCP) Ping() error {
	resp, err := c.roundTrip(&wire.Request{Kind: wire.MsgPing})
	if err != nil {
		return err
	}
	if resp.Kind != wire.MsgPong {
		return fmt.Errorf("client: unexpected response kind %d", resp.Kind)
	}
	return nil
}

// Close implements Conn.
func (c *TCP) Close() error { return c.conn.Close() }

// ---------- loopback transport with simulated RTT ----------

// Loopback calls the store in-process, sleeping RTT per interaction. With
// RTT 0 it measures pure engine cost; with a realistic RTT it shows how
// the baseline's extra round trips dominate (the paper's §3.1 argument).
type Loopback struct {
	St  *core.Store
	RTT time.Duration

	pinMu sync.Mutex
	pin   *core.SnapshotPin // session pin, mirroring the TCP session state
}

func (c *Loopback) charge() {
	if c.RTT > 0 {
		time.Sleep(c.RTT)
	}
}

// Call implements Conn.
func (c *Loopback) Call(proc string, params ...types.Value) (*wire.Response, error) {
	c.charge()
	res, err := c.St.Call(proc, params...)
	if err != nil {
		return &wire.Response{Kind: wire.MsgError, Err: err.Error()}, err
	}
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
		Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}, nil
}

// Ingest implements Conn.
func (c *Loopback) Ingest(stream string, rows ...types.Row) error {
	c.charge()
	return c.St.Ingest(stream, rows...)
}

// Query implements Conn. With a session pin held (PinSnapshot) the query
// reads the pinned cut, like a pinned TCP session.
func (c *Loopback) Query(sqlText string, params ...types.Value) (*wire.Response, error) {
	c.charge()
	c.pinMu.Lock()
	pin := c.pin
	c.pinMu.Unlock()
	var res *pe.Result
	var err error
	if pin != nil {
		res, err = c.St.QueryPinned(pin, sqlText, params...)
	} else {
		res, err = c.St.Query(sqlText, params...)
	}
	if err != nil {
		return &wire.Response{Kind: wire.MsgError, Err: err.Error()}, err
	}
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
		Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}, nil
}

// PinSnapshot mirrors TCP.PinSnapshot: queries on this Loopback read one
// pinned cut until UnpinSnapshot or Close.
func (c *Loopback) PinSnapshot() error {
	c.charge()
	pin := c.St.PinSnapshot()
	c.pinMu.Lock()
	if c.pin != nil {
		c.pin.Release()
	}
	c.pin = pin
	c.pinMu.Unlock()
	return nil
}

// UnpinSnapshot mirrors TCP.UnpinSnapshot.
func (c *Loopback) UnpinSnapshot() error {
	c.charge()
	c.pinMu.Lock()
	if c.pin != nil {
		c.pin.Release()
		c.pin = nil
	}
	c.pinMu.Unlock()
	return nil
}

// FetchBatch mirrors TCP.FetchBatch: Loopback also satisfies
// core.ReplicationSource for in-process wiring through the client API.
func (c *Loopback) FetchBatch(part int, afterLSN uint64, maxBytes int) (core.ReplBatch, error) {
	return c.St.ReplicationBatch(part, afterLSN, maxBytes)
}

// Exec mirrors TCP.Exec: an ad-hoc DML statement, atomic across
// partitions via the store's coordinator when it spans them.
func (c *Loopback) Exec(sqlText string, params ...types.Value) (*wire.Response, error) {
	c.charge()
	res, err := c.St.Exec(sqlText, params...)
	if err != nil {
		return &wire.Response{Kind: wire.MsgError, Err: err.Error()}, err
	}
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
		Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}, nil
}

// Dataflows mirrors TCP.Dataflows over the in-process store.
func (c *Loopback) Dataflows() (*wire.Response, error) {
	c.charge()
	res := c.St.DataflowsResult()
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns, Rows: res.Rows}, nil
}

// ExplainDataflow mirrors TCP.ExplainDataflow.
func (c *Loopback) ExplainDataflow(name string) (string, error) {
	c.charge()
	return c.St.ExplainDataflow(name)
}

// PauseDataflow mirrors TCP.PauseDataflow.
func (c *Loopback) PauseDataflow(name string) error {
	c.charge()
	return c.St.PauseDataflow(name)
}

// ResumeDataflow mirrors TCP.ResumeDataflow.
func (c *Loopback) ResumeDataflow(name string) error {
	c.charge()
	return c.St.ResumeDataflow(name)
}

// Rebalance mirrors TCP.Rebalance over the in-process store.
func (c *Loopback) Rebalance(target int) (int, error) {
	c.charge()
	if err := c.St.Rebalance(target); err != nil {
		return 0, err
	}
	return c.St.NumPartitions(), nil
}

// Stats mirrors TCP.Stats over the in-process store.
func (c *Loopback) Stats() (*wire.Response, error) {
	c.charge()
	res := c.St.StatsResult()
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
		Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}, nil
}

// Flush implements Conn.
func (c *Loopback) Flush() error {
	c.charge()
	c.St.FlushBatches()
	c.St.Drain()
	return nil
}

// Close implements Conn (releases the session pin, like a disconnect; no
// RTT charge — teardown is not a measured interaction).
func (c *Loopback) Close() error {
	c.pinMu.Lock()
	if c.pin != nil {
		c.pin.Release()
		c.pin = nil
	}
	c.pinMu.Unlock()
	return nil
}

var (
	_ Conn                   = (*TCP)(nil)
	_ Conn                   = (*Loopback)(nil)
	_ core.ReplicationSource = (*TCP)(nil)
	_ core.ReplicationSource = (*Loopback)(nil)
)
