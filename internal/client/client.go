// Package client is the TCP client for the wire protocol. Administration
// is a statement sent through Query or Exec (EXPLAIN <statement>, EXPLAIN
// DATAFLOW <name>, ALTER DATAFLOW <name> PAUSE|RESUME, ALTER SYSTEM
// PARTITIONS <n>, ...), not a method of its own.
package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

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
	payload, err := wire.ReadFrame(c.in, nil)
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

// Call invokes a stored procedure.
func (c *TCP) Call(proc string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgCall, Target: proc, Params: params})
}

// Ingest pushes tuples onto a border stream.
func (c *TCP) Ingest(stream string, rows ...types.Row) error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgIngest, Target: stream, Rows: rows})
	return err
}

// Query runs an ad-hoc read-only query, or a system statement.
func (c *TCP) Query(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgQuery, Target: sqlText, Params: params})
}

// Exec runs an ad-hoc DML statement as its own transaction on the server.
// Multi-partition statements execute atomically through the server's 2PC
// coordinator.
func (c *TCP) Exec(sqlText string, params ...types.Value) (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgExec, Target: sqlText, Params: params})
}

// Flush dispatches partial border batches and waits for quiescence.
func (c *TCP) Flush() error {
	_, err := c.roundTrip(&wire.Request{Kind: wire.MsgFlush})
	return err
}

// Dataflows returns the server's SHOW DATAFLOWS listing: one row per
// deployed graph with its shape, lifecycle state, and counters.
func (c *TCP) Dataflows() (*wire.Response, error) {
	return c.roundTrip(&wire.Request{Kind: wire.MsgDataflows})
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

// Close closes the connection; the server releases its session pin.
func (c *TCP) Close() error { return c.conn.Close() }

var _ core.ReplicationSource = (*TCP)(nil)
