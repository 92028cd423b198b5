// Package server exposes a Store over TCP using the wire protocol. Each
// connection is served by one goroutine that decodes frames, dispatches to
// the partition engine, and streams responses back in request order —
// clients may pipeline.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wire"
)

// Server accepts wire-protocol connections for a Store.
type Server struct {
	st *core.Store
	ln net.Listener

	// fol, when set and not yet promoted, puts the server in read-replica
	// mode: queries are served by the follower, writes are rejected.
	fol *core.Follower

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// session is one connection's server-side state. Each connection gets its
// own; the serving goroutine is the only accessor.
type session struct {
	pin *core.SnapshotPin // session snapshot pin (MsgPinSnapshot), if held
	rs  *core.ReplicaSession
}

func (sess *session) close() {
	if sess.pin != nil {
		sess.pin.Release()
		sess.pin = nil
	}
}

// New creates a server for the store (which must already be Started).
func New(st *core.Store) *Server {
	return &Server{st: st, conns: make(map[net.Conn]struct{}), Logf: log.Printf}
}

// NewFollower creates a server in read-replica mode: reads are served by
// the follower's replayed state, and writes are rejected until ALTER
// SYSTEM PROMOTE (or Follower.Promote) promotes it. Then live connections
// get full primary dispatch of the promoted store.
func NewFollower(f *core.Follower) *Server {
	s := New(f.Store())
	s.fol = f
	return s
}

// Listen binds addr (e.g. "127.0.0.1:7477") and begins accepting.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting and closes every connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	sess := &session{}
	defer s.wg.Done()
	defer func() {
		sess.close() // a dropped connection must not leak its snapshot pin
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// Frames are read through a buffer the connection owns: a request's
	// header and payload, and requests a client pipelined, arrive in one
	// read(2). Each request's payload lands in a buffer the connection
	// keeps (frame; the decoded request holds no byte of it), and each
	// response is built as a whole frame, header reserved, in another (out)
	// and leaves in one write(2).
	in := bufio.NewReader(conn)
	var frame, out []byte
	for {
		payload, err := wire.ReadFrame(in, frame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.Logf("server: read: %v", err)
			}
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			s.Logf("server: bad frame: %v", err)
			return
		}
		out = wire.AppendResponseFrame(out[:0], s.dispatch(req, sess))
		if _, err := conn.Write(out); err != nil {
			s.Logf("server: write: %v", err)
			return
		}
		// One large ingest batch or scan does not keep its size for the
		// connection's life.
		frame = payload
		if cap(frame) > respRetain {
			frame = nil
		}
		if cap(out) > respRetain {
			out = nil
		}
	}
}

// respRetain is the largest request or response buffer a connection keeps
// between requests.
const respRetain = 64 << 10

func (s *Server) dispatch(req *wire.Request, sess *session) *wire.Response {
	if f := s.fol; f != nil && !f.Promoted() {
		// A read replica: reads (with per-connection session ordering)
		// and ALTER SYSTEM PROMOTE go to the follower, liveness and stats
		// pass, and everything that would mutate state is rejected.
		switch req.Kind {
		case wire.MsgQuery, wire.MsgExec:
			if sess.rs == nil {
				sess.rs = f.Session()
			}
			return result(sess.rs.Query(req.Target, req.Params...))
		case wire.MsgPing, wire.MsgStats:
		default:
			return fail(errors.New("server: this node is a read-only replica (follower mode)"))
		}
	}
	switch req.Kind {
	case wire.MsgPing:
		return &wire.Response{Kind: wire.MsgPong}
	case wire.MsgCall:
		return result(s.st.Call(req.Target, req.Params...))
	case wire.MsgIngest:
		if err := s.st.Ingest(req.Target, req.Rows...); err != nil {
			return fail(err)
		}
		return &wire.Response{Kind: wire.MsgResult, RowsAffected: int64(len(req.Rows))}
	case wire.MsgQuery:
		if sess.pin != nil {
			return result(s.st.QueryPinned(sess.pin, req.Target, req.Params...))
		}
		return result(s.st.Query(req.Target, req.Params...))
	case wire.MsgExec:
		return result(s.st.Exec(req.Target, req.Params...))
	case wire.MsgFlush:
		s.st.FlushBatches()
		s.st.Drain()
		return &wire.Response{Kind: wire.MsgResult}
	case wire.MsgDataflows:
		return result(s.st.DataflowsResult(), nil)
	case wire.MsgStats:
		return result(s.st.StatsResult(), nil)
	case wire.MsgPinSnapshot:
		if sess.pin != nil {
			sess.pin.Release() // re-pin replaces the session's cut
		}
		sess.pin = s.st.PinSnapshot()
		return &wire.Response{Kind: wire.MsgResult}
	case wire.MsgUnpinSnapshot:
		if sess.pin != nil {
			sess.pin.Release()
			sess.pin = nil
		}
		return &wire.Response{Kind: wire.MsgResult}
	case wire.MsgReplFetch:
		return s.replFetch(req)
	default:
		return fail(fmt.Errorf("server: unknown message kind %d", req.Kind))
	}
}

// result turns an engine result into its response: the rows as MsgResult,
// or err as MsgError.
func result(res *pe.Result, err error) *wire.Response {
	if err != nil {
		return fail(err)
	}
	return &wire.Response{Kind: wire.MsgResult, Columns: res.Columns,
		Rows: res.Rows, RowsAffected: int64(res.RowsAffected)}
}

func fail(err error) *wire.Response {
	return &wire.Response{Kind: wire.MsgError, Err: err.Error()}
}

// replFetch answers one replication fetch: Params = [afterLSN, maxBytes],
// both BIGINT; the response's first row is the log's horizon, then one
// [lsn, payload] row per frame (payloads travel as strings — Go strings
// carry arbitrary bytes).
func (s *Server) replFetch(req *wire.Request) *wire.Response {
	if len(req.Params) != 2 || req.Params[0].Type() != types.TypeInt || req.Params[1].Type() != types.TypeInt {
		return fail(errors.New("server: repl fetch needs BIGINT [afterLSN, maxBytes] parameters"))
	}
	batch, err := s.st.FetchBatch(uint64(req.Params[0].Int()), int(req.Params[1].Int()))
	if err != nil {
		return fail(err)
	}
	rows := make([]types.Row, 0, len(batch.Frames)+1)
	rows = append(rows, types.Row{types.NewInt(int64(batch.EndLSN))})
	for _, fr := range batch.Frames {
		rows = append(rows, types.Row{types.NewInt(int64(fr.LSN)), types.NewString(string(fr.Payload))})
	}
	return &wire.Response{Kind: wire.MsgResult, Columns: []string{"lsn", "payload"},
		Rows: rows, RowsAffected: int64(len(batch.Frames))}
}
