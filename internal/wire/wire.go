// Package wire defines the binary client/server protocol: length-prefixed
// frames carrying procedure calls, stream ingests, ad-hoc statements, and
// their responses. The engine is a client-server system like H-Store; the
// protocol is deliberately small — a handful of message types over TCP,
// spoken by internal/server and internal/client. Administration (EXPLAIN,
// ALTER DATAFLOW, ALTER SYSTEM PARTITIONS, ...) travels as statements in
// MsgQuery and MsgExec, not as kinds of its own.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/types"
)

// MsgKind tags a frame.
type MsgKind uint8

// Frame kinds. Each keeps its byte value on the wire, and a new kind takes
// a byte never used: 9, 12 and 13 are retired, so a frame an older client
// sends with one is answered MsgError, never taken for another kind.
const (
	MsgCall   MsgKind = 1 // procedure invocation
	MsgIngest MsgKind = 2 // stream tuple push
	MsgQuery  MsgKind = 3 // ad-hoc read-only SQL
	MsgFlush  MsgKind = 4 // flush partial border batches
	MsgResult MsgKind = 5 // success response with rows
	MsgError  MsgKind = 6 // failure response
	MsgPing   MsgKind = 7 // liveness check
	MsgPong   MsgKind = 8
	// MsgExec is an ad-hoc DML statement. On a partitioned store the
	// router runs spanning writes through the 2PC coordinator, so a remote
	// client's multi-partition statement commits atomically or not at all.
	MsgExec MsgKind = 10
	// MsgDataflows returns the SHOW DATAFLOWS listing: one row per deployed
	// graph.
	MsgDataflows MsgKind = 11
	// MsgStats asks for a metrics snapshot. The response carries one
	// name/value row per counter, so operators can watch MP commit
	// concurrency and force-batch sizes live from sstorecli.
	MsgStats MsgKind = 14
	// MsgPinSnapshot pins a session-scoped cross-partition snapshot: every
	// MsgQuery on the connection then reads the pinned cut until
	// MsgUnpinSnapshot (or disconnect) releases it. Re-pinning replaces the
	// session's pin.
	MsgPinSnapshot MsgKind = 15
	// MsgUnpinSnapshot releases the session's snapshot pin, if any.
	MsgUnpinSnapshot MsgKind = 16
	// MsgReplFetch is the replication channel: Params carry
	// [partition, afterLSN, maxBytes] and the response's first row is the
	// segment horizon [endLSN], followed by one [lsn, payload] row per
	// shipped frame. A remote follower drives its apply loop with these
	// fetches.
	MsgReplFetch MsgKind = 17
)

// MaxFrame bounds a frame to keep a corrupt length prefix from allocating
// unbounded memory.
const MaxFrame = 64 << 20

// Request is a decoded client frame.
type Request struct {
	Kind   MsgKind
	Target string // procedure, stream, or SQL text
	Params types.Row
	Rows   []types.Row
}

// Response is a decoded server frame.
type Response struct {
	Kind         MsgKind // MsgResult or MsgError
	Err          string
	Columns      []string
	Rows         []types.Row
	RowsAffected int64
}

// WriteFrame writes one length-prefixed frame in a single Write, so a frame
// sent on a connection costs one write(2): header and payload leave
// together.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	_, err := w.Write(append(frame, payload...))
	return err
}

// ReadFrame reads one length-prefixed frame and returns its payload, in
// buf when buf's capacity holds it (a connection passes the last payload
// back once it has decoded it; the decoders copy everything they keep).
// Connections read through a bufio.Reader they own, so a frame that
// arrived whole costs one read(2) for its header and payload together,
// and frames that arrived together cost one between them.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := buf[:0]
	if uint32(cap(buf)) < n {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// EncodeRequest serializes a request frame payload.
func EncodeRequest(req *Request) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(req.Kind))
	buf = appendString(buf, req.Target)
	buf = types.EncodeRow(buf, req.Params)
	buf = types.EncodeRows(buf, req.Rows)
	return buf
}

// DecodeRequest parses a request frame payload.
func DecodeRequest(payload []byte) (*Request, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	req := &Request{Kind: MsgKind(payload[0])}
	buf := payload[1:]
	var err error
	if req.Target, buf, err = readString(buf); err != nil {
		return nil, err
	}
	if req.Params, buf, err = types.DecodeRow(buf); err != nil {
		return nil, err
	}
	if req.Rows, _, err = types.DecodeRows(buf); err != nil {
		return nil, err
	}
	if len(req.Params) == 0 {
		req.Params = nil
	}
	if len(req.Rows) == 0 {
		req.Rows = nil
	}
	return req, nil
}

// EncodeResponse serializes a response frame payload.
func EncodeResponse(resp *Response) []byte { return AppendResponse(make([]byte, 0, 64), resp) }

// AppendResponseFrame appends resp to buf as one length-prefixed frame: the
// header is reserved, the payload encoded behind it and its length patched
// in, so a frame is built once, in a buffer the caller keeps, and sent with
// one Write.
func AppendResponseFrame(buf []byte, resp *Response) []byte {
	start := len(buf)
	buf = AppendResponse(append(buf, 0, 0, 0, 0), resp)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendResponse appends a response frame payload to buf.
func AppendResponse(buf []byte, resp *Response) []byte {
	buf = append(buf, byte(resp.Kind))
	buf = appendString(buf, resp.Err)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Columns)))
	for _, c := range resp.Columns {
		buf = appendString(buf, c)
	}
	buf = types.EncodeRows(buf, resp.Rows)
	buf = binary.AppendVarint(buf, resp.RowsAffected)
	return buf
}

// DecodeResponse parses a response frame payload.
func DecodeResponse(payload []byte) (*Response, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	resp := &Response{Kind: MsgKind(payload[0])}
	buf := payload[1:]
	var err error
	if resp.Err, buf, err = readString(buf); err != nil {
		return nil, err
	}
	n, c := binary.Uvarint(buf)
	if c <= 0 || n > uint64(len(buf)) {
		return nil, io.ErrUnexpectedEOF
	}
	buf = buf[c:]
	for i := uint64(0); i < n; i++ {
		var col string
		if col, buf, err = readString(buf); err != nil {
			return nil, err
		}
		resp.Columns = append(resp.Columns, col)
	}
	if resp.Rows, buf, err = types.DecodeRows(buf); err != nil {
		return nil, err
	}
	ra, c2 := binary.Varint(buf)
	if c2 <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	resp.RowsAffected = ra
	if len(resp.Rows) == 0 {
		resp.Rows = nil
	}
	return resp, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(buf[n : n+int(l)]), buf[n+int(l):], nil
}
