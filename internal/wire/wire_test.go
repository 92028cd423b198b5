package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/types"
)

func TestRequestCodec(t *testing.T) {
	reqs := []*Request{
		{Kind: MsgCall, Target: "vote", Params: types.Row{types.NewInt(1), types.NewString("x")}},
		{Kind: MsgIngest, Target: "gps", Rows: []types.Row{
			{types.NewInt(1), types.NewFloat(40.7)},
			{types.NewInt(2), types.Null},
		}},
		{Kind: MsgQuery, Target: "SELECT 1 FROM t"},
		{Kind: MsgPing},
		{Kind: MsgFlush},
	}
	for _, req := range reqs {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got.Kind != req.Kind || got.Target != req.Target ||
			len(got.Params) != len(req.Params) || len(got.Rows) != len(req.Rows) {
			t.Fatalf("round trip: %+v -> %+v", req, got)
		}
		for i := range req.Params {
			if !got.Params[i].Equal(req.Params[i]) {
				t.Fatalf("param %d", i)
			}
		}
		for i := range req.Rows {
			if !got.Rows[i].Equal(req.Rows[i]) {
				t.Fatalf("row %d", i)
			}
		}
	}
}

func TestResponseCodec(t *testing.T) {
	resps := []*Response{
		{Kind: MsgResult, Columns: []string{"a", "b"},
			Rows: []types.Row{{types.NewInt(1), types.NewString("x")}}, RowsAffected: 1},
		{Kind: MsgError, Err: "boom"},
		{Kind: MsgPong},
	}
	for _, resp := range resps {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if got.Kind != resp.Kind || got.Err != resp.Err ||
			len(got.Columns) != len(resp.Columns) || got.RowsAffected != resp.RowsAffected {
			t.Fatalf("round trip: %+v -> %+v", resp, got)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("abc"), {}, []byte("final")}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %q want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read past end")
	}
	// absurd length prefix rejected
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDecodeCorruption(t *testing.T) {
	if _, err := DecodeRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Error("empty response accepted")
	}
	good := EncodeRequest(&Request{Kind: MsgCall, Target: "p", Params: types.Row{types.NewInt(5)}})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeRequest(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// countingWriter counts the Write calls a frame costs: on a connection each
// is one write(2).
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	payloads := [][]byte{[]byte("abc"), {}, bytes.Repeat([]byte{7}, 70_000)}
	for i, p := range payloads {
		if err := WriteFrame(&w, p); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("after %d frames: %d writes, want one per frame", i+1, w.writes)
		}
	}
	r := bufio.NewReader(&w.Buffer)
	for _, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame of %d bytes read back as %d bytes", len(want), len(got))
		}
	}
}

// countingReader counts the Read calls that reach the underlying source.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameBuffered reads frames through a connection-owned
// bufio.Reader: two frames that arrived in one read cost that one read, and
// a source that yields one byte per read still reassembles every frame.
func TestReadFrameBuffered(t *testing.T) {
	payloads := [][]byte{EncodeRequest(&Request{Kind: MsgCall, Target: "vote",
		Params: types.Row{types.NewInt(1)}}), []byte("second"), {}}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	wire := stream.Bytes()

	src := &countingReader{r: bytes.NewReader(wire)}
	r := bufio.NewReader(src)
	for _, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %q want %q", got, want)
		}
	}
	if src.reads != 1 {
		t.Fatalf("three frames that arrived together cost %d reads, want 1", src.reads)
	}

	r = bufio.NewReader(iotest.OneByteReader(bytes.NewReader(wire)))
	for _, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("one byte at a time: frame %q want %q", got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want EOF", err)
	}
}

// TestCodecBytesUnchanged pins the payload encodings: framing changes how
// a payload travels, never its bytes.
func TestCodecBytesUnchanged(t *testing.T) {
	req := EncodeRequest(&Request{Kind: MsgExec, Target: "INSERT INTO pairs VALUES (?, ?, 1), (?, ?, 1)",
		Params: types.Row{types.NewInt(1 << 40), types.NewInt(1<<40 + 1), types.NewString("x"), types.Null}})
	resp := EncodeResponse(&Response{Kind: MsgResult, Columns: []string{"a", "b"},
		Rows: []types.Row{{types.NewInt(-3), types.NewFloat(2.5)}}, RowsAffected: 2})
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{{"request", req, goldenRequest}, {"response", resp, goldenResponse}} {
		if hex.EncodeToString(c.got) != c.want {
			t.Errorf("%s encodes as %x, want %s", c.name, c.got, c.want)
		}
	}
}

const (
	goldenRequest  = "0a2d494e5345525420494e544f2070616972732056414c55455320283f2c203f2c2031292c20283f2c203f2c2031290402808080808040028280808080400401780000"
	goldenResponse = "050002016101620102020503000000000000044004"
)

// TestAppendResponseFrame: a frame appended behind another reads back as
// the same bytes WriteFrame sends of the encoded payload.
func TestAppendResponseFrame(t *testing.T) {
	resps := []*Response{
		{Kind: MsgResult, Columns: []string{"a", "b"},
			Rows: []types.Row{{types.NewInt(-3), types.NewFloat(2.5)}}, RowsAffected: 2},
		{Kind: MsgError, Err: "boom"},
	}
	var want bytes.Buffer
	var got []byte
	for _, resp := range resps {
		if err := WriteFrame(&want, EncodeResponse(resp)); err != nil {
			t.Fatal(err)
		}
		got = AppendResponseFrame(got, resp)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appended frames %x, want %x", got, want.Bytes())
	}
}
