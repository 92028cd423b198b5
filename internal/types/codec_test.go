package types

import (
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(-2.5), NewFloat(math.Inf(1)),
		NewString(""), NewString("hello"), NewString("O'Neil — naïve"),
		NewTimestamp(0), NewTimestamp(1 << 40),
	}
	for _, v := range vals {
		buf := EncodeValue(nil, v)
		got, rest, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("decode %v left %d bytes", v, len(rest))
		}
		if got.Type() != v.Type() || !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	// Floats round-trip by bit pattern: NaN payloads and the sign of zero.
	for _, bits := range []uint64{math.Float64bits(math.NaN()), 0xfff8000000000000, math.Float64bits(math.Copysign(0, -1))} {
		got, _, err := DecodeValue(EncodeValue(nil, NewFloat(math.Float64frombits(bits))))
		if err != nil || got.Type() != TypeFloat || math.Float64bits(got.Float()) != bits {
			t.Errorf("float %#x round trip: %v %v", bits, got, err)
		}
	}
	// The wire form of a FLOAT is its tag and its IEEE bits, little-endian.
	if got, want := EncodeValue(nil, NewFloat(2.5)), []byte{byte(TypeFloat), 0, 0, 0, 0, 0, 0, 4, 0x40}; string(got) != string(want) {
		t.Errorf("EncodeValue(2.5) = %x, want %x", got, want)
	}
}

func TestRowCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		r := make(Row, rng.Intn(8))
		for j := range r {
			r[j] = randomValue(rng)
		}
		got, rest, err := DecodeRow(EncodeRow(nil, r))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("leftover bytes")
		}
		if len(got) != len(r) {
			t.Fatalf("arity %d != %d", len(got), len(r))
		}
		for j := range r {
			// NaN compares equal under storage order.
			if r[j].Compare(got[j]) != 0 {
				t.Fatalf("row %v -> %v", r, got)
			}
		}
	}
}

func TestRowsCodec(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("a")},
		{NewInt(2), NewString("b")},
		{},
	}
	got, rest, err := DecodeRows(EncodeRows(nil, rows))
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeRows: %v rest=%d", err, len(rest))
	}
	if len(got) != 3 || !got[0].Equal(rows[0]) || !got[1].Equal(rows[1]) || len(got[2]) != 0 {
		t.Errorf("rows round trip mismatch: %v", got)
	}
}

func TestCodecCorruption(t *testing.T) {
	buf := EncodeRow(nil, Row{NewInt(5), NewString("abc")})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, _, err := DecodeValue([]byte{0xFF}); err == nil {
		t.Error("unknown tag not detected")
	}
	// Absurd arity must not allocate/loop.
	if _, _, err := DecodeRow([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("absurd arity not detected")
	}
}

// TestValueEncodingUnchanged pins the bytes EncodeValue and EncodeRows
// write for every type, so a change to Value's layout cannot move the
// command log, snapshot or wire formats: a data directory written before
// it still recovers.
func TestValueEncodingUnchanged(t *testing.T) {
	long := strings.Repeat("abc", 100)
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "00"},
		{NewBool(false), "0100"},
		{NewBool(true), "0101"},
		{NewInt(0), "0200"},
		{NewInt(-1), "0201"},
		{NewInt(300), "02d804"},
		{NewInt(math.MinInt64), "02ffffffffffffffffff01"},
		{NewInt(math.MaxInt64), "02feffffffffffffffff01"},
		{NewFloat(2.5), "030000000000000440"},
		{NewFloat(math.NaN()), "03010000000000f87f"},
		{NewFloat(math.Copysign(0, -1)), "030000000000000080"},
		{NewString(""), "0400"},
		{NewString("O'Neil — naïve"), "04114f274e65696c20e28094206e61c3af7665"},
		{NewString(long), "04ac02" + hex.EncodeToString([]byte(long))},
		{NewTimestamp(1700000000000001), "058280f28183898506"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(EncodeValue(nil, c.v)); got != c.want {
			t.Errorf("EncodeValue(%s %v) = %s, want %s", c.v.Type(), c.v, got, c.want)
		}
	}
	rows := []Row{{NewInt(7), NewString("kv"), Null, NewFloat(-1)}, {}}
	if got, want := hex.EncodeToString(EncodeRows(nil, rows)), "0204020e04026b760003000000000000f0bf00"; got != want {
		t.Errorf("EncodeRows = %s, want %s", got, want)
	}
}
