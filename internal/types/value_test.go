package types

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Type() != TypeNull {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewBool(true); !v.Bool() || v.Type() != TypeBool {
		t.Errorf("NewBool(true) = %v", v)
	}
	if v := NewInt(-42); v.Int() != -42 || v.Type() != TypeInt {
		t.Errorf("NewInt(-42) = %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Type() != TypeFloat {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("hi"); v.Str() != "hi" || v.Type() != TypeString {
		t.Errorf("NewString = %v", v)
	}
	if v := NewTimestamp(123); v.Timestamp() != 123 || v.Type() != TypeTimestamp {
		t.Errorf("NewTimestamp = %v", v)
	}
	if NewInt(7).Float() != 7.0 {
		t.Error("Int should widen to Float")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { NewInt(1).Bool() },
		func() { NewBool(true).Int() },
		func() { NewString("x").Float() },
		func() { NewInt(1).Str() },
		func() { NewInt(1).Timestamp() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCompareCrossTypeNumeric(t *testing.T) {
	if NewInt(2).Compare(NewFloat(2.0)) != 0 {
		t.Error("2 should equal 2.0")
	}
	if NewInt(2).Compare(NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if NewFloat(3.5).Compare(NewInt(3)) != 1 {
		t.Error("3.5 > 3")
	}
	if Null.Compare(NewInt(math.MinInt64)) != -1 {
		t.Error("NULL sorts first")
	}
	if NewString("a").Compare(NewInt(1)) != 1 {
		t.Error("strings sort after numerics")
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]Value, 0, 200)
	for i := 0; i < 200; i++ {
		vals = append(vals, randomValue(rng))
	}
	for _, a := range vals {
		if a.Compare(a) != 0 {
			t.Fatalf("reflexivity violated for %v", a)
		}
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("antisymmetry violated for %v vs %v", a, b)
			}
			for _, c := range vals {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if NewInt(2).Hash() != NewFloat(2.0).Hash() {
		t.Error("2 and 2.0 compare equal so must hash equal")
	}
	f := func(i int64) bool {
		return NewInt(i).Hash() == NewInt(i).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: equal values hash equal for random pairs.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(rng), randomValue(rng)
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("%v == %v but hashes differ", a, b)
		}
	}
}

func TestNaNOrderingIsTotal(t *testing.T) {
	nan := NewFloat(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Error("NaN must equal itself in the storage order")
	}
	if nan.Compare(NewFloat(0)) != -1 || NewFloat(0).Compare(nan) != 1 {
		t.Error("NaN must sort before numbers")
	}
	if nan.Compare(NewFloat(math.Inf(-1))) != -1 {
		t.Error("NaN must sort before -Inf")
	}
}

// TestNaNsHashAlike: every NaN compares equal to every other, so all of
// them must hash alike, alone and inside a row — or GROUP BY, DISTINCT, IN
// sets and partition routing split one value in two.
func TestNaNsHashAlike(t *testing.T) {
	parsed, err := strconv.ParseFloat("NaN", 64)
	if err != nil {
		t.Fatal(err)
	}
	nans := []float64{
		parsed,                                   // 0x7ff8000000000001
		math.Float64frombits(0xfff8000000000000), // what x86 computes for inf - inf
		math.Float64frombits(0x7ff0000000000001), // signalling, smallest payload
		math.Float64frombits(0xffffffffffffffff),
	}
	a := NewFloat(nans[0])
	for _, f := range nans[1:] {
		b := NewFloat(f)
		if a.Compare(b) != 0 {
			t.Fatalf("NaN %#x does not compare equal to NaN %#x", math.Float64bits(f), math.Float64bits(nans[0]))
		}
		if a.Hash() != b.Hash() {
			t.Errorf("NaN %#x and NaN %#x compare equal but hash apart", math.Float64bits(f), math.Float64bits(nans[0]))
		}
		if ra, rb := (Row{NewInt(1), a}), (Row{NewInt(1), b}); !ra.Equal(rb) || ra.Hash() != rb.Hash() {
			t.Errorf("rows holding NaN %#x and NaN %#x: equal %v, hashes %#x %#x",
				math.Float64bits(f), math.Float64bits(nans[0]), ra.Equal(rb), ra.Hash(), rb.Hash())
		}
	}
	if a.Hash() == NewFloat(math.Inf(1)).Hash() || a.Hash() == NewFloat(0).Hash() {
		t.Error("NaN hashes like a number")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in      Value
		to      Type
		want    Value
		wantErr bool
	}{
		{NewInt(3), TypeFloat, NewFloat(3), false},
		{NewFloat(3), TypeInt, NewInt(3), false},
		{NewFloat(3.5), TypeInt, Null, true},
		{NewString("42"), TypeInt, NewInt(42), false},
		{NewString("4.5"), TypeFloat, NewFloat(4.5), false},
		{NewString("x"), TypeInt, Null, true},
		{NewInt(1), TypeBool, NewBool(true), false},
		{NewString("true"), TypeBool, NewBool(true), false},
		{NewInt(9), TypeTimestamp, NewTimestamp(9), false},
		{NewTimestamp(9), TypeInt, NewInt(9), false},
		{NewInt(7), TypeString, NewString("7"), false},
		{Null, TypeInt, Null, false},
	}
	for _, c := range cases {
		got, err := Coerce(c.in, c.to)
		if c.wantErr {
			if err == nil {
				t.Errorf("Coerce(%v, %v): expected error, got %v", c.in, c.to, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !got.Equal(c.want) || got.Type() != c.want.Type() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "bigint": TypeInt,
		"float": TypeFloat, "DOUBLE": TypeFloat,
		"varchar": TypeString, "TEXT": TypeString,
		"timestamp": TypeTimestamp, "BOOLEAN": TypeBool,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "true": NewBool(true), "-7": NewInt(-7),
		"2.5": NewFloat(2.5), "abc": NewString("abc"), "10us": NewTimestamp(10),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := NewString("o'neil").SQLLiteral(); got != "'o''neil'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

// randomValue draws a value covering every type class, shared across tests.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewInt(rng.Int63n(100) - 50)
	case 3:
		return NewFloat(float64(rng.Int63n(100)-50) / 2)
	case 4:
		return NewString(string(rune('a' + rng.Intn(26))))
	case 5:
		return NewTimestamp(rng.Int63n(1000))
	default:
		return NewFloat(math.NaN())
	}
}

// TestValueTwoWords checks the corners of the two-word representation:
// the empty string against NULL, strings sharing bytes, the Compare fast
// path against the rank order, and strings that only Values keep alive.
// Run it under -race too, which turns on checkptr.
func TestValueTwoWords(t *testing.T) {
	t.Run("EmptyStringIsNotNull", func(t *testing.T) {
		e := NewString("")
		if e.Type() != TypeString || e.IsNull() || e.Str() != "" {
			t.Fatalf(`NewString("") reads as %s, null %v, %q`, e.Type(), e.IsNull(), e.Str())
		}
		if e.Compare(Null) != 1 || Null.Compare(e) != -1 || e.Equal(Null) {
			t.Error(`NewString("") must sort after NULL`)
		}
		if e.Hash() == Null.Hash() {
			t.Error(`NewString("") hashes like NULL`)
		}
		if other := NewString(string([]byte{})); !e.Equal(other) || e.Hash() != other.Hash() {
			t.Error("two empty strings differ")
		}
		if e.Compare(NewString("a")) != -1 {
			t.Error(`"" must sort before "a"`)
		}
	})

	t.Run("SharedBytesCompareByContent", func(t *testing.T) {
		s := strings.Repeat("ab", 4) // built at run time: one backing array
		short, full := NewString(s[:3]), NewString(s)
		if short.p != full.p {
			t.Fatal("a prefix slice does not share its string's first byte")
		}
		if short.Compare(full) != -1 || full.Compare(short) != 1 || short.Equal(full) {
			t.Errorf("%q vs %q: %d", short, full, short.Compare(full))
		}
		if copied := NewString(string([]byte("aba"))); copied.p == short.p || !copied.Equal(short) || copied.Hash() != short.Hash() {
			t.Error("equal strings at different addresses must compare and hash alike")
		}
		if tail := NewString(s[2:]); tail.Compare(NewString("ababab")) != 0 || tail.Compare(full) != -1 {
			t.Errorf("suffix %q compares wrong", tail)
		}
	})

	t.Run("FastPathMatchesRankOrder", func(t *testing.T) {
		base := strings.Repeat("xyz", 3)
		vals := []Value{
			Null, Null, NewBool(false), NewBool(true), NewBool(true),
			NewInt(0), NewInt(2), NewInt(-3), NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1<<53 + 1),
			NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2), NewFloat(2.5), NewFloat(-3),
			NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(1 << 53),
			NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff8000000000000)),
			NewString(""), NewString(""), NewString(base), NewString(base[:1]), NewString(base[:4]),
			NewString(base[3:]), NewString(string([]byte(base))), NewString("0"), NewString("xz"),
			NewTimestamp(0), NewTimestamp(2), NewTimestamp(-3), NewTimestamp(math.MaxInt64),
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 60; i++ {
			vals = append(vals, randomValue(rng))
		}
		for _, a := range vals {
			for _, b := range vals {
				if got, want := a.Compare(b), rankCompare(a, b); got != want {
					t.Errorf("%s %v vs %s %v: Compare %d, rank order %d", a.Type(), a, b.Type(), b, got, want)
				}
			}
		}
	})

	t.Run("StringsSurviveGC", func(t *testing.T) {
		const n = 2000
		want := func(i int) string { return strconv.Itoa(i) + strings.Repeat("s", i%64) }
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = NewString(want(i)) // the Value is the only reference
		}
		for round := 0; round < 4; round++ {
			runtime.GC()
			junk := make([][]byte, n) // reuse whatever the GC freed
			for i := range junk {
				junk[i] = bytes.Repeat([]byte{'#'}, 1+i%80)
			}
			runtime.KeepAlive(junk)
		}
		for i, v := range vals {
			if v.Str() != want(i) {
				t.Fatalf("value %d reads %q after GC, want %q", i, v.Str(), want(i))
			}
		}
	})
}

// rankCompare is Compare without the same-address fast path, spelled
// through the exported accessors: the order by type class, then by value.
func rankCompare(a, b Value) int {
	if ra, rb := testRanks[a.Type()], testRanks[b.Type()]; ra != rb {
		return cmpInt(int64(ra), int64(rb))
	}
	switch a.Type() {
	case TypeNull:
		return 0
	case TypeBool:
		return cmpInt(boolInt(a.Bool()), boolInt(b.Bool()))
	case TypeString:
		return strings.Compare(a.Str(), b.Str())
	case TypeTimestamp:
		return cmpInt(a.Timestamp(), b.Timestamp())
	}
	if a.Type() == TypeInt && b.Type() == TypeInt {
		return cmpInt(a.Int(), b.Int())
	}
	return cmpFloat(a.Float(), b.Float())
}

var testRanks = map[Type]int{TypeNull: 0, TypeBool: 1, TypeInt: 2, TypeFloat: 2, TypeString: 3, TypeTimestamp: 4}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
