// Package types defines the SQL value system shared by every layer of the
// engine: typed scalar values, rows, schemas, and the comparison/hashing
// semantics that storage, execution, and the wire protocol all agree on.
package types

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Type identifies the SQL type of a Value.
type Type uint8

// The SQL types supported by the engine.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt   // 64-bit signed integer (covers INT and BIGINT)
	TypeFloat // 64-bit IEEE float (DOUBLE)
	TypeString
	TypeTimestamp // microseconds since the Unix epoch, timezone-free
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeTimestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name to a Type. It accepts the usual synonyms
// (INT, INTEGER, BIGINT, DOUBLE, REAL, TEXT, ...).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR":
		return TypeString, nil
	case "TIMESTAMP", "DATETIME":
		return TypeTimestamp, nil
	default:
		return TypeNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a compact tagged union holding one SQL scalar in two words.
// The zero Value is SQL NULL. Values are immutable; all methods are safe
// for concurrent use.
//
// p says how to read w. A VARCHAR's p points at its bytes and w is its
// length. Any other non-NULL value's p is the address of its type's entry
// in tags and w is its payload: 0/1 for a BOOLEAN, the integer for a
// BIGINT or TIMESTAMP, the IEEE bits for a FLOAT. The empty string takes
// its tag too, so "" is not NULL. NULL is p == nil.
//
// A string is held by address, so reflect.DeepEqual and %#v see where its
// bytes live, not what they say: compare Values with Equal or Compare.
type Value struct {
	p unsafe.Pointer
	w uint64
}

// tags gives each type an address a Value can point at: tags[t] == t, so
// a tag's offset in the array is its type.
var tags = [...]Type{TypeNull, TypeBool, TypeInt, TypeFloat, TypeString, TypeTimestamp}

// Value is 16 bytes: every stored row, index key, parameter and result row
// is an array of them (DESIGN.md §1.6). Either line stops the build if
// the size moves.
var (
	_ [unsafe.Sizeof(Value{}) - 16]struct{}
	_ [16 - unsafe.Sizeof(Value{})]struct{}
)

// tagged returns a non-string value of type t with payload w.
func tagged(t Type, w uint64) Value { return Value{p: unsafe.Pointer(&tags[t]), w: w} }

// typ, i and s are the representation's three readers: the type, the
// payload word as an integer, and a VARCHAR's bytes.
func (v Value) typ() Type {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Type(d)
	}
	if v.p == nil {
		return TypeNull
	}
	return TypeString
}

func (v Value) i() int64 { return int64(v.w) }

// s is meaningful for a VARCHAR only; the empty string's tag is read with
// length 0.
func (v Value) s() string { return unsafe.String((*byte)(v.p), v.w) }

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	var w uint64
	if b {
		w = 1
	}
	return tagged(TypeBool, w)
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return tagged(TypeInt, uint64(i)) }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return tagged(TypeFloat, math.Float64bits(f)) }

// NewString returns a VARCHAR value. It keeps s's bytes, not a copy.
func NewString(s string) Value {
	if s == "" {
		return tagged(TypeString, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), w: uint64(len(s))}
}

// NewTimestamp returns a TIMESTAMP value from microseconds since the epoch.
func NewTimestamp(usec int64) Value { return tagged(TypeTimestamp, uint64(usec)) }

// Type reports the value's SQL type.
func (v Value) Type() Type { return v.typ() }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Bool returns the boolean payload. It panics if the value is not a BOOLEAN.
func (v Value) Bool() bool {
	if t := v.typ(); t != TypeBool {
		panic(fmt.Sprintf("types: Bool() on %s value", t))
	}
	return v.w != 0
}

// Int returns the integer payload. It panics unless the value is a BIGINT
// or TIMESTAMP.
func (v Value) Int() int64 {
	if t := v.typ(); t != TypeInt && t != TypeTimestamp {
		panic(fmt.Sprintf("types: Int() on %s value", t))
	}
	return v.i()
}

// Float returns the float payload, widening BIGINT if necessary. It panics
// on non-numeric values.
func (v Value) Float() float64 {
	switch t := v.typ(); t {
	case TypeFloat:
		return v.f()
	case TypeInt, TypeTimestamp:
		return float64(v.i())
	default:
		panic(fmt.Sprintf("types: Float() on %s value", t))
	}
}

// f returns a FLOAT's payload; meaningless for any other type.
func (v Value) f() float64 { return math.Float64frombits(v.w) }

// Str returns the string payload. It panics if the value is not a VARCHAR.
func (v Value) Str() string {
	if t := v.typ(); t != TypeString {
		panic(fmt.Sprintf("types: Str() on %s value", t))
	}
	return v.s()
}

// Timestamp returns the timestamp payload in microseconds since the epoch.
func (v Value) Timestamp() int64 {
	if t := v.typ(); t != TypeTimestamp {
		panic(fmt.Sprintf("types: Timestamp() on %s value", t))
	}
	return v.i()
}

// IsNumeric reports whether the value is BIGINT or FLOAT.
func (v Value) IsNumeric() bool {
	t := v.typ()
	return t == TypeInt || t == TypeFloat
}

// IsTrue reports whether the value is the boolean TRUE. NULL is not true.
func (v Value) IsTrue() bool { return v.typ() == TypeBool && v.w != 0 }

// String renders the value as it would appear in query output.
func (v Value) String() string {
	switch t := v.typ(); t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(v.i(), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeString:
		return v.s()
	case TypeTimestamp:
		return strconv.FormatInt(v.i(), 10) + "us"
	default:
		return fmt.Sprintf("Value(%d)", uint8(t))
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQLLiteral() string {
	if v.typ() == TypeString {
		return "'" + strings.ReplaceAll(v.s(), "'", "''") + "'"
	}
	return v.String()
}

// Compare defines the total order used by indexes and ORDER BY:
// NULL < BOOL < numerics < VARCHAR < TIMESTAMP, with BIGINT and FLOAT
// comparing by numeric value. It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.p == o.p {
		// One tag (or both NULL, w 0), or two strings starting at the same
		// byte, where the shorter is a prefix of the longer.
		if v.p == unsafe.Pointer(&tags[TypeFloat]) {
			return cmpFloat(v.f(), o.f())
		}
		return cmpInt(v.i(), o.i())
	}
	vt, ot := v.typ(), o.typ()
	if vr, or := rank(vt), rank(ot); vr != or {
		return cmpInt(int64(vr), int64(or))
	}
	// One rank, two addresses: two strings, or a BIGINT and a FLOAT.
	switch vt {
	case TypeString:
		return strings.Compare(v.s(), o.s())
	case TypeInt:
		return cmpFloat(float64(v.i()), o.f())
	default:
		return cmpFloat(v.f(), float64(o.i()))
	}
}

// rank groups types into comparison classes; BIGINT and FLOAT share a class.
func rank(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeBool:
		return 1
	case TypeInt, TypeFloat:
		return 2
	case TypeString:
		return 3
	default:
		return 4
	}
}

// Equal reports whether two values compare equal (NULL equals NULL here;
// SQL three-valued logic is applied by the expression evaluator, not by
// storage).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs sort before everything else so the order stays total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

var hashSeed = maphash.MakeSeed()

// canonicalNaN is the bits every NaN hashes as: Compare makes all NaNs
// equal, whatever their sign and payload (strconv's is 0x7ff8…01, an
// arithmetic inf − inf 0xfff8…00).
var canonicalNaN = math.Float64bits(math.NaN())

// Hash returns a hash consistent with Compare: values that compare equal
// hash equal (in particular BIGINT 2 and FLOAT 2.0, and any two NaNs).
func (v Value) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch v.typ() {
	case TypeNull:
		h.WriteByte(0)
	case TypeBool:
		h.WriteByte(1)
		h.WriteByte(byte(v.w))
	case TypeInt, TypeFloat:
		// Hash the float64 representation so 2 and 2.0 collide.
		h.WriteByte(2)
		f := v.Float()
		switch {
		case f == math.Trunc(f) && !math.IsInf(f, 0) && f >= -1e15 && f <= 1e15:
			writeUint64(&h, uint64(int64(f)))
		case math.IsNaN(f):
			writeUint64(&h, canonicalNaN)
		default:
			writeUint64(&h, math.Float64bits(f))
		}
	case TypeString:
		h.WriteByte(3)
		h.WriteString(v.s())
	case TypeTimestamp:
		h.WriteByte(4)
		writeUint64(&h, v.w)
	}
	return h.Sum64()
}

func writeUint64(h *maphash.Hash, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// Coerce converts v to the target type when a lossless or standard SQL
// conversion exists (int↔float, string→any via parsing, timestamp↔int).
func Coerce(v Value, t Type) (Value, error) {
	vt := v.typ()
	if vt == t || vt == TypeNull {
		return v, nil
	}
	switch t {
	case TypeBool:
		if vt == TypeString {
			switch strings.ToLower(v.s()) {
			case "true", "t", "1":
				return NewBool(true), nil
			case "false", "f", "0":
				return NewBool(false), nil
			}
		}
		if vt == TypeInt {
			return NewBool(v.w != 0), nil
		}
	case TypeInt:
		switch vt {
		case TypeFloat:
			if f := v.f(); f == math.Trunc(f) && !math.IsInf(f, 0) {
				return NewInt(int64(f)), nil
			}
		case TypeString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s()), 10, 64); err == nil {
				return NewInt(i), nil
			}
		case TypeTimestamp:
			return NewInt(v.i()), nil
		case TypeBool:
			return NewInt(v.i()), nil
		}
	case TypeFloat:
		switch vt {
		case TypeInt:
			return NewFloat(float64(v.i())), nil
		case TypeString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s()), 64); err == nil {
				return NewFloat(f), nil
			}
		}
	case TypeString:
		return NewString(v.String()), nil
	case TypeTimestamp:
		switch vt {
		case TypeInt:
			return NewTimestamp(v.i()), nil
		case TypeString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s()), 10, 64); err == nil {
				return NewTimestamp(i), nil
			}
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s %q to %s", vt, v.String(), t)
}
