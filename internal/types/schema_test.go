package types

import (
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("contestants",
		[]Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "name", Type: TypeString, NotNull: true},
			{Name: "votes", Type: TypeInt, Default: NewInt(0), HasDeflt: true},
		},
		[]string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Name() != "contestants" || s.NumColumns() != 3 {
		t.Fatalf("bad schema basics: %s %d", s.Name(), s.NumColumns())
	}
	if s.ColumnIndex("NAME") != 1 || s.ColumnIndex("name") != 1 {
		t.Error("column lookup should be case-insensitive")
	}
	if s.ColumnIndex("absent") != -1 {
		t.Error("missing column should be -1")
	}
	if pk := s.PrimaryKey(); len(pk) != 1 || pk[0] != 0 {
		t.Errorf("pk = %v", pk)
	}
	if !s.HasPrimaryKey() {
		t.Error("HasPrimaryKey")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("t", []Column{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}}, nil); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("t", []Column{{Name: "", Type: TypeInt}}, nil); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Type: TypeInt}}, []string{"b"}); err == nil {
		t.Error("unknown pk column should fail")
	}
	if _, err := NewSchema("t", make([]Column, MaxColumns+1), nil); err == nil {
		t.Errorf("a schema of %d columns should fail", MaxColumns+1)
	}
}

func TestValidateRow(t *testing.T) {
	s := testSchema(t)
	// Coercion: string id becomes int.
	r, err := s.ValidateRow(Row{NewString("5"), NewString("alice"), NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Int() != 5 {
		t.Errorf("id not coerced: %v", r[0])
	}
	// Default applied on NULL.
	r, err = s.ValidateRow(Row{NewInt(1), NewString("bob"), Null})
	if err != nil {
		t.Fatal(err)
	}
	if r[2].Int() != 0 {
		t.Errorf("default not applied: %v", r[2])
	}
	// NOT NULL enforced.
	if _, err := s.ValidateRow(Row{Null, NewString("x"), Null}); err == nil {
		t.Error("null pk should fail")
	}
	// Arity enforced.
	if _, err := s.ValidateRow(Row{NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
	// Bad coercion reported with column name.
	_, err = s.ValidateRow(Row{NewString("xx"), NewString("x"), Null})
	if err == nil || !strings.Contains(err.Error(), "contestants.id") {
		t.Errorf("expected column-qualified error, got %v", err)
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), NewFloat(2)}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not share backing storage effects")
	}
	if !r.Equal(Row{NewInt(1), NewString("a"), NewFloat(2)}) {
		t.Error("Equal")
	}
	if r.Equal(Row{NewInt(1)}) {
		t.Error("arity mismatch should not be equal")
	}
	if k := r.Key([]int{2, 0}); !k.Equal(Row{NewFloat(2), NewInt(1)}) {
		t.Errorf("Key = %v", k)
	}
	if r.Compare(Row{NewInt(1), NewString("a")}) != 1 {
		t.Error("longer row with equal prefix sorts after")
	}
	if r.Compare(Row{NewInt(0)}) != 1 || r.Compare(Row{NewInt(2)}) != -1 {
		t.Error("lexicographic compare broken")
	}
	if got := r.String(); got != "(1, a, 2)" {
		t.Errorf("String = %q", got)
	}
	if r.Hash() != r.Clone().Hash() {
		t.Error("row hash must be deterministic")
	}
}
