package types

import (
	"fmt"
	"strings"
)

// Column describes one column of a table, stream, or window schema.
type Column struct {
	Name     string
	Type     Type
	NotNull  bool
	Default  Value // NULL when no default was declared
	HasDeflt bool
}

// Schema is an ordered list of columns plus the primary-key column set.
// Schemas are immutable after construction.
type Schema struct {
	cols    []Column
	byName  map[string]int
	pkCols  []int // ordinal positions of primary-key columns, in key order
	relName string
}

// MaxColumns bounds a schema's width: a stored row version keeps its width
// in 16 bits.
const MaxColumns = 1<<16 - 1

// NewSchema builds a schema. pk lists primary-key column names in key order;
// it may be empty for keyless relations (streams usually are keyless).
func NewSchema(relName string, cols []Column, pk []string) (*Schema, error) {
	if len(cols) > MaxColumns {
		return nil, fmt.Errorf("types: schema %q has %d columns, at most %d", relName, len(cols), MaxColumns)
	}
	s := &Schema{
		cols:    append([]Column(nil), cols...),
		byName:  make(map[string]int, len(cols)),
		relName: relName,
	}
	for i, c := range s.cols {
		name := strings.ToLower(c.Name)
		if name == "" {
			return nil, fmt.Errorf("types: schema %q column %d has empty name", relName, i)
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("types: schema %q has duplicate column %q", relName, c.Name)
		}
		s.byName[name] = i
	}
	for _, k := range pk {
		i, ok := s.byName[strings.ToLower(k)]
		if !ok {
			return nil, fmt.Errorf("types: schema %q primary key references unknown column %q", relName, k)
		}
		s.pkCols = append(s.pkCols, i)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically known schemas.
func MustSchema(relName string, cols []Column, pk []string) *Schema {
	s, err := NewSchema(relName, cols, pk)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name the schema was built for.
func (s *Schema) Name() string { return s.relName }

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// ColumnIndex resolves a (case-insensitive) column name to its ordinal, or
// -1 when absent.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// PrimaryKey returns the ordinals of the primary-key columns (empty when
// the relation is keyless).
func (s *Schema) PrimaryKey() []int { return append([]int(nil), s.pkCols...) }

// HasPrimaryKey reports whether a primary key was declared.
func (s *Schema) HasPrimaryKey() bool { return len(s.pkCols) > 0 }

// Row is one tuple; len(Row) always equals the schema's column count.
type Row []Value

// Clone returns a deep copy of the row (Values are immutable, so a shallow
// copy of the slice suffices).
func (r Row) Clone() Row { return append(Row(nil), r...) }

// CloneRows returns a deep copy of rows in two allocations whatever their
// number: one backing array for every value, one for the row headers. nil
// stays nil.
func CloneRows(rows []Row) []Row {
	if rows == nil {
		return nil
	}
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	vals := make([]Value, n)
	out := make([]Row, len(rows))
	for i, r := range rows {
		k := copy(vals, r)
		out[i], vals = vals[:k:k], vals[k:]
	}
	return out
}

// Key extracts the values at the given ordinals (used for index keys).
func (r Row) Key(ordinals []int) Row {
	k := make(Row, len(ordinals))
	for i, o := range ordinals {
		k[i] = r[o]
	}
	return k
}

// Equal reports element-wise equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders rows lexicographically element by element.
func (r Row) Compare(o Row) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(r)), int64(len(o)))
}

// Hash combines the element hashes of the row.
func (r Row) Hash() uint64 {
	// FNV-1a style mixing over per-value hashes.
	h := uint64(14695981039346656037)
	for _, v := range r {
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// ValidateRow checks arity, NOT NULL constraints, and coerces each value to
// the declared column type, returning the (possibly converted) row.
func (s *Schema) ValidateRow(r Row) (Row, error) {
	if err := s.checkArity(r); err != nil {
		return nil, err
	}
	out := r.Clone()
	if err := s.conform(out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckRow returns the error ValidateRow would return for r, without
// copying it.
func (s *Schema) CheckRow(r Row) error {
	if err := s.checkArity(r); err != nil {
		return err
	}
	return s.conform(r, false)
}

func (s *Schema) checkArity(r Row) error {
	if len(r) != len(s.cols) {
		return fmt.Errorf("types: %s expects %d values, got %d", s.relName, len(s.cols), len(r))
	}
	return nil
}

// conform applies the column rules to r, which has the schema's arity: a
// NULL takes its column's default or is refused by NOT NULL, and any other
// value must coerce to its column's type. With write, r takes the results.
func (s *Schema) conform(r Row, write bool) error {
	for i, c := range s.cols {
		v := r[i]
		if v.IsNull() {
			if c.HasDeflt {
				v = c.Default
			} else if c.NotNull {
				return fmt.Errorf("types: %s.%s is NOT NULL", s.relName, c.Name)
			}
		} else {
			var err error
			if v, err = Coerce(v, c.Type); err != nil {
				return fmt.Errorf("types: %s.%s: %w", s.relName, c.Name, err)
			}
		}
		if write {
			r[i] = v
		}
	}
	return nil
}
