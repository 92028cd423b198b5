package sql

import (
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---------- Expressions ----------

// Literal is a constant value.
type Literal struct{ Value types.Value }

// ColumnRef names a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

// Param is the i'th positional '?' parameter (0-based).
type Param struct{ Index int }

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" | "-"
	X  Expr
}

// Binary covers arithmetic, comparison, and boolean connectives.
type Binary struct {
	Op   string // + - * / % = != < <= > >= AND OR ||
	L, R Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X      Expr
	List   []Expr
	Negate bool
}

// InSubquery is x [NOT] IN (SELECT ...). The subquery must be uncorrelated
// and yield exactly one column; it is materialized once per statement
// execution.
type InSubquery struct {
	X      Expr
	Query  *Select
	Negate bool
}

// Between is x BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// Like is x LIKE pattern ('%' and '_' wildcards).
type Like struct {
	X, Pattern Expr
	Negate     bool
}

// FuncCall is a scalar or aggregate function application. Star is set for
// COUNT(*); Distinct for COUNT(DISTINCT x) etc.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool
	Distinct bool
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // nil when absent
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct{ Cond, Result Expr }

func (*Literal) expr()    {}
func (*ColumnRef) expr()  {}
func (*Param) expr()      {}
func (*Unary) expr()      {}
func (*Binary) expr()     {}
func (*IsNull) expr()     {}
func (*InList) expr()     {}
func (*InSubquery) expr() {}
func (*Between) expr()    {}
func (*Like) expr()       {}
func (*FuncCall) expr()   {}
func (*CaseExpr) expr()   {}

// IsAggregate reports whether the function name is one of the built-in
// aggregates.
func IsAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// ContainsAggregate walks an expression tree looking for aggregate calls.
func ContainsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && IsAggregate(f.Name) {
			found = true
		}
	})
	return found
}

// WalkExpr calls fn on e and every sub-expression.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *IsNull:
		WalkExpr(x.X, fn)
	case *InList:
		WalkExpr(x.X, fn)
		for _, it := range x.List {
			WalkExpr(it, fn)
		}
	case *InSubquery:
		WalkExpr(x.X, fn)
	case *Between:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *Like:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *CaseExpr:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(x.Else, fn)
	}
}

// ---------- Statements ----------

// SelectItem is one output column of a SELECT: an expression with an
// optional alias, or a bare/qualified star.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

// TableRef names a relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinClause is one JOIN ... ON ... step (inner or left outer).
type JoinClause struct {
	Left  bool // LEFT [OUTER] JOIN when true, else INNER
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement over at most a small join tree.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr // nil = no offset
}

// Insert is INSERT INTO t [(cols)] VALUES (...)... or INSERT INTO t SELECT.
type Insert struct {
	Table   string
	Columns []string // empty = schema order
	Rows    [][]Expr // literal form
	Query   *Select  // SELECT form (exclusive with Rows)
}

// Assignment is one SET col = expr in an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

// ColumnDef is one column in CREATE TABLE / CREATE STREAM.
type ColumnDef struct {
	Name       string
	Type       types.Type
	NotNull    bool
	Default    Expr // literal only
	PrimaryKey bool // inline PRIMARY KEY marker
}

// CreateTable is CREATE TABLE name (cols..., [PRIMARY KEY (cols)])
// [PARTITION BY (col) [PARTIAL]]. PartitionBy names the hash-partitioning
// column in a multi-partition deployment; empty means unpartitioned (the
// relation lives on partition 0, or is treated as replicated reference
// data). Partial marks a partitioned relation whose rows are deliberately
// partition-local partial state (e.g. per-partition partial aggregates
// maintained by procedures routed on a different key): every partition may
// hold a row for every key, a read aggregates every partition's, and elastic
// repartitioning must not move their rows between partitions.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	PartitionBy string
	Partial     bool
	IfNotExists bool
}

// CreateStream is CREATE STREAM name (cols...) [PARTITION BY (col)
// [PARTIAL]]. Streams are keyless, append-only relations whose tuples are
// garbage-collected after consumption; a partitioned stream hash-routes
// ingested tuples to their owning partition. Partial has the same meaning
// as on CreateTable: partition-local state that repartitioning leaves put.
type CreateStream struct {
	Name        string
	Columns     []ColumnDef
	PartitionBy string
	Partial     bool
	IfNotExists bool
}

// WindowSpec describes the windowing mode of CREATE WINDOW.
type WindowSpec struct {
	Rows    bool   // true: tuple-based (ROWS n), false: time-based (RANGE usec)
	Size    int64  // rows or microseconds
	Slide   int64  // rows or microseconds; defaults to 1 row / 1 tuple-time
	TimeCol string // column carrying event time for RANGE windows
}

// CreateWindow is CREATE WINDOW name ON stream ROWS n [SLIDE m] or
// CREATE WINDOW name ON stream RANGE usec [SLIDE usec] TIMESTAMP col.
type CreateWindow struct {
	Name   string
	Stream string
	Spec   WindowSpec
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// Drop is DROP TABLE/STREAM/WINDOW/INDEX/TRIGGER name.
type Drop struct {
	Kind     string // TABLE | STREAM | WINDOW | INDEX | TRIGGER
	Name     string
	IfExists bool
}

// DeployDataflow is the textual form of the dataflow Deploy API — a whole
// workflow graph declared as one statement:
//
//	DEPLOY DATAFLOW pipeline (
//	    NODE ingest INPUT ticks BATCH 10 EMITS (clean),
//	    NODE report INPUT clean BATCH 1,
//	    TRIGGER audit ON clean AS ('INSERT INTO log SELECT * FROM clean')
//	)
//
// DEPLOY, DATAFLOW, NODE, INPUT, BATCH and EMITS are soft keywords (plain
// identifiers), so existing schemas keep using those words as names.
type DeployDataflow struct {
	Name     string
	Nodes    []DataflowNodeDef
	Triggers []DataflowTriggerDef
}

// DataflowNodeDef is one NODE clause: a stored procedure, its optional
// input stream and batch size, and the streams its handler emits to.
type DataflowNodeDef struct {
	Proc  string
	Input string // empty for OLTP entry-point nodes
	Batch int
	Emits []string
}

// DataflowTriggerDef is one TRIGGER clause: an EE trigger with inline SQL
// body statements, deployed with the graph.
type DataflowTriggerDef struct {
	Name     string
	Relation string
	Bodies   []string
}

func (*Select) stmt()         {}
func (*Insert) stmt()         {}
func (*Update) stmt()         {}
func (*Delete) stmt()         {}
func (*CreateTable) stmt()    {}
func (*CreateStream) stmt()   {}
func (*CreateWindow) stmt()   {}
func (*CreateIndex) stmt()    {}
func (*Drop) stmt()           {}
func (*DeployDataflow) stmt() {}
