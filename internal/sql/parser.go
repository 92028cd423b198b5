package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parse parses exactly one SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSym, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	var out []Statement
	for !p.at(TokEOF, "") {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(TokSym, ";") {
			break
		}
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return out, nil
}

type parser struct {
	toks   []Token
	pos    int
	src    string
	params int // count of '?' seen so far, for positional numbering
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind != kind {
		return false
	}
	return text == "" || t.Text == text
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case TokIdent:
			want = "identifier"
		case TokInt:
			want = "integer"
		case TokString:
			want = "string literal"
		default:
			want = fmt.Sprintf("token kind %d", kind)
		}
	}
	return Token{}, p.errf("expected %s, found %s", want, p.peek())
}

func (p *parser) errf(format string, args ...any) error {
	pos := p.peek().Pos
	return fmt.Errorf("sql: parse error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *parser) expectKeyword(kw string) error {
	_, err := p.expect(TokKeyword, kw)
	return err
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

// ---------- statement dispatch ----------

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.atWord("DEPLOY"):
		return p.parseDeployDataflow()
	default:
		return nil, p.errf("expected a statement, found %s", p.peek())
	}
}

// ---------- DEPLOY DATAFLOW ----------

// atWord reports whether the next token is the identifier word — a soft
// keyword, so the word stays usable as a relation or column name.
func (p *parser) atWord(word string) bool {
	return p.at(TokIdent, "") && strings.EqualFold(p.peek().Text, word)
}

func (p *parser) acceptWord(word string) bool {
	if p.atWord(word) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectWord(word string) error {
	if p.acceptWord(word) {
		return nil
	}
	return p.errf("expected %s, found %s", word, p.peek())
}

// parseDeployDataflow parses
//
//	DEPLOY DATAFLOW name ( clause [, clause ...] )
//
// where each clause is one of
//
//	NODE proc [INPUT stream BATCH n] [EMITS (s1, s2, ...)]
//	TRIGGER name ON relation AS ('stmt' [, 'stmt' ...])
func (p *parser) parseDeployDataflow() (*DeployDataflow, error) {
	p.next() // DEPLOY
	if err := p.expectWord("DATAFLOW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	df := &DeployDataflow{Name: name}
	if _, err := p.expect(TokSym, "("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptWord("NODE"):
			var nd DataflowNodeDef
			if nd.Proc, err = p.ident(); err != nil {
				return nil, err
			}
			if p.acceptWord("INPUT") {
				if nd.Input, err = p.ident(); err != nil {
					return nil, err
				}
				if err := p.expectWord("BATCH"); err != nil {
					return nil, err
				}
				t, err := p.expect(TokInt, "")
				if err != nil {
					return nil, err
				}
				if nd.Batch, err = strconv.Atoi(t.Text); err != nil {
					return nil, p.errf("batch size %q out of range", t.Text)
				}
			}
			if p.acceptWord("EMITS") {
				if _, err := p.expect(TokSym, "("); err != nil {
					return nil, err
				}
				for {
					s, err := p.ident()
					if err != nil {
						return nil, err
					}
					nd.Emits = append(nd.Emits, s)
					if !p.accept(TokSym, ",") {
						break
					}
				}
				if _, err := p.expect(TokSym, ")"); err != nil {
					return nil, err
				}
			}
			df.Nodes = append(df.Nodes, nd)
		case p.keyword("TRIGGER"):
			var td DataflowTriggerDef
			if td.Name, err = p.ident(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if td.Relation, err = p.ident(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSym, "("); err != nil {
				return nil, err
			}
			for {
				t, err := p.expect(TokString, "")
				if err != nil {
					return nil, err
				}
				td.Bodies = append(td.Bodies, t.Text)
				if !p.accept(TokSym, ",") {
					break
				}
			}
			if _, err := p.expect(TokSym, ")"); err != nil {
				return nil, err
			}
			df.Triggers = append(df.Triggers, td)
		default:
			return nil, p.errf("expected NODE or TRIGGER, found %s", p.peek())
		}
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if _, err := p.expect(TokSym, ")"); err != nil {
		return nil, err
	}
	return df, nil
}

// ---------- SELECT ----------

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.keyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for {
		left := false
		switch {
		case p.keyword("JOIN"):
		case p.at(TokKeyword, "INNER") && p.toks[p.pos+1].Text == "JOIN":
			p.next()
			p.next()
		case p.at(TokKeyword, "LEFT"):
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			left = true
		default:
			goto afterJoins
		}
		{
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, JoinClause{Left: left, Table: tr, On: on})
		}
	}
afterJoins:
	if p.keyword("WHERE") {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokSym, ",") {
				break
			}
		}
	}
	if p.keyword("HAVING") {
		if sel.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.keyword("DESC") {
				item.Desc = true
			} else {
				p.keyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokSym, ",") {
				break
			}
		}
	}
	if p.keyword("LIMIT") {
		if sel.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("OFFSET") {
		if sel.Offset, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSym, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.at(TokIdent, "") && p.toks[p.pos+1].Kind == TokSym && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSym && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.keyword("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.keyword("AS") {
		if tr.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if p.at(TokIdent, "") {
		tr.Alias = p.next().Text
	}
	return tr, nil
}

// ---------- INSERT / UPDATE / DELETE ----------

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.accept(TokSym, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(TokSym, ",") {
				break
			}
		}
		if _, err := p.expect(TokSym, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(TokKeyword, "SELECT") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSym, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSym, ",") {
				break
			}
		}
		if _, err := p.expect(TokSym, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(TokSym, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSym, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if p.keyword("WHERE") {
		if upd.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.keyword("WHERE") {
		if del.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

// ---------- CREATE / DROP ----------

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.keyword("TABLE"):
		return p.parseCreateTableLike(false)
	case p.keyword("STREAM"):
		return p.parseCreateTableLike(true)
	case p.keyword("WINDOW"):
		return p.parseCreateWindow()
	case p.keyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.keyword("INDEX"):
		return p.parseCreateIndex(false)
	default:
		return nil, p.errf("expected TABLE, STREAM, WINDOW, or INDEX after CREATE")
	}
}

func (p *parser) parseIfNotExists() (bool, error) {
	if p.keyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return false, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) parseCreateTableLike(isStream bool) (Statement, error) {
	ifne, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSym, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	var pk []string
	for {
		if p.keyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSym, "("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				pk = append(pk, c)
				if !p.accept(TokSym, ",") {
					break
				}
			}
			if _, err := p.expect(TokSym, ")"); err != nil {
				return nil, err
			}
		} else {
			cd, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			cols = append(cols, cd)
			if cd.PrimaryKey {
				pk = append(pk, cd.Name)
			}
		}
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if _, err := p.expect(TokSym, ")"); err != nil {
		return nil, err
	}
	partBy, partial, err := p.parsePartitionBy(cols)
	if err != nil {
		return nil, err
	}
	if isStream {
		if len(pk) > 0 {
			return nil, p.errf("streams are keyless; remove PRIMARY KEY from %s", name)
		}
		return &CreateStream{Name: name, Columns: cols, PartitionBy: partBy, Partial: partial, IfNotExists: ifne}, nil
	}
	return &CreateTable{Name: name, Columns: cols, PrimaryKey: pk, PartitionBy: partBy, Partial: partial, IfNotExists: ifne}, nil
}

// parsePartitionBy parses the optional trailing PARTITION BY [(] col [)]
// [PARTIAL] clause of CREATE TABLE / CREATE STREAM and validates the
// column exists. PARTITION and PARTIAL are contextual keywords — they are
// only meaningful right after the column-list close paren, so they stay
// usable as identifiers elsewhere (column names, etc.). PARTIAL declares
// the relation's rows as partition-local partial state: slot migration
// leaves them in place instead of rehoming them by partition key.
func (p *parser) parsePartitionBy(cols []ColumnDef) (string, bool, error) {
	if !(p.at(TokIdent, "") && strings.EqualFold(p.peek().Text, "PARTITION")) {
		return "", false, nil
	}
	p.next() // consume PARTITION
	if err := p.expectKeyword("BY"); err != nil {
		return "", false, err
	}
	paren := p.accept(TokSym, "(")
	col, err := p.ident()
	if err != nil {
		return "", false, err
	}
	if paren {
		if _, err := p.expect(TokSym, ")"); err != nil {
			return "", false, err
		}
	}
	partial := false
	if p.at(TokIdent, "") && strings.EqualFold(p.peek().Text, "PARTIAL") {
		p.next()
		partial = true
	}
	for _, c := range cols {
		if strings.EqualFold(c.Name, col) {
			return col, partial, nil
		}
	}
	return "", false, p.errf("PARTITION BY column %q is not a declared column", col)
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	var typeName string
	if p.at(TokIdent, "") {
		typeName = p.next().Text
	} else if p.at(TokKeyword, "TIMESTAMP") {
		typeName = p.next().Text
	} else {
		return ColumnDef{}, p.errf("expected type name for column %q", name)
	}
	typ, err := types.ParseType(typeName)
	if err != nil {
		return ColumnDef{}, p.errf("column %q: %v", name, err)
	}
	cd := ColumnDef{Name: name, Type: typ}
	// VARCHAR(32) style length is accepted and ignored.
	if p.accept(TokSym, "(") {
		if _, err := p.expect(TokInt, ""); err != nil {
			return ColumnDef{}, err
		}
		if _, err := p.expect(TokSym, ")"); err != nil {
			return ColumnDef{}, err
		}
	}
	for {
		switch {
		case p.keyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			cd.NotNull = true
		case p.keyword("DEFAULT"):
			e, err := p.parsePrimary()
			if err != nil {
				return ColumnDef{}, err
			}
			if _, ok := e.(*Literal); !ok {
				return ColumnDef{}, p.errf("DEFAULT for %q must be a literal", name)
			}
			cd.Default = e
		case p.keyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseCreateWindow() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	stream, err := p.ident()
	if err != nil {
		return nil, err
	}
	cw := &CreateWindow{Name: name, Stream: stream}
	switch {
	case p.keyword("ROWS"):
		cw.Spec.Rows = true
	case p.keyword("RANGE"):
		cw.Spec.Rows = false
	default:
		return nil, p.errf("expected ROWS or RANGE in CREATE WINDOW")
	}
	sz, err := p.expect(TokInt, "")
	if err != nil {
		return nil, err
	}
	cw.Spec.Size, _ = strconv.ParseInt(sz.Text, 10, 64)
	cw.Spec.Slide = 1
	if p.keyword("SLIDE") {
		sl, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		cw.Spec.Slide, _ = strconv.ParseInt(sl.Text, 10, 64)
	}
	if !cw.Spec.Rows {
		if err := p.expectKeyword("TIMESTAMP"); err != nil {
			return nil, err
		}
		if cw.Spec.TimeCol, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if cw.Spec.Size <= 0 || cw.Spec.Slide <= 0 {
		return nil, p.errf("window size and slide must be positive")
	}
	return cw, nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSym, "("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table, Unique: unique}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, c)
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if _, err := p.expect(TokSym, ")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	var kind string
	for _, k := range []string{"TABLE", "STREAM", "WINDOW", "INDEX", "TRIGGER"} {
		if p.keyword(k) {
			kind = k
			break
		}
	}
	if kind == "" {
		return nil, p.errf("expected TABLE, STREAM, WINDOW, INDEX, or TRIGGER after DROP")
	}
	ifExists := false
	if p.keyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &Drop{Kind: kind, Name: name, IfExists: ifExists}, nil
}

// ---------- expressions (precedence climbing) ----------
//
// OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < additive < multiplicative
// < unary minus < primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.keyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokSym, "=") || p.at(TokSym, "!=") || p.at(TokSym, "<>") ||
			p.at(TokSym, "<") || p.at(TokSym, "<=") || p.at(TokSym, ">") || p.at(TokSym, ">="):
			op := p.next().Text
			if op == "<>" {
				op = "!="
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		case p.at(TokKeyword, "IS"):
			p.next()
			neg := p.keyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Negate: neg}
		case p.at(TokKeyword, "IN"), p.at(TokKeyword, "BETWEEN"), p.at(TokKeyword, "LIKE"):
			var err error
			if l, err = p.parseSuffixPredicate(l, false); err != nil {
				return nil, err
			}
		case p.at(TokKeyword, "NOT") && p.toks[p.pos+1].Kind == TokKeyword &&
			(p.toks[p.pos+1].Text == "IN" || p.toks[p.pos+1].Text == "BETWEEN" || p.toks[p.pos+1].Text == "LIKE"):
			p.next()
			var err error
			if l, err = p.parseSuffixPredicate(l, true); err != nil {
				return nil, err
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseSuffixPredicate(l Expr, negate bool) (Expr, error) {
	switch {
	case p.keyword("IN"):
		if _, err := p.expect(TokSym, "("); err != nil {
			return nil, err
		}
		if p.at(TokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSym, ")"); err != nil {
				return nil, err
			}
			return &InSubquery{X: l, Query: sub, Negate: negate}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokSym, ",") {
				break
			}
		}
		if _, err := p.expect(TokSym, ")"); err != nil {
			return nil, err
		}
		return &InList{X: l, List: list, Negate: negate}, nil
	case p.keyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.keyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Negate: negate}, nil
	}
	return nil, p.errf("expected IN, BETWEEN, or LIKE")
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokSym, "+") || p.at(TokSym, "-") || p.at(TokSym, "||") {
		op := p.next().Text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokSym, "*") || p.at(TokSym, "/") || p.at(TokSym, "%") {
		op := p.next().Text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokSym, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok { // fold negative literals
			switch lit.Value.Type() {
			case types.TypeInt:
				return &Literal{Value: types.NewInt(-lit.Value.Int())}, nil
			case types.TypeFloat:
				return &Literal{Value: types.NewFloat(-lit.Value.Float())}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.accept(TokSym, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.next()
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &Literal{Value: types.NewInt(i)}, nil
	case TokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.Text)
		}
		return &Literal{Value: types.NewFloat(f)}, nil
	case TokString:
		p.next()
		return &Literal{Value: types.NewString(t.Text)}, nil
	case TokParam:
		p.next()
		e := &Param{Index: p.params}
		p.params++
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: types.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errf("unexpected keyword %s in expression", t.Text)
	case TokIdent:
		p.next()
		// function call?
		if p.at(TokSym, "(") {
			return p.parseFuncCall(t.Text)
		}
		// qualified column?
		if p.accept(TokSym, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	case TokSym:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSym, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(TokSym, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: strings.ToUpper(name)}
	if p.accept(TokSym, "*") {
		fc.Star = true
		if _, err := p.expect(TokSym, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(TokSym, ")") {
		return fc, nil
	}
	fc.Distinct = p.keyword("DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.accept(TokSym, ",") {
			break
		}
	}
	if _, err := p.expect(TokSym, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.at(TokKeyword, "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.keyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.keyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
