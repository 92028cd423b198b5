// Package sql implements the SQL front end: a hand-written lexer, the
// abstract syntax tree, and a recursive-descent parser for the dialect the
// engine executes. The dialect covers the OLTP core (CREATE TABLE/INDEX,
// SELECT with joins/grouping/ordering, INSERT, UPDATE, DELETE) plus the
// S-Store streaming DDL (CREATE STREAM, CREATE WINDOW, CREATE TRIGGER).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokParam // ? positional parameter
	TokSym   // punctuation / operator
)

// Token is one lexical unit. Text for keywords is upper-cased; identifiers
// preserve their source spelling.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords the parser treats specially. Anything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true, "ASC": true,
	"DESC": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "STREAM": true,
	"WINDOW": true, "INDEX": true, "UNIQUE": true, "ON": true, "PRIMARY": true,
	"KEY": true, "NOT": true, "NULL": true, "DEFAULT": true, "AND": true,
	"OR": true, "IN": true, "IS": true, "BETWEEN": true, "LIKE": true,
	"JOIN": true, "INNER": true, "LEFT": true, "AS": true, "DISTINCT": true,
	"TRUE": true, "FALSE": true, "ROWS": true, "RANGE": true, "SLIDE": true,
	"TRIGGER": true, "DROP": true, "IF": true, "EXISTS": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "TIMESTAMP": true,
}

// Lex tokenizes input, returning the token stream or a positioned error.
func Lex(input string) ([]Token, error) {
	return lexAppend(input, nil)
}

// lexAppend tokenizes input into toks (appending, so a caller can recycle a
// buffer's backing array across parses).
func lexAppend(input string, toks []Token) ([]Token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' {
				isFloat = true
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				isFloat = true
				i++
				if i < n && (input[i] == '+' || input[i] == '-') {
					i++
				}
				if i >= n || input[i] < '0' || input[i] > '9' {
					return nil, fmt.Errorf("sql: malformed number at offset %d", start)
				}
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c == '?':
			toks = append(toks, Token{Kind: TokParam, Text: "?", Pos: i})
			i++
		default:
			start := i
			// multi-char operators first
			if i+1 < n {
				two := input[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=", "||":
					toks = append(toks, Token{Kind: TokSym, Text: two, Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, Token{Kind: TokSym, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
