package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the query language.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokDot
	tokPlus
	tokStar
	tokQMark
	tokLt
	tokLe
	tokGt
	tokGe
	tokEq
	tokNe
)

// token is one lexical token with its source position for error
// messages.
type token struct {
	kind tokKind
	text string
	num  float64
	pos  int // byte offset in the input
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokNumber:
		return fmt.Sprintf("number %v", t.num)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// punct maps the one-byte tokens to their kinds.
var punct = [256]tokKind{
	'(': tokLParen, ')': tokRParen, '[': tokLBracket, ']': tokRBracket,
	',': tokComma, '.': tokDot, '+': tokPlus, '*': tokStar, '?': tokQMark,
	'=': tokEq,
}

// lexer tokenises a query string on demand, one token ahead of the
// parser, so the tokens of a long input are never all held at once.
// Identifiers may contain letters, digits, '_' and '-' (for
// skip-till-any-match); a '-' is part of an identifier only when it
// glues two identifier characters, so "GROUP-BY" and
// "skip-till-any-match" lex as single identifiers, while a '-' before a
// digit starts a negative number. Strings are '…' (taken verbatim) or
// "…" (with Go escapes, the form Query.String writes); numbers take an
// exponent (1e+06).
type lexer struct {
	src string
	i   int
	// err is the first lexical error; the lexer then reports the end of
	// the query.
	err error
}

// scan returns the next token.
func (lx *lexer) scan() token {
	src, n := lx.src, len(lx.src)
	for lx.i < n && (src[lx.i] == ' ' || src[lx.i] == '\t' || src[lx.i] == '\n' || src[lx.i] == '\r') {
		lx.i++
	}
	i := lx.i
	if i >= n || lx.err != nil {
		return token{kind: tokEOF, pos: n}
	}
	c := src[i]
	two := func(kind, kind2 tokKind) token {
		if i+1 < n && src[i+1] == '=' {
			lx.i += 2
			return token{kind: kind2, text: src[i : i+2], pos: i}
		}
		lx.i++
		return token{kind: kind, text: src[i : i+1], pos: i}
	}
	switch {
	case punct[c] != tokEOF:
		lx.i++
		return token{kind: punct[c], text: src[i : i+1], pos: i}
	case c == '<':
		return two(tokLt, tokLe)
	case c == '>':
		return two(tokGt, tokGe)
	case c == '!' && i+1 < n && src[i+1] == '=':
		lx.i += 2
		return token{kind: tokNe, text: "!=", pos: i}
	case c == '\'':
		j := strings.IndexByte(src[i+1:], '\'')
		if j < 0 {
			return lx.fail(fmt.Errorf("query: unterminated string at offset %d", i))
		}
		lx.i = i + j + 2
		return token{kind: tokString, text: src[i+1 : i+1+j], pos: i}
	case c == '"':
		j := i + 1
		for j < n && src[j] != '"' {
			if src[j] == '\\' {
				j++
			}
			j++
		}
		if j >= n {
			return lx.fail(fmt.Errorf("query: unterminated string at offset %d", i))
		}
		s, err := strconv.Unquote(src[i : j+1])
		if err != nil {
			return lx.fail(fmt.Errorf("query: bad string %s at offset %d", src[i:j+1], i))
		}
		lx.i = j + 1
		return token{kind: tokString, text: s, pos: i}
	case isDigit(src, i) || c == '-' && isDigit(src, i+1):
		j := i + 1
		for isDigit(src, j) {
			j++
		}
		// A '.' belongs to the number only when a digit follows, and an
		// exponent only when its digits do.
		if j < n && src[j] == '.' && isDigit(src, j+1) {
			for j++; isDigit(src, j); j++ {
			}
		}
		if j < n && (src[j] == 'e' || src[j] == 'E') {
			k := j + 1
			if k < n && (src[k] == '+' || src[k] == '-') {
				k++
			}
			if isDigit(src, k) {
				for j = k; isDigit(src, j); j++ {
				}
			}
		}
		v, err := strconv.ParseFloat(src[i:j], 64)
		if err != nil {
			return lx.fail(fmt.Errorf("query: bad number %q at offset %d", src[i:j], i))
		}
		lx.i = j
		return token{kind: tokNumber, text: src[i:j], num: v, pos: i}
	case isIdentStart(rune(c)):
		j := i + 1
		for j < n && isIdentPart(src, j) {
			j++
		}
		lx.i = j
		return token{kind: tokIdent, text: src[i:j], pos: i}
	}
	return lx.fail(fmt.Errorf("query: unexpected character %q at offset %d", c, i))
}

func (lx *lexer) fail(err error) token {
	lx.err = err
	return token{kind: tokEOF, pos: len(lx.src)}
}

func isDigit(src string, j int) bool { return j < len(src) && src[j] >= '0' && src[j] <= '9' }

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

// isIdentPart treats '-' as part of an identifier when squeezed
// between identifier characters, so GROUP-BY and skip-till-next-match
// are single tokens.
func isIdentPart(src string, j int) bool {
	c := rune(src[j])
	if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
		return true
	}
	if c == '-' && j+1 < len(src) {
		next := rune(src[j+1])
		return unicode.IsLetter(next) || unicode.IsDigit(next) || next == '_'
	}
	return false
}

// isIdent reports whether s lexes as exactly one identifier.
func isIdent(s string) bool {
	if s == "" || !isIdentStart(rune(s[0])) {
		return false
	}
	for j := 1; j < len(s); j++ {
		if !isIdentPart(s, j) {
			return false
		}
	}
	return true
}

// keyword matching is case-insensitive.
func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
