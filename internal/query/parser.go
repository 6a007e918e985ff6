package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/window"
)

// Parse parses a query in the SASE-style syntax of the paper (queries
// q1–q3) and validates it. Clauses must appear in the order RETURN,
// PATTERN, SEMANTICS, WHERE, GROUP-BY, WITHIN/SLIDE; SEMANTICS, WHERE
// and GROUP-BY are optional (SEMANTICS defaults to skip-till-any-match,
// the semantics every evaluated system supports, §9.1).
func Parse(src string) (*Query, error) {
	p := &parser{lx: lexer{src: src}}
	p.tok = p.lx.scan()
	q, err := p.parseQuery()
	if p.lx.err != nil { // it ended the token stream early
		return nil, p.lx.err
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; for fixed example queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lx  lexer
	tok token // the current token
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) next() token { t := p.tok; p.tok = p.lx.scan(); return t }

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("query: expected %s, got %s at offset %d", what, t, t.pos)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !isKeyword(t, kw) {
		return fmt.Errorf("query: expected %s, got %s at offset %d", kw, t, t.pos)
	}
	return nil
}

// clauseKeywords each start a clause, ending the one before.
var clauseKeywords = [...]string{"PATTERN", "SEMANTICS", "WHERE", "GROUP-BY", "WITHIN", "SLIDE", "RETURN", "MIN-LENGTH"}

// atClauseKeyword reports whether the current token starts a new
// clause, ending the previous variable-length clause.
func (p *parser) atClauseKeyword() bool {
	t := p.cur()
	for _, kw := range clauseKeywords {
		if isKeyword(t, kw) {
			return true
		}
	}
	return t.kind == tokEOF
}

// reserved reports whether a pattern type or alias would read as a
// keyword where the text writes it: a clause keyword, a pattern
// operator, or NEXT in a predicate.
func reserved(name string) bool {
	for _, kw := range clauseKeywords {
		if strings.EqualFold(name, kw) {
			return true
		}
	}
	for _, kw := range [...]string{"SEQ", "OR", "NOT", "NEXT"} {
		if strings.EqualFold(name, kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Where: &predicate.Set{}, Semantics: Any}
	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	if err := p.parseReturnItems(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("PATTERN"); err != nil {
		return nil, err
	}
	pat, err := p.parsePatternTerm(false, 0)
	if err != nil {
		return nil, err
	}
	// Optional minimal trend length (§8): PATTERN A+ MIN-LENGTH 3
	// excludes too-short trends by unrolling the Kleene plus, into as
	// many SEQ parts — bounded like nesting, so a short text cannot
	// build a huge pattern.
	if isKeyword(p.cur(), "MIN-LENGTH") {
		p.next()
		t, err := p.expect(tokNumber, "minimal trend length")
		if err != nil {
			return nil, err
		}
		if t.num != float64(int64(t.num)) || t.num < 1 || t.num > pattern.MaxDepth {
			return nil, fmt.Errorf("query: MIN-LENGTH must be an integer from 1 to %d, got %v", pattern.MaxDepth, t.num)
		}
		pat, err = pattern.UnrollMinLength(pat, int(t.num))
		if err != nil {
			return nil, err
		}
	}
	q.Pattern = pat
	if isKeyword(p.cur(), "SEMANTICS") {
		p.next()
		t, err := p.expect(tokIdent, "semantics name")
		if err != nil {
			return nil, err
		}
		s, err := ParseSemantics(t.text)
		if err != nil {
			return nil, err
		}
		q.Semantics = s
	}
	if isKeyword(p.cur(), "WHERE") {
		p.next()
		if err := p.parsePredicates(q); err != nil {
			return nil, err
		}
	}
	if isKeyword(p.cur(), "GROUP-BY") {
		p.next()
		for {
			k, err := p.parseGroupKey()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, k)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("WITHIN"); err != nil {
		return nil, err
	}
	within, err := p.parseDuration()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SLIDE"); err != nil {
		return nil, err
	}
	slide, err := p.parseDuration()
	if err != nil {
		return nil, err
	}
	q.Window = window.Spec{Within: within, Slide: slide}
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input %s at offset %d", t, t.pos)
	}
	return q, nil
}

// ---- RETURN clause ----

var aggFuncs = map[string]agg.Func{
	"COUNT": agg.CountStar, // refined to CountType when an operand is given
	"MIN":   agg.Min,
	"MAX":   agg.Max,
	"SUM":   agg.Sum,
	"AVG":   agg.Avg,
}

func (p *parser) parseReturnItems(q *Query) error {
	for {
		if err := p.parseReturnItem(q); err != nil {
			return err
		}
		if p.cur().kind != tokComma {
			return nil
		}
		p.next()
	}
}

func (p *parser) parseReturnItem(q *Query) error {
	t, err := p.expect(tokIdent, "RETURN item")
	if err != nil {
		return err
	}
	fn, isAgg := aggFuncs[strings.ToUpper(t.text)]
	if isAgg && p.cur().kind == tokLParen {
		p.next()
		spec := agg.Spec{Func: fn}
		switch cur := p.cur(); {
		case cur.kind == tokStar:
			p.next()
			if fn != agg.CountStar {
				return fmt.Errorf("query: %s(*) is not supported, only COUNT(*)", strings.ToUpper(t.text))
			}
		case cur.kind == tokIdent:
			p.next()
			if p.cur().kind == tokDot {
				p.next()
				attr, err := p.expect(tokIdent, "attribute name")
				if err != nil {
					return err
				}
				spec.Alias = cur.text
				spec.Attr = attr.text
				if fn == agg.CountStar {
					return fmt.Errorf("query: COUNT takes * or an event type, not an attribute")
				}
			} else {
				if fn != agg.CountStar {
					return fmt.Errorf("query: %s needs E.attr", strings.ToUpper(t.text))
				}
				spec.Func = agg.CountType
				spec.Alias = cur.text
			}
		default:
			return fmt.Errorf("query: bad aggregate operand %s at offset %d", cur, cur.pos)
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return err
		}
		q.Returns = append(q.Returns, spec)
		return nil
	}
	// Plain grouping key echoed in the result: attr or alias.attr.
	key := GroupKey{Attr: t.text}
	if p.cur().kind == tokDot {
		p.next()
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return err
		}
		key = GroupKey{Alias: t.text, Attr: attr.text}
	}
	q.ReturnKeys = append(q.ReturnKeys, key)
	return nil
}

// ---- PATTERN clause ----

// parsePatternTerm parses a pattern term nested depth terms deep;
// allowNot permits a NOT(...) node (only legal directly inside SEQ).
func (p *parser) parsePatternTerm(allowNot bool, depth int) (pattern.Node, error) {
	t := p.cur()
	if depth > pattern.MaxDepth {
		return nil, fmt.Errorf("query: pattern nesting exceeds %d levels at offset %d", pattern.MaxDepth, t.pos)
	}
	var node pattern.Node
	switch {
	case t.kind == tokLParen:
		p.next()
		inner, err := p.parsePatternTerm(false, depth+1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		node = inner
	case isKeyword(t, "SEQ"):
		p.next()
		if _, err := p.expect(tokLParen, "( after SEQ"); err != nil {
			return nil, err
		}
		var parts []pattern.Node
		for {
			part, err := p.parsePatternTerm(true, depth+1)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen, ") after SEQ arguments"); err != nil {
			return nil, err
		}
		node = pattern.Seq(parts...)
	case isKeyword(t, "OR"):
		p.next()
		if _, err := p.expect(tokLParen, "( after OR"); err != nil {
			return nil, err
		}
		var parts []pattern.Node
		for {
			part, err := p.parsePatternTerm(false, depth+1)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen, ") after OR arguments"); err != nil {
			return nil, err
		}
		node = pattern.Or(parts...)
	case isKeyword(t, "NOT"):
		if !allowNot {
			return nil, fmt.Errorf("query: NOT is only allowed directly inside SEQ (offset %d)", t.pos)
		}
		p.next()
		if _, err := p.expect(tokLParen, "( after NOT"); err != nil {
			return nil, err
		}
		inner, err := p.parsePatternTerm(false, depth+1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ") after NOT"); err != nil {
			return nil, err
		}
		return pattern.Not(inner), nil // no postfix on NOT
	case t.kind == tokIdent:
		p.next()
		leaf := pattern.Type(t.text)
		// Optional alias: a following identifier, e.g. "Stock A".
		if a := p.cur(); a.kind == tokIdent && !p.atClauseKeyword() {
			p.next()
			leaf = pattern.TypeAs(t.text, a.text)
		}
		node = leaf
	default:
		return nil, fmt.Errorf("query: expected pattern, got %s at offset %d", t, t.pos)
	}
	// Postfix Kleene operators, possibly stacked is rejected.
	switch p.cur().kind {
	case tokPlus:
		p.next()
		node = pattern.Plus(node)
	case tokStar:
		p.next()
		node = pattern.Star(node)
	case tokQMark:
		p.next()
		node = pattern.Opt(node)
	}
	return node, nil
}

// ---- WHERE clause ----

// operand is one side of a comparison before classification.
type operand struct {
	isNext bool    // NEXT(alias).attr
	alias  string  // empty for bare attributes and constants
	attr   string  // attribute name; empty for constants
	isAttr bool    // alias/attr reference vs constant
	num    float64 // constant number
	str    string  // constant string
	isNum  bool
}

func (p *parser) parsePredicates(q *Query) error {
	for {
		if err := p.parsePredicate(q); err != nil {
			return err
		}
		if isKeyword(p.cur(), "AND") {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parsePredicate(q *Query) error {
	if p.cur().kind == tokLBracket {
		// Equivalence predicate [attr] or [Alias.attr].
		p.next()
		t, err := p.expect(tokIdent, "attribute in [...]")
		if err != nil {
			return err
		}
		eq := predicate.Equivalence{Attr: t.text}
		if p.cur().kind == tokDot {
			p.next()
			attr, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return err
			}
			eq = predicate.Equivalence{Alias: t.text, Attr: attr.text}
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return err
		}
		q.Where.Equivalences = append(q.Where.Equivalences, eq)
		return nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return err
	}
	right, err := p.parseOperand()
	if err != nil {
		return err
	}
	return classifyComparison(q, left, op, right)
}

func (p *parser) parseCmpOp() (predicate.Op, error) {
	t := p.next()
	switch t.kind {
	case tokLt:
		return predicate.Lt, nil
	case tokLe:
		return predicate.Le, nil
	case tokGt:
		return predicate.Gt, nil
	case tokGe:
		return predicate.Ge, nil
	case tokEq:
		return predicate.Eq, nil
	case tokNe:
		return predicate.Ne, nil
	}
	return 0, fmt.Errorf("query: expected comparison operator, got %s at offset %d", t, t.pos)
}

func (p *parser) parseOperand() (operand, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return operand{num: t.num, isNum: true}, nil
	case t.kind == tokString:
		return operand{str: t.text}, nil
	case isKeyword(t, "NEXT"):
		if _, err := p.expect(tokLParen, "( after NEXT"); err != nil {
			return operand{}, err
		}
		alias, err := p.expect(tokIdent, "event type in NEXT(...)")
		if err != nil {
			return operand{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return operand{}, err
		}
		if _, err := p.expect(tokDot, ". after NEXT(...)"); err != nil {
			return operand{}, err
		}
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return operand{}, err
		}
		return operand{isNext: true, alias: alias.text, attr: attr.text, isAttr: true}, nil
	case t.kind == tokIdent:
		if p.cur().kind == tokDot {
			p.next()
			attr, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return operand{}, err
			}
			return operand{alias: t.text, attr: attr.text, isAttr: true}, nil
		}
		// Bare identifier: a symbolic constant (q1's "passive").
		return operand{str: t.text}, nil
	}
	return operand{}, fmt.Errorf("query: expected operand, got %s at offset %d", t, t.pos)
}

// flipOp mirrors a comparison when its operands are swapped.
func flipOp(op predicate.Op) predicate.Op {
	switch op {
	case predicate.Lt:
		return predicate.Gt
	case predicate.Le:
		return predicate.Ge
	case predicate.Gt:
		return predicate.Lt
	case predicate.Ge:
		return predicate.Le
	}
	return op // Eq, Ne symmetric
}

// classifyComparison sorts a comparison into the predicate classes of
// §3.2: NEXT(...) on either side makes it a predicate on adjacent
// events (the NEXT side is the later event); two plain alias
// references are read as Left-precedes-Right adjacency (the paper's
// E.attr ◦ Ex.attrx form); an attribute against a constant is a local
// predicate.
func classifyComparison(q *Query, left operand, op predicate.Op, right operand) error {
	if left.isNext && right.isNext {
		return fmt.Errorf("query: NEXT(...) on both sides of a comparison is not supported")
	}
	if left.isNext || right.isNext {
		if !left.isAttr || !right.isAttr {
			return fmt.Errorf("query: NEXT(...) must be compared to an event attribute")
		}
		if left.isNext { // normalise: earlier event on the left
			left, right = right, left
			op = flipOp(op)
		}
		if left.alias == "" {
			return fmt.Errorf("query: adjacent predicate needs an event type on both sides")
		}
		q.Where.Adjacents = append(q.Where.Adjacents, predicate.Adjacent{
			Left: left.alias, LeftAttr: left.attr, Op: op,
			Right: right.alias, RightAttr: right.attr,
		})
		return nil
	}
	if left.isAttr && right.isAttr {
		if left.alias == "" || right.alias == "" || left.alias == right.alias {
			return fmt.Errorf("query: comparison between two attributes must relate two distinct event types or use NEXT(...)")
		}
		q.Where.Adjacents = append(q.Where.Adjacents, predicate.Adjacent{
			Left: left.alias, LeftAttr: left.attr, Op: op,
			Right: right.alias, RightAttr: right.attr,
		})
		return nil
	}
	if !left.isAttr && !right.isAttr {
		return fmt.Errorf("query: comparison between two constants")
	}
	if !left.isAttr { // constant OP attr -> attr flipped-OP constant
		left, right = right, left
		op = flipOp(op)
	}
	var val any
	if right.isNum {
		val = right.num
	} else {
		val = right.str
	}
	q.Where.Locals = append(q.Where.Locals, predicate.Local{
		Alias: left.alias, Attr: left.attr, Op: op, Value: val,
	})
	return nil
}

// ---- GROUP-BY and window clauses ----

func (p *parser) parseGroupKey() (GroupKey, error) {
	t, err := p.expect(tokIdent, "grouping attribute")
	if err != nil {
		return GroupKey{}, err
	}
	if p.cur().kind == tokDot {
		p.next()
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return GroupKey{}, err
		}
		return GroupKey{Alias: t.text, Attr: attr.text}, nil
	}
	return GroupKey{Attr: t.text}, nil
}

// parseDuration parses "<number> [unit]" where unit is seconds,
// minutes or hours (singular accepted); a bare number is stream ticks
// (= seconds). An integer literal is read exactly, whatever its size.
func (p *parser) parseDuration() (int64, error) {
	t, err := p.expect(tokNumber, "duration")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil && t.num == math.Trunc(t.num) && t.num < math.MaxInt64 {
		n, err = int64(t.num), nil // 10.0, 1e+06
	}
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("query: duration must be a positive integer, got %s", t.text)
	}
	if u := p.cur(); u.kind == tokIdent {
		scale := int64(1)
		switch strings.ToLower(u.text) {
		case "second", "seconds", "sec", "s":
		case "minute", "minutes", "min", "m":
			scale = 60
		case "hour", "hours", "h":
			scale = 3600
		default:
			return n, nil
		}
		p.next()
		if n > math.MaxInt64/scale {
			return 0, fmt.Errorf("query: duration %s %s overflows", t.text, u.text)
		}
		n *= scale
	}
	return n, nil
}
