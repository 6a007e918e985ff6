// Package query defines the event trend aggregation query model of the
// COGRA paper (Definition 6) and a parser for the SASE-style query
// language the paper's examples q1–q3 are written in:
//
//	RETURN    patient, MIN(M.rate), MAX(M.rate)
//	PATTERN   Measurement M+
//	SEMANTICS contiguous
//	WHERE     [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
//	GROUP-BY  patient
//	WITHIN    10 minutes SLIDE 30 seconds
//
// A constant is a number (-2, 3.5, 1e+06), a string in single quotes
// (taken verbatim) or double quotes (Go escapes), or a bare identifier
// standing for the string it spells. Query.String writes every query
// in one canonical text that Parse reads back to the same query.
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

// Semantics is the event matching semantics S of a query (§2.2).
type Semantics int

// The three event matching semantics, from most flexible to most
// restrictive.
const (
	// Any is skip-till-any-match: every relevant event may extend a
	// trend or be skipped; all possible trends are detected.
	Any Semantics = iota
	// Next is skip-till-next-match: relevant events must be matched,
	// irrelevant events are skipped.
	Next
	// Cont is contiguous: no event may occur between adjacent events
	// of a trend.
	Cont
)

// String renders the semantics in query syntax.
func (s Semantics) String() string {
	switch s {
	case Any:
		return "skip-till-any-match"
	case Next:
		return "skip-till-next-match"
	case Cont:
		return "contiguous"
	}
	return "?"
}

// ParseSemantics accepts the full names and short aliases.
func ParseSemantics(s string) (Semantics, error) {
	switch strings.ToLower(s) {
	case "skip-till-any-match", "any":
		return Any, nil
	case "skip-till-next-match", "next":
		return Next, nil
	case "contiguous", "cont":
		return Cont, nil
	}
	return 0, fmt.Errorf("query: unknown semantics %q", s)
}

// GroupKey is one GROUP-BY item: a bare stream attribute ("patient")
// or an alias-scoped attribute ("A.company").
type GroupKey struct {
	// Alias is empty for bare attributes.
	Alias string
	Attr  string
}

// String renders the key in query syntax.
func (g GroupKey) String() string {
	if g.Alias == "" {
		return g.Attr
	}
	return g.Alias + "." + g.Attr
}

// Query is an event trend aggregation query (Definition 6).
type Query struct {
	// Returns lists the requested aggregates (RETURN clause). Bare
	// grouping attributes in the RETURN clause are recorded in
	// ReturnKeys and echo the group.
	Returns agg.Specs
	// ReturnKeys are the non-aggregate RETURN items, which must also
	// appear in GROUP-BY.
	ReturnKeys []GroupKey
	// Pattern is the Kleene pattern P.
	Pattern pattern.Node
	// Semantics is the event matching semantics S.
	Semantics Semantics
	// Where holds the classified predicates θ (may be empty).
	Where *predicate.Set
	// GroupBy lists the grouping keys G (may be empty).
	GroupBy []GroupKey
	// Window is the WITHIN/SLIDE clause in stream time units.
	Window window.Spec
}

// String renders the query as its canonical text: different queries
// render differently, and Parse(q.String()) gives q back for every
// query Validate accepts. The text without its RETURN line is the sharing fingerprint of the compiled
// plan, and the text is what a snapshot records of a query.
func (q *Query) String() string {
	var b strings.Builder
	b.Grow(192) // most queries fit: one allocation
	b.WriteString("RETURN ")
	for i, k := range q.ReturnKeys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k.String())
	}
	for i, s := range q.Returns {
		if i > 0 || len(q.ReturnKeys) > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString("\nPATTERN ")
	b.WriteString(q.Pattern.String())
	b.WriteString("\nSEMANTICS ")
	b.WriteString(q.Semantics.String())
	if q.Where != nil {
		if w := q.Where.String(); w != "true" {
			b.WriteString("\nWHERE ")
			b.WriteString(w)
		}
	}
	for i, k := range q.GroupBy {
		if i == 0 {
			b.WriteString("\nGROUP-BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(k.String())
	}
	var num [20]byte
	b.WriteString("\nWITHIN ")
	b.Write(strconv.AppendInt(num[:0], q.Window.Within, 10))
	b.WriteString(" SLIDE ")
	b.Write(strconv.AppendInt(num[:0], q.Window.Slide, 10))
	return b.String()
}

// Validate performs the static checks shared by all execution
// strategies: well-formed pattern, aggregates referencing pattern
// aliases, group keys consistent with equivalence predicates, and a
// valid window. It also refuses what no query text can write, so that
// String renders every valid query in full: names that do not lex as
// one identifier (or, for pattern types and aliases, read as a
// keyword), a pattern nested deeper than the parser follows, a local
// predicate without an event type or whose value is neither a finite
// float64 nor a string, and operators or semantics out of range.
func (q *Query) Validate() error {
	if q.Pattern == nil {
		return fmt.Errorf("query: missing PATTERN clause")
	}
	if err := pattern.Validate(q.Pattern); err != nil {
		return err
	}
	if q.Semantics < Any || q.Semantics > Cont {
		return fmt.Errorf("query: unknown semantics %d", q.Semantics)
	}
	if err := q.Returns.Validate(); err != nil {
		return err
	}
	if err := q.Window.Validate(); err != nil {
		return err
	}
	aliases := pattern.AliasTypes(q.Pattern) // alias → event type
	for a, typ := range aliases {
		if !isIdent(a) || reserved(a) || !isIdent(typ) || reserved(typ) {
			return fmt.Errorf("query: pattern type %q or alias %q is not an identifier or is a keyword", typ, a)
		}
	}
	for _, s := range q.Returns {
		if s.Alias != "" && aliases[s.Alias] == "" {
			return fmt.Errorf("query: aggregate %s references unknown event type %q", s, s.Alias)
		}
		if s.Attr != "" && !isIdent(s.Attr) {
			return fmt.Errorf("query: aggregate attribute %q is not an identifier", s.Attr)
		}
	}
	if q.Where == nil {
		q.Where = &predicate.Set{}
	}
	for _, p := range q.Where.Locals {
		if aliases[p.Alias] == "" {
			return fmt.Errorf("query: predicate %s references unknown event type %q", p, p.Alias)
		}
		if err := validateOp(p.Op, p.Attr); err != nil {
			return err
		}
		switch v := p.Value.(type) {
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("query: predicate %s compares with a non-finite number", p)
			}
		case string:
		default:
			return fmt.Errorf("query: predicate %s compares with a %T, not a float64 or a string", p, p.Value)
		}
	}
	for _, p := range q.Where.Equivalences {
		if p.Alias != "" && aliases[p.Alias] == "" {
			return fmt.Errorf("query: predicate %s references unknown event type %q", p, p.Alias)
		}
		if !isIdent(p.Attr) {
			return fmt.Errorf("query: attribute %q is not an identifier", p.Attr)
		}
	}
	for _, p := range q.Where.Adjacents {
		if aliases[p.Left] == "" || aliases[p.Right] == "" {
			return fmt.Errorf("query: predicate %s references unknown event type", p)
		}
		if err := validateOp(p.Op, p.LeftAttr); err != nil {
			return err
		}
		if !isIdent(p.RightAttr) {
			return fmt.Errorf("query: attribute %q is not an identifier", p.RightAttr)
		}
	}
	for _, k := range q.GroupBy {
		if !isIdent(k.Attr) {
			return fmt.Errorf("query: GROUP-BY attribute %q is not an identifier", k.Attr)
		}
	}
	// Alias-scoped grouping needs the matching equivalence predicate:
	// GROUP-BY A.company requires [A.company] so that every trend has
	// a single well-defined group (the paper's q3 pairs them).
	for _, g := range q.GroupBy {
		if g.Alias == "" {
			continue
		}
		if aliases[g.Alias] == "" {
			return fmt.Errorf("query: GROUP-BY %s references unknown event type %q", g, g.Alias)
		}
		found := false
		for _, p := range q.Where.Equivalences {
			if p.Alias == g.Alias && p.Attr == g.Attr {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("query: GROUP-BY %s requires the equivalence predicate [%s.%s]", g, g.Alias, g.Attr)
		}
	}
	// RETURN keys must be grouped.
	for _, k := range q.ReturnKeys {
		found := false
		for _, g := range q.GroupBy {
			if g == k {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("query: RETURN item %s does not appear in GROUP-BY", k)
		}
	}
	return nil
}

// validateOp checks a predicate's operator and attribute name.
func validateOp(op predicate.Op, attr string) error {
	if op < predicate.Lt || op > predicate.Ne {
		return fmt.Errorf("query: unknown comparison operator %d", op)
	}
	if !isIdent(attr) {
		return fmt.Errorf("query: attribute %q is not an identifier", attr)
	}
	return nil
}
