// Package predicate implements the WHERE-clause predicate model of the
// COGRA paper and its static classification (§3.2), which drives the
// granularity selector:
//
//   - Local predicates restrict attribute values of single events and
//     filter the stream, e.g. M.activity = passive.
//   - Equivalence predicates [attr] / [A.attr] require all events (or
//     all events bound to alias A) in a trend to carry the same value
//     of an attribute; they partition the stream into sub-streams (§7).
//   - Adjacent predicates relate attributes of adjacent events in a
//     trend, e.g. M.rate < NEXT(M).rate, and force event-grained
//     aggregate storage for the predecessor alias (Theorem 5.1).
package predicate

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a comparison operator ◦ ∈ {<, ≤, >, ≥, =, ≠}.
type Op int

// Comparison operators.
const (
	Lt Op = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String renders the operator in query syntax.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	}
	return "?"
}

// Compare evaluates l ◦ r for float64 or string operands. Mixed or
// unknown operand kinds compare unequal (and fail ordered operators),
// mirroring schema-less CEP engines that treat them as non-matching.
func Compare(l any, r any, op Op) bool {
	switch lv := l.(type) {
	case float64:
		rv, ok := r.(float64)
		if !ok {
			return op == Ne
		}
		return CompareFloats(lv, rv, op)
	case string:
		rv, ok := r.(string)
		if !ok {
			return op == Ne
		}
		return CompareStrings(lv, rv, op)
	}
	return op == Ne
}

// CompareFloats evaluates l ◦ r on numeric operands without boxing;
// the compiled predicate checks of the COGRA runtime call it once per
// candidate pair on the hot path.
func CompareFloats(l, r float64, op Op) bool {
	switch op {
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	case Eq:
		return l == r
	case Ne:
		return l != r
	}
	return false
}

// CompareStrings evaluates l ◦ r on symbolic operands without boxing.
func CompareStrings(l, r string, op Op) bool {
	switch op {
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	case Eq:
		return l == r
	case Ne:
		return l != r
	}
	return false
}

// attrGetter is the minimal event view the evaluator needs; satisfied
// by *event.Event. Keeping it structural avoids an import cycle and
// lets tests use lightweight fakes.
type attrGetter interface {
	Attr(name string) (any, bool)
}

// Local is a predicate on a single event: Alias.Attr ◦ Value.
// An empty Alias applies the predicate to events of every alias whose
// event carries the attribute.
type Local struct {
	Alias string
	Attr  string
	Op    Op
	Value any // float64 or string
}

// String renders the predicate in query syntax: a string value
// double-quoted with Go escapes, a number in the shortest form that
// reads back to it.
func (p Local) String() string {
	var v string
	switch x := p.Value.(type) {
	case float64:
		v = strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		v = strconv.Quote(x)
	default:
		v = fmt.Sprint(x)
	}
	target := p.Attr
	if p.Alias != "" {
		target = p.Alias + "." + p.Attr
	}
	return target + " " + p.Op.String() + " " + v
}

// Eval reports whether the event (matched under the given alias)
// satisfies the predicate. Predicates for other aliases pass
// vacuously; a missing attribute fails.
func (p Local) Eval(alias string, e attrGetter) bool {
	if p.Alias != "" && p.Alias != alias {
		return true
	}
	v, ok := e.Attr(p.Attr)
	if !ok {
		return false
	}
	return Compare(v, p.Value, p.Op)
}

// Equivalence is the [attr] / [A.attr] predicate: all events in a
// trend (or all events of alias A) carry the same value of Attr.
type Equivalence struct {
	// Alias scopes the predicate to one alias; empty means every event
	// in the trend must agree (the paper's [patient], [driver]).
	Alias string
	Attr  string
}

// String renders the predicate in query syntax.
func (p Equivalence) String() string {
	if p.Alias == "" {
		return "[" + p.Attr + "]"
	}
	return "[" + p.Alias + "." + p.Attr + "]"
}

// Adjacent is a predicate on adjacent events in a trend:
// Left.LeftAttr ◦ NEXT(Right).RightAttr, i.e. whenever an event ep
// bound to alias Left immediately precedes an event e bound to alias
// Right in a trend, ep.LeftAttr ◦ e.RightAttr must hold.
type Adjacent struct {
	Left      string
	LeftAttr  string
	Op        Op
	Right     string
	RightAttr string
}

// String renders the predicate in query syntax.
func (p Adjacent) String() string {
	return fmt.Sprintf("%s.%s %s NEXT(%s).%s", p.Left, p.LeftAttr, p.Op, p.Right, p.RightAttr)
}

// Guards reports whether the predicate constrains pairs where an event
// of predAlias precedes an event of alias.
func (p Adjacent) Guards(predAlias, alias string) bool {
	return p.Left == predAlias && p.Right == alias
}

// Eval evaluates the predicate on a concrete adjacent pair.
func (p Adjacent) Eval(prev, next attrGetter) bool {
	lv, ok := prev.Attr(p.LeftAttr)
	if !ok {
		return false
	}
	rv, ok := next.Attr(p.RightAttr)
	if !ok {
		return false
	}
	return Compare(lv, rv, p.Op)
}

// Set is the classified WHERE clause of a query (§3.2). The zero value
// is the empty predicate set (everything passes).
type Set struct {
	Locals       []Local
	Equivalences []Equivalence
	Adjacents    []Adjacent
}

// String renders the full WHERE clause.
func (s *Set) String() string {
	var parts []string
	for _, p := range s.Equivalences {
		parts = append(parts, p.String())
	}
	for _, p := range s.Locals {
		parts = append(parts, p.String())
	}
	for _, p := range s.Adjacents {
		parts = append(parts, p.String())
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " AND ")
}

// HasAdjacent reports whether the query has predicates on adjacent
// events — the condition of the granularity selector (Table 4).
func (s *Set) HasAdjacent() bool { return len(s.Adjacents) > 0 }

// EvalLocal reports whether an event matched under alias passes every
// local predicate.
func (s *Set) EvalLocal(alias string, e attrGetter) bool {
	for _, p := range s.Locals {
		if !p.Eval(alias, e) {
			return false
		}
	}
	return true
}

// EvalAdjacent reports whether the adjacent pair (prev under
// predAlias, next under alias) satisfies every adjacent predicate that
// guards the pair (Definition 7 condition 3).
func (s *Set) EvalAdjacent(predAlias string, prev attrGetter, alias string, next attrGetter) bool {
	for _, p := range s.Adjacents {
		if p.Guards(predAlias, alias) && !p.Eval(prev, next) {
			return false
		}
	}
	return true
}

// predTyper is the slice of the FSA the classifier needs.
type predTyper interface {
	PredTypes(alias string) []string
}

// EventGrainedAliases computes Te of Theorem 5.1: the aliases whose
// events must be stored individually because an adjacent predicate
// (E.attr ◦ Ex.attrx) constrains them and E ∈ P.predTypes(Ex). All
// remaining aliases form Tt and keep type-grained aggregates.
func (s *Set) EventGrainedAliases(fsa predTyper) map[string]bool {
	out := map[string]bool{}
	for _, p := range s.Adjacents {
		for _, predOfRight := range fsa.PredTypes(p.Right) {
			if predOfRight == p.Left {
				out[p.Left] = true
			}
		}
	}
	return out
}
