// Package pattern implements the Kleene pattern model of the COGRA
// paper (§2.1, Definition 1) and its static analysis (§3.1): the
// translation of a pattern into a Finite State Automaton representation
// that exposes start/end/mid types and the predecessor-type relation
// driving every aggregation algorithm.
//
// The grammar is
//
//	P ::= E | P+ | SEQ(P1, ..., Pk)
//
// extended per §8 with Kleene star P*, optional P?, disjunction
// OR(P1,...,Pk) and negation NOT(N) inside SEQ. Star and optional are
// syntactic sugar and are rewritten away before analysis
// (SEQ(Pi*, Pj) = SEQ(Pi+, Pj) ∨ Pj, and Pi? analogously).
//
// Each leaf names an event type and binds it to an alias (the paper's
// "event type in the pattern"; q3's "Stock A+" has type Stock and
// alias A). Aliases must be unique within a pattern; the multiple-
// occurrence extension of §8 is obtained by giving distinct aliases to
// repeated types.
package pattern

import (
	"fmt"
	"strings"
)

// Node is a node of the pattern abstract syntax tree.
type Node interface {
	fmt.Stringer
	// children returns sub-patterns for traversal.
	children() []Node
	clone() Node
}

// TypeNode is a leaf: one event type bound to an alias.
type TypeNode struct {
	// EventType is the stream event type to match, e.g. "Stock".
	EventType string
	// Alias is the pattern-local name, e.g. "A". If the query wrote a
	// bare type ("Measurement M+" aliases M; "Accept" aliases Accept),
	// the parser fills Alias in.
	Alias string
}

// SeqNode is the event sequence operator SEQ(P1, ..., Pk).
type SeqNode struct{ Parts []Node }

// PlusNode is the Kleene plus operator P+.
type PlusNode struct{ Sub Node }

// StarNode is the Kleene star operator P* (§8, sugar for (P+)?).
type StarNode struct{ Sub Node }

// OptNode is the optional operator P? (§8 sugar).
type OptNode struct{ Sub Node }

// OrNode is the disjunction operator OR(P1,...,Pk) (§8).
type OrNode struct{ Parts []Node }

// NotNode marks a negated sub-pattern NOT(N) appearing inside a SEQ
// (§8). A match of N between the surrounding positive sub-patterns
// invalidates trends that would span it.
type NotNode struct{ Sub Node }

// Type constructs a leaf with alias defaulting to the type name.
func Type(eventType string) *TypeNode {
	return &TypeNode{EventType: eventType, Alias: eventType}
}

// TypeAs constructs a leaf with an explicit alias.
func TypeAs(eventType, alias string) *TypeNode {
	return &TypeNode{EventType: eventType, Alias: alias}
}

// Seq constructs SEQ(parts...).
func Seq(parts ...Node) *SeqNode { return &SeqNode{Parts: parts} }

// Plus constructs sub+.
func Plus(sub Node) *PlusNode { return &PlusNode{Sub: sub} }

// Star constructs sub*.
func Star(sub Node) *StarNode { return &StarNode{Sub: sub} }

// Opt constructs sub?.
func Opt(sub Node) *OptNode { return &OptNode{Sub: sub} }

// Or constructs OR(parts...).
func Or(parts ...Node) *OrNode { return &OrNode{Parts: parts} }

// Not constructs NOT(sub).
func Not(sub Node) *NotNode { return &NotNode{Sub: sub} }

func (n *TypeNode) children() []Node { return nil }
func (n *SeqNode) children() []Node  { return n.Parts }
func (n *PlusNode) children() []Node { return []Node{n.Sub} }
func (n *StarNode) children() []Node { return []Node{n.Sub} }
func (n *OptNode) children() []Node  { return []Node{n.Sub} }
func (n *OrNode) children() []Node   { return n.Parts }
func (n *NotNode) children() []Node  { return []Node{n.Sub} }

// Children returns a node's direct sub-patterns in syntactic order
// (nil for leaves), for callers outside the package that need a
// generic traversal — e.g. the fuzz query generator classifying
// negated aliases.
func Children(n Node) []Node { return n.children() }

func (n *TypeNode) clone() Node { c := *n; return &c }
func (n *SeqNode) clone() Node  { return &SeqNode{Parts: cloneAll(n.Parts)} }
func (n *PlusNode) clone() Node { return &PlusNode{Sub: n.Sub.clone()} }
func (n *StarNode) clone() Node { return &StarNode{Sub: n.Sub.clone()} }
func (n *OptNode) clone() Node  { return &OptNode{Sub: n.Sub.clone()} }
func (n *OrNode) clone() Node   { return &OrNode{Parts: cloneAll(n.Parts)} }
func (n *NotNode) clone() Node  { return &NotNode{Sub: n.Sub.clone()} }

func cloneAll(parts []Node) []Node {
	out := make([]Node, len(parts))
	for i, p := range parts {
		out[i] = p.clone()
	}
	return out
}

func (n *TypeNode) String() string {
	if n.Alias != "" && n.Alias != n.EventType {
		return n.EventType + " " + n.Alias
	}
	return n.EventType
}

func (n *SeqNode) String() string {
	parts := make([]string, len(n.Parts))
	for i, p := range n.Parts {
		parts[i] = p.String()
	}
	return "SEQ(" + strings.Join(parts, ", ") + ")"
}

func (n *PlusNode) String() string { return wrap(n.Sub) + "+" }
func (n *StarNode) String() string { return wrap(n.Sub) + "*" }
func (n *OptNode) String() string  { return wrap(n.Sub) + "?" }

func (n *OrNode) String() string {
	parts := make([]string, len(n.Parts))
	for i, p := range n.Parts {
		parts[i] = p.String()
	}
	return "OR(" + strings.Join(parts, ", ") + ")"
}

func (n *NotNode) String() string { return "NOT(" + n.Sub.String() + ")" }

// wrap parenthesises composite sub-patterns under a postfix operator.
func wrap(n Node) string {
	if t, ok := n.(*TypeNode); ok && (t.Alias == "" || t.Alias == t.EventType) {
		return n.String()
	}
	return "(" + n.String() + ")"
}

// Aliases returns every alias appearing in the pattern, in left-to-
// right order of first appearance (negated sub-patterns included).
func Aliases(p Node) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if t, ok := n.(*TypeNode); ok {
			if !seen[t.Alias] {
				seen[t.Alias] = true
				out = append(out, t.Alias)
			}
			return
		}
		for _, c := range n.children() {
			walk(c)
		}
	}
	walk(p)
	return out
}

// HasKleene reports whether the pattern contains a Kleene plus or star
// operator, i.e. whether it is a Kleene pattern (Definition 1) matching
// trends of unbounded length.
func HasKleene(p Node) bool {
	switch v := p.(type) {
	case *PlusNode, *StarNode:
		return true
	default:
		for _, c := range v.children() {
			if HasKleene(c) {
				return true
			}
		}
		return false
	}
}

// MaxDepth bounds how deep a pattern nests: Validate refuses a deeper
// one, and the query parser stops there, so no pattern drives unbounded
// recursion.
const MaxDepth = 1000

// Validate checks the structural assumptions of §2.1: aliases unique,
// SEQ/OR non-empty, negation only directly inside SEQ and not at the
// borders of the whole pattern, and nesting at most MaxDepth deep.
func Validate(p Node) error {
	seen := map[string]bool{}
	var walk func(n Node, inSeq bool, depth int) error
	walk = func(n Node, inSeq bool, depth int) error {
		if depth > MaxDepth {
			return fmt.Errorf("pattern: nesting exceeds %d levels", MaxDepth)
		}
		switch v := n.(type) {
		case *TypeNode:
			if v.EventType == "" {
				return fmt.Errorf("pattern: empty event type")
			}
			if v.Alias == "" {
				return fmt.Errorf("pattern: type %s has empty alias", v.EventType)
			}
			if seen[v.Alias] {
				return fmt.Errorf("pattern: duplicate alias %q (give repeated types distinct aliases, §8)", v.Alias)
			}
			seen[v.Alias] = true
			return nil
		case *SeqNode:
			if len(v.Parts) == 0 {
				return fmt.Errorf("pattern: empty SEQ")
			}
			for _, c := range v.Parts {
				if err := walk(c, true, depth+1); err != nil {
					return err
				}
			}
			return nil
		case *OrNode:
			if len(v.Parts) == 0 {
				return fmt.Errorf("pattern: empty OR")
			}
			for _, c := range v.Parts {
				if err := walk(c, false, depth+1); err != nil {
					return err
				}
			}
			return nil
		case *NotNode:
			if !inSeq {
				return fmt.Errorf("pattern: NOT may only appear inside SEQ")
			}
			return walk(v.Sub, false, depth+1)
		case *PlusNode:
			return walk(v.Sub, false, depth+1)
		case *StarNode:
			return walk(v.Sub, false, depth+1)
		case *OptNode:
			return walk(v.Sub, false, depth+1)
		default:
			return fmt.Errorf("pattern: unknown node %T", n)
		}
	}
	return walk(p, false, 0)
}

// Desugar rewrites Kleene star and optional operators away (§8):
//
//	SEQ(..., P*, ...)  becomes  OR(SEQ(..., P+, ...), SEQ(..., ...))
//	SEQ(..., P?, ...)  becomes  OR(SEQ(..., P, ...), SEQ(..., ...))
//
// realised locally as P* -> OR(P+, ε) via distribution over the
// enclosing SEQ. Top-level P* / P? are rejected since a trend must
// contain at least one event. The returned pattern contains only
// TypeNode, SeqNode, PlusNode, OrNode and NotNode.
func Desugar(p Node) (Node, error) {
	out, eps, err := desugar(p)
	if err != nil {
		return nil, err
	}
	if eps || out == nil {
		return nil, fmt.Errorf("pattern: %s may match the empty trend; wrap it so at least one event is required", p)
	}
	return out, nil
}

// desugar returns the rewritten pattern plus whether it can also match
// the empty trend (ε). A nil node with eps=true is pure ε.
func desugar(p Node) (Node, bool, error) {
	switch v := p.(type) {
	case *TypeNode:
		return v.clone(), false, nil
	case *PlusNode:
		sub, eps, err := desugar(v.Sub)
		if err != nil {
			return nil, false, err
		}
		if eps {
			return nil, false, fmt.Errorf("pattern: Kleene over possibly-empty sub-pattern %s", v.Sub)
		}
		return &PlusNode{Sub: sub}, false, nil
	case *StarNode:
		sub, eps, err := desugar(v.Sub)
		if err != nil {
			return nil, false, err
		}
		if eps {
			return nil, false, fmt.Errorf("pattern: Kleene over possibly-empty sub-pattern %s", v.Sub)
		}
		return &PlusNode{Sub: sub}, true, nil
	case *OptNode:
		sub, eps, err := desugar(v.Sub)
		if err != nil {
			return nil, false, err
		}
		if eps {
			return sub, true, nil
		}
		return sub, true, nil
	case *NotNode:
		sub, eps, err := desugar(v.Sub)
		if err != nil {
			return nil, false, err
		}
		if eps {
			return nil, false, fmt.Errorf("pattern: negated sub-pattern %s may be empty", v.Sub)
		}
		return &NotNode{Sub: sub}, false, nil
	case *OrNode:
		parts := make([]Node, 0, len(v.Parts))
		anyEps := false
		for _, c := range v.Parts {
			sub, eps, err := desugar(c)
			if err != nil {
				return nil, false, err
			}
			anyEps = anyEps || eps
			if sub != nil {
				parts = append(parts, sub)
			}
		}
		if len(parts) == 0 {
			return nil, anyEps, nil
		}
		if len(parts) == 1 {
			return parts[0], anyEps, nil
		}
		return &OrNode{Parts: parts}, anyEps, nil
	case *SeqNode:
		// Distribute optionality: each part contributes either its
		// non-empty form, or nothing if it admits ε. We build the set
		// of alternative SEQ bodies; with k optional parts that is 2^k
		// alternatives, folded into a single OR. Patterns in practice
		// have very few optional parts.
		type alt struct{ parts []Node }
		alts := []alt{{}}
		for _, c := range v.Parts {
			sub, eps, err := desugar(c)
			if err != nil {
				return nil, false, err
			}
			var next []alt
			for _, a := range alts {
				if sub != nil {
					withPart := make([]Node, len(a.parts), len(a.parts)+1)
					copy(withPart, a.parts)
					next = append(next, alt{parts: append(withPart, cloneFresh(sub))})
				}
				if eps {
					next = append(next, alt{parts: a.parts})
				}
			}
			alts = next
		}
		var bodies []Node
		canEps := false
		for _, a := range alts {
			switch len(a.parts) {
			case 0:
				canEps = true
			case 1:
				bodies = append(bodies, a.parts[0])
			default:
				bodies = append(bodies, &SeqNode{Parts: a.parts})
			}
		}
		if len(bodies) == 0 {
			return nil, canEps, nil
		}
		if len(bodies) == 1 {
			return bodies[0], canEps, nil
		}
		return &OrNode{Parts: bodies}, canEps, nil
	default:
		return nil, false, fmt.Errorf("pattern: unknown node %T", p)
	}
}

// cloneFresh deep-copies a node so OR alternatives produced by Desugar
// do not share mutable structure.
func cloneFresh(n Node) Node { return n.clone() }

// UnrollMinLength rewrites P+ so trends shorter than min are excluded
// (§8 "Predicates on Minimal Trend Length"): A+ with min 3 becomes
// SEQ(A_1, A_2, A+). Unrolled copies get numbered aliases. Only
// top-level PlusNode over a single type is supported, matching the
// paper's example; other shapes return an error.
func UnrollMinLength(p Node, min int) (Node, error) {
	if min <= 1 {
		return p, nil
	}
	plus, ok := p.(*PlusNode)
	if !ok {
		return nil, fmt.Errorf("pattern: min-length unrolling needs a top-level Kleene plus, got %s", p)
	}
	leaf, ok := plus.Sub.(*TypeNode)
	if !ok {
		return nil, fmt.Errorf("pattern: min-length unrolling supports E+ only, got %s", p)
	}
	parts := make([]Node, 0, min)
	for i := 1; i < min; i++ {
		parts = append(parts, &TypeNode{
			EventType: leaf.EventType,
			Alias:     fmt.Sprintf("%s_%d", leaf.Alias, i),
		})
	}
	parts = append(parts, &PlusNode{Sub: leaf.clone()})
	return &SeqNode{Parts: parts}, nil
}

// AliasTypes maps alias -> stream event type for every leaf.
func AliasTypes(p Node) map[string]string {
	m := map[string]string{}
	var walk func(Node)
	walk = func(n Node) {
		if t, ok := n.(*TypeNode); ok {
			m[t.Alias] = t.EventType
			return
		}
		for _, c := range n.children() {
			walk(c)
		}
	}
	walk(p)
	return m
}
