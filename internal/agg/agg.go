// Package agg implements the incremental aggregation algebra of the
// COGRA paper (§2.3, Table 8). Every aggregator in this repository —
// the three COGRA granularities, the GRETA graph baseline and the
// two-step baselines' per-trend fold — manipulates the same Node
// values with the same two operations:
//
//   - Merge (⊕): combine the aggregates of two disjoint sets of
//     (partial) trends;
//   - ExtendInto (⊗ by one event): given the merged aggregate of all
//     partial trends a new event e continues, plus the number of fresh
//     trends e begins, produce the aggregate of all trends ending at e.
//     The COGRA kernels call it with the alias test and attribute
//     values resolved ahead, the baselines with per-alias masks and
//     values read by name.
//
// Because COUNT, MIN, MAX and SUM are distributive and AVG is
// algebraic over (SUM, COUNT) [Gray et al. 1997], these two operations
// are sufficient no matter at which granularity nodes are kept —
// per event, per type or per pattern.
//
// Trend counts grow as 2^n under skip-till-any-match, so no fixed-
// width integer can hold them exactly; all counts in this repository
// are uint64 with well-defined wrap-around modulo 2^64. Every
// approach uses the same arithmetic, so cross-approach equality
// checks remain exact.
//
// A reported Value costs its numbers: it points at its Spec in the
// reporting plan's Specs (Specs.ReportInto), which nothing writes once
// the plan is compiled, instead of copying it into every row. Readers
// get a copy through Value.Spec, so a row's receiver can never write
// into a plan, and specs compare by content, never by address. A
// snapshot frame still writes each value's spec inline (CodeValues).
package agg

import (
	"fmt"
	"math"
	"strings"
)

// Func enumerates the aggregation functions of §2.3.
type Func int

// Aggregation functions. CountStar counts trends; the others aggregate
// over the events of one alias within each trend.
const (
	CountStar Func = iota
	CountType      // COUNT(E): total E-event occurrences across trends
	Min            // MIN(E.attr)
	Max            // MAX(E.attr)
	Sum            // SUM(E.attr)
	Avg            // AVG(E.attr) = SUM(E.attr)/COUNT(E)
)

// String renders the function name.
func (f Func) String() string {
	switch f {
	case CountStar:
		return "COUNT"
	case CountType:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	}
	return "?"
}

// Spec is one aggregation request from the RETURN clause.
type Spec struct {
	Func Func
	// Alias is the target event type in the pattern (the paper's E);
	// empty for COUNT(*).
	Alias string
	// Attr is the aggregated attribute; empty for COUNT(*) / COUNT(E).
	Attr string
}

// String renders the spec in query syntax, e.g. "MIN(M.rate)".
func (s Spec) String() string {
	switch s.Func {
	case CountStar:
		return "COUNT(*)"
	case CountType:
		return "COUNT(" + s.Alias + ")"
	default:
		return s.Func.String() + "(" + s.Alias + "." + s.Attr + ")"
	}
}

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	switch s.Func {
	case CountStar:
		if s.Alias != "" || s.Attr != "" {
			return fmt.Errorf("agg: COUNT(*) takes no operand")
		}
	case CountType:
		if s.Alias == "" {
			return fmt.Errorf("agg: COUNT(E) needs an event type")
		}
		if s.Attr != "" {
			return fmt.Errorf("agg: COUNT(E) takes no attribute")
		}
	case Min, Max, Sum, Avg:
		if s.Alias == "" || s.Attr == "" {
			return fmt.Errorf("agg: %s needs E.attr", s.Func)
		}
	default:
		return fmt.Errorf("agg: unknown function %d", s.Func)
	}
	return nil
}

// Aux is the per-spec auxiliary state inside a Node: N carries event
// counts (COUNT(E), the count half of AVG), F carries min/max/sum, and
// Valid marks whether F holds any contribution yet (a trend with no
// target-alias event contributes nothing to MIN/MAX).
type Aux struct {
	N     uint64
	F     float64
	Valid bool
}

// Node is the aggregate of a set of (partial) trends: Count is the
// number of trends in the set (the paper's e.count / E.count /
// el.count, wrapping mod 2^64) and Aux holds one entry per spec.
type Node struct {
	Count uint64
	Aux   []Aux
}

// Specs is a compiled RETURN clause; its methods implement Table 8.
type Specs []Spec

// Validate checks every spec.
func (ss Specs) Validate() error {
	if len(ss) == 0 {
		return fmt.Errorf("agg: empty RETURN clause")
	}
	for _, s := range ss {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Zero returns the aggregate of the empty trend set.
func (ss Specs) Zero() Node {
	return Node{Aux: make([]Aux, len(ss))}
}

// Merge folds src into dst: the aggregate of the union of two disjoint
// trend sets.
func (ss Specs) Merge(dst *Node, src Node) {
	dst.Count += src.Count
	for i, s := range ss {
		a, b := &dst.Aux[i], src.Aux[i]
		switch s.Func {
		case CountStar:
			// Count field carries everything.
		case CountType:
			a.N += b.N
		case Min:
			if b.Valid && (!a.Valid || b.F < a.F) {
				a.F, a.Valid = b.F, true
			}
		case Max:
			if b.Valid && (!a.Valid || b.F > a.F) {
				a.F, a.Valid = b.F, true
			}
		case Sum:
			a.F += b.F
			a.Valid = a.Valid || b.Valid
		case Avg:
			a.N += b.N
			a.F += b.F
			a.Valid = a.Valid || b.Valid
		}
	}
}

// SpecSource supplies the aggregated attribute value of spec i for the
// event being extended, addressed by spec index: the COGRA runtime's
// resolved view reads it from an array, the baselines by name.
type SpecSource interface {
	SpecNum(i int) (float64, bool)
}

// ExtendInto is the ⊗ step of Table 8, writing into dst the aggregate
// of all trends ending at a new event e: pred is the merged aggregate
// of every partial trend e continues, started the number of fresh
// trends e begins (1 if its alias is a start type of the pattern, else
// 0), match[i] whether spec i targets e's alias, and e supplies
// attribute values by spec index:
//
//	count  = pred.count + started
//	countE = pred.countE + (match ? count : 0)
//	min    = match ? min(pred.min, e.attr) : pred.min
//	sum    = pred.sum + (match ? e.attr * count : 0)
//
// Events of other aliases only propagate. dst must not alias pred.
//
// Storage: dst's Aux is written in place when it has room for len(ss)
// entries, and only a node without room (a baseline's fresh one) gets a
// new array. The COGRA kernels always give their nodes room from storage
// they own — a table keeps its first entry's auxiliaries inline and
// carves the rest from one array per doubling — so ⊗ never allocates
// there. ZeroInto and CodeNode follow the same rule.
func (ss Specs) ExtendInto(dst *Node, pred Node, match []bool, e SpecSource, started uint64) {
	if cap(dst.Aux) >= len(ss) {
		dst.Aux = dst.Aux[:len(ss)]
	} else {
		dst.Aux = make([]Aux, len(ss))
	}
	n := copy(dst.Aux, pred.Aux)
	for i := n; i < len(dst.Aux); i++ {
		dst.Aux[i] = Aux{}
	}
	dst.Count = pred.Count + started
	for i, s := range ss {
		if !match[i] {
			continue
		}
		a := &dst.Aux[i]
		switch s.Func {
		case CountType:
			a.N += dst.Count
		case Min:
			if v, ok := e.SpecNum(i); ok && (!a.Valid || v < a.F) {
				a.F, a.Valid = v, true
			}
		case Max:
			if v, ok := e.SpecNum(i); ok && (!a.Valid || v > a.F) {
				a.F, a.Valid = v, true
			}
		case Sum:
			if v, ok := e.SpecNum(i); ok {
				a.F += v * float64(dst.Count)
				a.Valid = true
			}
		case Avg:
			a.N += dst.Count
			if v, ok := e.SpecNum(i); ok {
				a.F += v * float64(dst.Count)
				a.Valid = true
			}
		}
	}
}

// ZeroInto resets n to the aggregate of the empty trend set, in n's own
// Aux storage when it has room (see ExtendInto).
func (ss Specs) ZeroInto(n *Node) {
	n.Count = 0
	if cap(n.Aux) >= len(ss) {
		n.Aux = n.Aux[:len(ss)]
		for i := range n.Aux {
			n.Aux[i] = Aux{}
		}
	} else {
		n.Aux = make([]Aux, len(ss))
	}
}

// Value is one reported aggregation result. It points at the
// reporting plan's Spec instead of copying it (see the package
// comment); the zero Value reports the zero Spec, COUNT(*).
type Value struct {
	spec *Spec
	// Count is set for COUNT(*) and COUNT(E); for AVG it carries the
	// contributing COUNT(E) denominator so disjoint partial results
	// stay mergeable (MergeValues).
	Count uint64
	// F is set for MIN/MAX/SUM/AVG; Valid is false when no trend
	// contributed (e.g. MIN over zero trends).
	F     float64
	Valid bool
	// Sum is AVG's raw numerator (F is the already-divided mean);
	// MergeValues re-divides from the merged Sum and Count so a
	// partitioned run reports the same quotient as a solo run.
	Sum float64
}

// Spec returns the aggregation request the value answers.
func (v Value) Spec() Spec {
	if v.spec == nil {
		return Spec{}
	}
	return *v.spec
}

// String renders the value, e.g. "COUNT(*)=43" or "MIN(M.rate)=61".
func (v Value) String() string {
	s := v.Spec()
	switch s.Func {
	case CountStar, CountType:
		return fmt.Sprintf("%s=%d", s, v.Count)
	default:
		if !v.Valid {
			return fmt.Sprintf("%s=null", s)
		}
		return fmt.Sprintf("%s=%g", s, v.F)
	}
}

// Report converts a final Node (the merged aggregate of all finished
// trends) into user-facing values; AVG divides SUM by COUNT(E).
func (ss Specs) Report(final Node) []Value {
	out := make([]Value, len(ss))
	ss.ReportInto(out, final)
	return out
}

// ReportInto is Report writing into out, which must hold len(ss)
// values: a caller reporting many nodes at once (a closing window)
// carves every row from one slab instead of allocating per row. The
// values point at ss's elements, which the caller must never write
// again — a compiled plan's Specs.
func (ss Specs) ReportInto(out []Value, final Node) {
	for i, s := range ss {
		v := Value{spec: &ss[i]}
		a := final.Aux[i]
		switch s.Func {
		case CountStar:
			v.Count = final.Count
			v.Valid = true
		case CountType:
			v.Count = a.N
			v.Valid = true
		case Min, Max:
			v.F, v.Valid = a.F, a.Valid
		case Sum:
			v.F, v.Valid = a.F, a.Valid
			if !a.Valid {
				v.F = 0
			}
		case Avg:
			v.Sum, v.Count = a.F, a.N
			if a.N == 0 || !a.Valid {
				v.Valid = false
				v.F = math.NaN()
			} else {
				v.F = a.F / float64(a.N)
				v.Valid = true
			}
		}
		out[i] = v
	}
}

// MergeValues folds src into dst, position-wise: the reported values
// of the union of two disjoint trend sets (the reported counterpart of
// Specs.Merge, for when the underlying Nodes are gone — e.g. combining
// per-partition results of one window gathered from parallel workers).
// Both slices must come from the same Specs.
func MergeValues(dst, src []Value) {
	for i := range dst {
		a, b := &dst[i], src[i]
		switch a.Spec().Func {
		case CountStar, CountType:
			a.Count += b.Count
		case Min:
			if b.Valid && (!a.Valid || b.F < a.F) {
				a.F, a.Valid = b.F, true
			}
		case Max:
			if b.Valid && (!a.Valid || b.F > a.F) {
				a.F, a.Valid = b.F, true
			}
		case Sum:
			a.F += b.F
			a.Valid = a.Valid || b.Valid
		case Avg:
			a.Sum += b.Sum
			a.Count += b.Count
			a.Valid = a.Valid || b.Valid
			if a.Count == 0 || !a.Valid {
				a.F, a.Valid = math.NaN(), false
			} else {
				a.F = a.Sum / float64(a.Count)
			}
		}
	}
}

// ApproxEqual compares reported values with a relative tolerance on
// the float results; relTol 0 compares exactly (NaN equals NaN).
// Specs compare by content, never by address: equal values reported
// by two plans compiled from one text are equal. Counts are always
// compared exactly; SUM/AVG are accumulated in
// algorithm-specific orders, so independent implementations
// legitimately differ by rounding (the cross-approach experiment
// harness uses 1e-9).
func ApproxEqual(a, b []Value, relTol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Spec() != b[i].Spec() || a[i].Count != b[i].Count || a[i].Valid != b[i].Valid {
			return false
		}
		af, bf := a[i].F, b[i].F
		if af == bf || (math.IsNaN(af) && math.IsNaN(bf)) {
			continue
		}
		if relTol > 0 {
			diff := math.Abs(af - bf)
			scale := math.Max(math.Abs(af), math.Abs(bf))
			if diff <= relTol*scale {
				continue
			}
		}
		return false
	}
	return true
}

// FormatValues renders a value list as "COUNT(*)=43, MIN(M.rate)=61".
func FormatValues(vs []Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// FootprintBytes is the logical memory cost of one Node: 8 bytes for
// the count plus 24 per auxiliary entry (metrics accounting).
func (ss Specs) FootprintBytes() int64 { return 8 + 24*int64(len(ss)) }
