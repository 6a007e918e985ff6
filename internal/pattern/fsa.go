package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// NegConstraint records one negated sub-pattern NOT(N) found between
// two positive sub-patterns inside a SEQ (§8). A match of Neg renders
// all previously matched events of the Pred aliases incompatible with
// all future events of the Follow aliases.
type NegConstraint struct {
	// Neg is the negated sub-pattern.
	Neg Node
	// Pred holds the end aliases of the positive sub-pattern preceding
	// the negation (the paper's Tp).
	Pred []string
	// Follow holds the start aliases of the positive sub-pattern
	// following the negation (the paper's Tf).
	Follow []string
}

// FSA is the Finite State Automaton representation of a pattern
// (§3.1). States are aliases ("event types in the pattern"); since an
// alias occurs exactly once, the language of alias strings is local:
// a string matches iff its first alias is a start type, its last alias
// is an end type, and every adjacent pair is connected by a transition.
// This locality is precisely what makes predecessor-type bookkeeping
// (Definition 7) sufficient for trend aggregation.
type FSA struct {
	// Pattern is the desugared pattern the FSA was built from.
	Pattern Node
	// Aliases lists the states in order of first appearance.
	Aliases []string
	// AliasType maps alias -> stream event type.
	AliasType map[string]string
	// Start is the set of start types start(P).
	Start map[string]bool
	// End is the set of end types end(P).
	End map[string]bool
	// Pred maps an alias E to P.predTypes(E), sorted.
	Pred map[string][]string
	// Succ is the inverse of Pred, sorted.
	Succ map[string][]string
	// Negations lists negated sub-patterns with their guard aliases.
	Negations []NegConstraint
	// TypeAliases maps a stream event type to the aliases matching it
	// (more than one under the multiple-occurrence extension of §8).
	TypeAliases map[string][]string
}

// Compile desugars, validates and analyses a pattern.
func Compile(p Node) (*FSA, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	d, err := Desugar(p)
	if err != nil {
		return nil, err
	}
	f := &FSA{
		Pattern:     d,
		AliasType:   AliasTypes(d),
		Start:       map[string]bool{},
		End:         map[string]bool{},
		Pred:        map[string][]string{},
		Succ:        map[string][]string{},
		TypeAliases: map[string][]string{},
	}
	f.Aliases = Aliases(d)
	edges := map[[2]string]bool{}
	starts, ends, err := f.analyse(d, edges)
	if err != nil {
		return nil, err
	}
	for _, s := range starts {
		f.Start[s] = true
	}
	for _, e := range ends {
		f.End[e] = true
	}
	predSets := map[string]map[string]bool{}
	succSets := map[string]map[string]bool{}
	for _, a := range f.Aliases {
		predSets[a] = map[string]bool{}
		succSets[a] = map[string]bool{}
	}
	for e := range edges {
		from, to := e[0], e[1]
		predSets[to][from] = true
		succSets[from][to] = true
	}
	for _, a := range f.Aliases {
		f.Pred[a] = sortedKeys(predSets[a])
		f.Succ[a] = sortedKeys(succSets[a])
		f.TypeAliases[f.AliasType[a]] = append(f.TypeAliases[f.AliasType[a]], a)
	}
	return f, nil
}

// analyse walks the desugared tree, returning start and end alias
// lists and filling the edge set. The construction mirrors §3.1:
//
//	E:              starts = ends = {E}
//	SEQ(P1,...,Pk): ends(Pi) -> starts(Pi+1) for consecutive positive
//	                parts; NOT parts raise negation constraints
//	P+:             edges of P plus ends(P) -> starts(P) loop-back
//	OR(P1,...,Pk):  unions
func (f *FSA) analyse(p Node, edges map[[2]string]bool) (starts, ends []string, err error) {
	switch v := p.(type) {
	case *TypeNode:
		return []string{v.Alias}, []string{v.Alias}, nil
	case *PlusNode:
		s, e, err := f.analyse(v.Sub, edges)
		if err != nil {
			return nil, nil, err
		}
		for _, from := range e {
			for _, to := range s {
				edges[[2]string{from, to}] = true
			}
		}
		return s, e, nil
	case *OrNode:
		var ss, es []string
		for _, c := range v.Parts {
			s, e, err := f.analyse(c, edges)
			if err != nil {
				return nil, nil, err
			}
			ss = append(ss, s...)
			es = append(es, e...)
		}
		return ss, es, nil
	case *SeqNode:
		var prevEnds []string
		var pendingNeg []Node
		first := true
		for _, c := range v.Parts {
			if not, ok := c.(*NotNode); ok {
				if first {
					return nil, nil, fmt.Errorf("pattern: NOT at the start of SEQ")
				}
				pendingNeg = append(pendingNeg, not.Sub)
				continue
			}
			s, e, err := f.analyse(c, edges)
			if err != nil {
				return nil, nil, err
			}
			if first {
				starts = s
				first = false
			} else {
				for _, from := range prevEnds {
					for _, to := range s {
						edges[[2]string{from, to}] = true
					}
				}
				for _, neg := range pendingNeg {
					f.Negations = append(f.Negations, NegConstraint{
						Neg:    neg,
						Pred:   append([]string(nil), prevEnds...),
						Follow: append([]string(nil), s...),
					})
				}
				pendingNeg = nil
			}
			prevEnds = e
		}
		if len(pendingNeg) > 0 {
			return nil, nil, fmt.Errorf("pattern: NOT at the end of SEQ")
		}
		if first {
			return nil, nil, fmt.Errorf("pattern: SEQ with no positive parts")
		}
		return starts, prevEnds, nil
	default:
		return nil, nil, fmt.Errorf("pattern: unexpected node %T after desugaring", p)
	}
}

// PredTypes returns P.predTypes(alias) (§3.1).
func (f *FSA) PredTypes(alias string) []string { return f.Pred[alias] }

// IsStart reports whether alias is a start type of the pattern.
func (f *FSA) IsStart(alias string) bool { return f.Start[alias] }

// IsEnd reports whether alias is an end type of the pattern.
func (f *FSA) IsEnd(alias string) bool { return f.End[alias] }

// StartAliases returns the start types, sorted.
func (f *FSA) StartAliases() []string { return sortedKeys(f.Start) }

// EndAliases returns the end types, sorted.
func (f *FSA) EndAliases() []string { return sortedKeys(f.End) }

// AliasesForType returns the aliases that match events of the given
// stream type.
func (f *FSA) AliasesForType(eventType string) []string {
	return f.TypeAliases[eventType]
}

// AcceptsAliasSeq reports whether a sequence of aliases is in the
// pattern language (start, adjacency, end — the local language).
func (f *FSA) AcceptsAliasSeq(seq []string) bool {
	if len(seq) == 0 {
		return false
	}
	if !f.Start[seq[0]] || !f.End[seq[len(seq)-1]] {
		return false
	}
	for i := 1; i < len(seq); i++ {
		if !contains(f.Pred[seq[i]], seq[i-1]) {
			return false
		}
	}
	return true
}

// Flatten enumerates every alias string in the pattern language with
// length at most maxLen, in order of increasing length then
// lexicographic. This is the Kleene-flattening both the A-Seq and the
// Flink baselines require (§9.1: "we flatten our queries ... a set of
// fixed-length event sequence queries that cover all possible lengths
// up to l"). The result can be exponential in maxLen for branching
// patterns; callers cap maxLen and account the cost, which is exactly
// the weakness the paper's experiments expose.
func (f *FSA) Flatten(maxLen int) [][]string {
	var out [][]string
	var cur []string
	var dfs func(last string)
	dfs = func(last string) {
		if f.End[last] {
			out = append(out, append([]string(nil), cur...))
		}
		if len(cur) >= maxLen {
			return
		}
		for _, next := range f.Succ[last] {
			cur = append(cur, next)
			dfs(next)
			cur = cur[:len(cur)-1]
		}
	}
	for _, s := range f.StartAliases() {
		cur = []string{s}
		dfs(s)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// CountFlattened returns how many alias strings of length exactly n are
// in the pattern language, without materialising them (dynamic program
// over the transition relation). Used to reason about the baseline
// query-workload sizes in benchmarks.
func (f *FSA) CountFlattened(n int) uint64 {
	if n <= 0 {
		return 0
	}
	cur := map[string]uint64{}
	for a := range f.Start {
		cur[a] = 1
	}
	for step := 1; step < n; step++ {
		next := map[string]uint64{}
		for a, c := range cur {
			for _, b := range f.Succ[a] {
				next[b] += c
			}
		}
		cur = next
	}
	var total uint64
	for a, c := range cur {
		if f.End[a] {
			total += c
		}
	}
	return total
}

// String renders the FSA summary, e.g.
// "start={A} end={B} A<-{A,B} B<-{A}".
func (f *FSA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "start={%s} end={%s}", strings.Join(f.StartAliases(), ","), strings.Join(f.EndAliases(), ","))
	for _, a := range f.Aliases {
		fmt.Fprintf(&b, " %s<-{%s}", a, strings.Join(f.Pred[a], ","))
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
