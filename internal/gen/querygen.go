// Query, churn and retiming generators for the differential fuzzer
// (cmd/cografuzz). The stream generators in this package reproduce the
// paper's four workloads; the generators here draw random *queries*
// over those schemas — patterns × matching semantics × predicates ×
// aggregates × windows, the combinatorial space §2 defines — plus
// random membership-churn schedules and timestamp reshapings (ties
// and window-straddling jumps), so scenario diversity stops being
// hand-written.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/window"
)

// NumAttr describes one numeric attribute and the value range local
// predicates should draw constants from.
type NumAttr struct {
	Name   string
	Lo, Hi float64
}

// SymAttr describes one symbolic attribute and the values symbolic
// equality predicates may compare against.
type SymAttr struct {
	Name   string
	Values []string
}

// QuerySchema is the query generator's view of one stream template:
// which event types patterns may mention, which symbolic attributes
// every event carries (equivalence/grouping keys), and which numeric
// and symbolic attributes each type carries (predicate operands).
type QuerySchema struct {
	// Types are the matchable event types, in a fixed order (the
	// generator draws by index, so order is part of determinism).
	Types []string
	// Keys are symbolic attributes carried by every event of every
	// type — equivalence-predicate and GROUP-BY candidates. The first
	// key is the template's preferred partition attribute.
	Keys []string
	// Nums maps each type to its numeric attributes.
	Nums map[string][]NumAttr
	// Syms maps each type to symbolic non-key attributes usable in
	// equality predicates.
	Syms map[string][]SymAttr
	// Windows are the WITHIN/SLIDE pairs to draw from, scaled to the
	// template's timestamp density. Must be non-empty.
	Windows [][2]int64
}

// patternShape enumerates the generator's pattern skeletons; the
// numbers are how many distinct event types each consumes.
type patternShape struct {
	types int
	// anyOnly restricts the shape to skip-till-any-match (the
	// shared-type shape is ambiguous under NEXT/CONT).
	anyOnly bool
	build   func(t []string) pattern.Node
}

func patternShapes() []patternShape {
	return []patternShape{
		{1, false, func(t []string) pattern.Node { return pattern.Plus(pattern.Type(t[0])) }},
		{2, false, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Plus(pattern.Type(t[0])), pattern.Type(t[1]))
		}},
		{2, false, func(t []string) pattern.Node {
			return pattern.Plus(pattern.Seq(pattern.Plus(pattern.Type(t[0])), pattern.Type(t[1])))
		}},
		{3, false, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Type(t[0]), pattern.Star(pattern.Type(t[1])), pattern.Type(t[2]))
		}},
		{3, false, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Plus(pattern.Type(t[0])), pattern.Opt(pattern.Type(t[1])), pattern.Type(t[2]))
		}},
		{3, false, func(t []string) pattern.Node {
			return pattern.Or(pattern.Seq(pattern.Type(t[0]), pattern.Type(t[1])), pattern.Plus(pattern.Type(t[2])))
		}},
		{3, false, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Plus(pattern.Type(t[0])), pattern.Not(pattern.Type(t[1])), pattern.Type(t[2]))
		}},
		{4, false, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Type(t[0]),
				pattern.Plus(pattern.Seq(pattern.Type(t[1]), pattern.Type(t[2]))),
				pattern.Type(t[3]))
		}},
		// Shared type under two aliases: SEQ(S A+, S B+).
		{1, true, func(t []string) pattern.Node {
			return pattern.Seq(pattern.Plus(pattern.TypeAs(t[0], "A")), pattern.Plus(pattern.TypeAs(t[0], "B")))
		}},
	}
}

// RandomQuery draws one validated, compilable-shaped query over the
// schema: a random pattern skeleton instantiated with random types, a
// random matching semantics, random aggregates, random local /
// equivalence / adjacent predicates and a random window. The result
// round-trips through query.String()/query.Parse (the fuzzer's repro
// files store query text). Deterministic in rng.
//
// RandomQuery retries internally when a drawn combination fails
// validation; the error return fires only if every attempt failed
// (schema too small), which a well-formed schema never triggers.
func RandomQuery(rng *rand.Rand, s QuerySchema) (*query.Query, error) {
	var lastErr error
	for attempt := 0; attempt < 32; attempt++ {
		q, err := randomQueryOnce(rng, s)
		if err == nil {
			// The repro codec stores query text; require round-trip now
			// so a mismatch is a generator bug, not a corrupt repro.
			if _, perr := query.Parse(q.String()); perr != nil {
				lastErr = fmt.Errorf("gen: query does not round-trip: %v\n%s", perr, q)
				continue
			}
			// Validation is necessary but not sufficient: some shapes are
			// rejected only at plan time (e.g. alias-scoped equivalence
			// under contiguous semantics). Redraw rather than hand the
			// fuzzer a scenario that cannot execute.
			if _, cerr := core.NewPlan(q); cerr != nil {
				lastErr = fmt.Errorf("gen: query does not compile: %v\n%s", cerr, q)
				continue
			}
			return q, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("gen: no valid query after 32 attempts: %w", lastErr)
}

func randomQueryOnce(rng *rand.Rand, s QuerySchema) (*query.Query, error) {
	shapes := patternShapes()
	shape := shapes[rng.Intn(len(shapes))]
	if shape.types > len(s.Types) {
		shape = shapes[0]
	}
	// Draw distinct types by index, preserving schema order inside the
	// draw so the same rng stream always yields the same instantiation.
	types := drawDistinct(rng, s.Types, shape.types)
	p := shape.build(types)

	sems := []query.Semantics{query.Any, query.Next, query.Cont}
	sem := sems[rng.Intn(len(sems))]
	if shape.anyOnly {
		sem = query.Any
	}
	q := &query.Query{Pattern: p, Semantics: sem, Where: &predicate.Set{}}

	aliases := pattern.Aliases(p)
	// Positive (non-negated) aliases carry aggregates and predicates.
	posAliases := positiveAliases(p, aliases)

	// Aggregates: COUNT(*) always, plus up to two random extras.
	q.Returns = append(q.Returns, agg.Spec{Func: agg.CountStar})
	for i, n := 0, rng.Intn(3); i < n; i++ {
		alias := posAliases[rng.Intn(len(posAliases))]
		nums := s.Nums[typeOfAlias(p, alias)]
		if len(nums) == 0 || rng.Intn(4) == 0 {
			q.Returns = append(q.Returns, agg.Spec{Func: agg.CountType, Alias: alias})
			continue
		}
		attr := nums[rng.Intn(len(nums))]
		funcs := []agg.Func{agg.Min, agg.Max, agg.Sum, agg.Avg}
		q.Returns = append(q.Returns, agg.Spec{Func: funcs[rng.Intn(len(funcs))], Alias: alias, Attr: attr.Name})
	}

	// Local predicates: numeric range or symbolic equality.
	if rng.Intn(2) == 0 {
		alias := posAliases[rng.Intn(len(posAliases))]
		typ := typeOfAlias(p, alias)
		if nums := s.Nums[typ]; len(nums) > 0 && rng.Intn(3) > 0 {
			attr := nums[rng.Intn(len(nums))]
			ops := []predicate.Op{predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
			v := attr.Lo + float64(rng.Intn(101))/100*(attr.Hi-attr.Lo)
			q.Where.Locals = append(q.Where.Locals, predicate.Local{Alias: alias, Attr: attr.Name,
				Op: ops[rng.Intn(len(ops))], Value: roundTo(v, 100)})
		} else if syms := s.Syms[typ]; len(syms) > 0 {
			attr := syms[rng.Intn(len(syms))]
			op := predicate.Eq
			if rng.Intn(3) == 0 {
				op = predicate.Ne
			}
			q.Where.Locals = append(q.Where.Locals, predicate.Local{Alias: alias, Attr: attr.Name,
				Op: op, Value: attr.Values[rng.Intn(len(attr.Values))]})
		}
	}

	// Adjacent predicate: alias.num ◦ NEXT(alias).num. These force
	// mixed granularity on otherwise type-grained plans — the paper's
	// Table 4 crux — so draw them often.
	if rng.Intn(2) == 0 {
		alias := posAliases[rng.Intn(len(posAliases))]
		if nums := s.Nums[typeOfAlias(p, alias)]; len(nums) > 0 {
			attr := nums[rng.Intn(len(nums))]
			ops := []predicate.Op{predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge}
			q.Where.Adjacents = append(q.Where.Adjacents, predicate.Adjacent{
				Left: alias, LeftAttr: attr.Name,
				Op:    ops[rng.Intn(len(ops))],
				Right: alias, RightAttr: attr.Name,
			})
		}
	}

	// Equivalence + grouping. The first key is the preferred partition
	// attribute: drawing it most of the time keeps parallel sessions
	// routable, while the occasional secondary key produces the
	// locality-breaking queries the fallback worker exists for.
	equivShape := rng.Intn(4)
	if equivShape == 3 && sem == query.Cont {
		// Alias-scoped equivalence is rejected under contiguous
		// semantics (core restricts it to a global [attr] slot).
		equivShape = 1
	}
	switch equivShape {
	case 0: // unpartitioned
	case 1, 2:
		key := s.Keys[0]
		if len(s.Keys) > 1 && rng.Intn(4) == 0 {
			key = s.Keys[1+rng.Intn(len(s.Keys)-1)]
		}
		q.Where.Equivalences = append(q.Where.Equivalences, predicate.Equivalence{Attr: key})
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, query.GroupKey{Attr: key})
		}
	case 3: // alias-scoped equivalence (+ paired grouping)
		alias := posAliases[rng.Intn(len(posAliases))]
		key := s.Keys[rng.Intn(len(s.Keys))]
		q.Where.Equivalences = append(q.Where.Equivalences, predicate.Equivalence{Alias: alias, Attr: key})
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, query.GroupKey{Alias: alias, Attr: key})
		}
		// An alias-scoped slot alone leaves the stream unpartitioned;
		// usually add the bare key too so the sub-streams stay small.
		if rng.Intn(3) > 0 {
			q.Where.Equivalences = append(q.Where.Equivalences, predicate.Equivalence{Attr: s.Keys[0]})
		}
	}

	w := s.Windows[rng.Intn(len(s.Windows))]
	q.Window = window.Spec{Within: w[0], Slide: w[1]}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// drawDistinct draws n distinct elements of xs, order of first draw.
func drawDistinct(rng *rand.Rand, xs []string, n int) []string {
	idx := rng.Perm(len(xs))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// typeOfAlias finds the event type an alias is bound to.
func typeOfAlias(p pattern.Node, alias string) string {
	return pattern.AliasTypes(p)[alias]
}

// positiveAliases filters out aliases that appear only under NOT:
// negated types cannot carry aggregates.
func positiveAliases(p pattern.Node, aliases []string) []string {
	neg := map[string]bool{}
	var walk func(n pattern.Node, inNot bool)
	walk = func(n pattern.Node, inNot bool) {
		if t, ok := n.(*pattern.TypeNode); ok {
			a := t.Alias
			if a == "" {
				a = t.EventType
			}
			if inNot {
				neg[a] = true
			}
			return
		}
		_, isNot := n.(*pattern.NotNode)
		for _, c := range pattern.Children(n) {
			walk(c, inNot || isNot)
		}
	}
	walk(p, false)
	var out []string
	for _, a := range aliases {
		if !neg[a] {
			out = append(out, a)
		}
	}
	return out
}

func roundTo(v float64, scale float64) float64 {
	return float64(int64(v*scale)) / scale
}

// ChurnInterval is one subscription's membership window over a stream
// of n events: the query joins before event Join and leaves after
// event Leave-1 (Leave == n means it stays to the end).
type ChurnInterval struct {
	Join  int
	Leave int
}

// RandomChurn draws a membership schedule for extra subscriptions over
// an n-event stream: each joins at a random position and leaves at a
// later one (half of them stay to the end). Deterministic in rng.
func RandomChurn(rng *rand.Rand, subs, n int) []ChurnInterval {
	out := make([]ChurnInterval, subs)
	for i := range out {
		join := rng.Intn(n)
		leave := n
		if rng.Intn(2) == 0 {
			leave = join + 1 + rng.Intn(n-join)
		}
		out[i] = ChurnInterval{Join: join, Leave: leave}
	}
	return out
}

// Retime rewrites the event timestamps of a sorted stream in place
// into a tie-and-jump shape: with probability tieProb the next event
// shares its predecessor's timestamp (dense equal-time runs — the
// stream-transaction stress), with probability jumpProb it jumps by up
// to jumpMax (idle gaps straddling window boundaries), otherwise it
// advances by one. Order is preserved (increments are non-negative).
func Retime(rng *rand.Rand, events []*event.Event, tieProb, jumpProb float64, jumpMax int64) {
	tm := int64(0)
	for i, e := range events {
		if i > 0 {
			switch x := rng.Float64(); {
			case x < tieProb:
				// tie: tm unchanged
			case x < tieProb+jumpProb:
				tm += 2 + rng.Int63n(jumpMax)
			default:
				tm++
			}
		}
		e.Time = tm
	}
}
