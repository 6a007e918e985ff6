// Package baselines provides the shared scaffolding for the four
// state-of-the-art approaches the paper compares COGRA against
// (Table 1): the two-step Kleene engine SASE [40], the online graph
// approach GRETA [32], the online fixed-length-sequence approach
// A-Seq [33], and an industrial-streaming-style engine modelled on
// Flink [2]. Each lives in its own sub-package and implements Runner.
//
// The scaffolding — the window loop, stream partitioning, equivalence
// bindings, result assembly — is shared so that every approach
// evaluates exactly the same sub-streams and reports results in the
// same shape as the COGRA engine, making cross-validation exact. The
// aggregation algorithms themselves are implemented independently per
// package, over COGRA's algebra: they extend through an Extender
// (agg.Specs.ExtendInto) and merge with agg.Specs.Merge. Partitions,
// bindings and groups are keyed here by their value tuples (tupleKey),
// not by the engine's partition keys, so a key collision in the engine
// shows as a disagreement.
package baselines

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Runner evaluates a compiled query over a complete in-order stream.
// A baseline runner keeps scratch state, so it runs one stream at a
// time.
type Runner interface {
	// Name identifies the approach in experiment reports.
	Name() string
	// Run returns the aggregation results per window and group, in
	// the same order as core.Engine: core.CompareResults.
	// Approaches exceeding their work budget return ErrBudget.
	Run(events []*event.Event) ([]core.Result, error)
	// Capabilities is the approach's Table 9 row.
	Capabilities() Capabilities
}

// ErrBudget marks a run that exceeded its work budget — the
// reproduction of the paper's "fails to terminate" entries.
type ErrBudget struct{ Units int64 }

func (e ErrBudget) Error() string { return "baseline exceeded its work budget (DNF)" }

// ErrUnsupported marks a query feature outside an approach's
// expressive power (Table 9), e.g. Kleene semantics other than
// skip-till-any-match for GRETA and A-Seq.
type ErrUnsupported struct {
	Approach string
	Feature  string
}

func (e ErrUnsupported) Error() string {
	return e.Approach + " does not support " + e.Feature + " (Table 9)"
}

// Capabilities is one row of the paper's expressive-power matrix
// (Table 9): which matching semantics, predicate classes and pattern
// operators an approach supports. Oracle selection — both the
// crosscheck suite and the fuzz runner — reads this table instead of
// probing Run for ErrUnsupported, so a runner accepting a query its
// row disclaims (or vice versa) is a detectable bug rather than a
// silent skip.
type Capabilities struct {
	// Approach is the name used in ErrUnsupported messages.
	Approach string
	// Any, Next, Cont report support for the three matching semantics.
	Any, Next, Cont bool
	// Adjacent reports support for predicates on adjacent trend events.
	Adjacent bool
	// Negation reports support for negated sub-patterns.
	Negation bool
}

// Supports checks the plan against the capability row, returning nil
// or the ErrUnsupported naming the first missing feature. Runners call
// it as their Run prologue, so the table and the runtime check can
// never drift apart.
func (c Capabilities) Supports(plan *core.Plan) error {
	sem := plan.Query.Semantics
	semOK := map[query.Semantics]bool{query.Any: c.Any, query.Next: c.Next, query.Cont: c.Cont}
	if !semOK[sem] {
		return ErrUnsupported{Approach: c.Approach, Feature: sem.String() + " semantics"}
	}
	if !c.Adjacent && plan.Where.HasAdjacent() {
		return ErrUnsupported{Approach: c.Approach, Feature: "predicates on adjacent events"}
	}
	if !c.Negation && len(plan.FSA.Negations) > 0 {
		return ErrUnsupported{Approach: c.Approach, Feature: "negation"}
	}
	return nil
}

// Substream is the unit every approach evaluates: the events of one
// stream partition within one window, in stream order.
type Substream struct {
	Wid        int64
	Start, End int64
	// Part holds the partition's values of plan.StreamKeys, in order.
	Part   []string
	Events []*event.Event
}

// tupleKey is a map key for a tuple of values that no other tuple
// shares: each value is prefixed by its length.
func tupleKey(vals []string) string {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return string(b)
}

// SplitSubstreams routes a stream into per-window, per-partition
// sub-streams (§7), identically to the COGRA engine. Events without a
// partition attribute are dropped. IDs are assigned in arrival order
// when absent so tie-breaking matches the engine.
func SplitSubstreams(plan *core.Plan, events []*event.Event) []Substream {
	type key struct {
		wid  int64
		part string
	}
	buckets := map[key]*Substream{}
	spec := plan.Query.Window
	var seq int64
	for _, e := range events {
		seq++
		if e.ID == 0 {
			e.ID = seq
		}
		part, ok := partOf(plan, e)
		if !ok {
			continue
		}
		pk := tupleKey(part)
		first, last := spec.WindowsOf(e.Time)
		for wid := first; wid <= last; wid++ {
			sub := buckets[key{wid, pk}]
			if sub == nil {
				start, end := spec.Bounds(wid)
				sub = &Substream{Wid: wid, Start: start, End: end, Part: part}
				buckets[key{wid, pk}] = sub
			}
			sub.Events = append(sub.Events, e)
		}
	}
	out := make([]Substream, 0, len(buckets))
	for _, sub := range buckets {
		out = append(out, *sub)
	}
	slices.SortFunc(out, func(a, b Substream) int {
		if a.Wid != b.Wid {
			return cmp.Compare(a.Wid, b.Wid)
		}
		return slices.Compare(a.Part, b.Part)
	})
	return out
}

// partOf reads an event's partition values, the SymAttr of each
// plan.StreamKeys attribute; false when one is missing (the event then
// belongs to no sub-stream and cannot contribute to any trend).
func partOf(plan *core.Plan, e *event.Event) ([]string, bool) {
	part := make([]string, len(plan.StreamKeys))
	for i, attr := range plan.StreamKeys {
		v, ok := e.SymAttr(attr)
		if !ok {
			return nil, false
		}
		part[i] = v
	}
	return part, true
}

// EvalFunc evaluates one sub-stream into its window's collector. The
// state it builds stays accounted until its window closes, when the
// returned release frees it; release is called on error too.
type EvalFunc func(sub Substream, collector *GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (release func(), err error)

// RunWindows is the window loop every approach's Run shares: it
// splits the stream into sub-streams, evaluates each window's
// sub-streams into one collector — their state live simultaneously, as
// in a streaming execution — and releases them when the window closes.
// budgetUnits 0 means unlimited; a nil acct accounts into a scratch one.
func RunWindows(plan *core.Plan, events []*event.Event, budgetUnits int64, acct *metrics.Accountant, eval EvalFunc) ([]core.Result, error) {
	budget := metrics.NewBudget(budgetUnits)
	if acct == nil {
		acct = &metrics.Accountant{}
	}
	var out []core.Result
	subs := SplitSubstreams(plan, events)
	for i := 0; i < len(subs); {
		collector := NewGroupCollector(plan)
		var releases []func()
		releaseAll := func() {
			for _, rel := range releases {
				rel()
			}
		}
		j := i
		for ; j < len(subs) && subs[j].Wid == subs[i].Wid; j++ {
			rel, err := eval(subs[j], collector, budget, acct)
			releases = append(releases, rel)
			if err != nil {
				releaseAll()
				return nil, err
			}
		}
		out = append(out, collector.Results(subs[i].Wid, subs[i].Start, subs[i].End)...)
		releaseAll()
		i = j
	}
	return out, nil
}

// Binding tracks equivalence-slot values while a baseline builds a
// trend; the zero-length binding is used when the plan has no slots.
type Binding []string

// NewBinding returns the all-unbound binding for a plan.
func NewBinding(plan *core.Plan) Binding { return make(Binding, len(plan.Slots)) }

// Clone copies the binding.
func (b Binding) Clone() Binding { return append(Binding(nil), b...) }

// Key is the binding as a map key (tupleKey).
func (b Binding) Key() string { return tupleKey(b) }

// Bind applies the equivalence slots an event matched under alias must
// satisfy. It returns the (possibly new) binding and whether the event
// is compatible; b itself is never mutated.
func (b Binding) Bind(plan *core.Plan, alias string, e *event.Event) (Binding, bool) {
	out := b
	copied := false
	for i, s := range plan.Slots {
		if s.Alias != alias {
			continue
		}
		v, ok := e.SymAttr(s.Attr)
		if !ok {
			return nil, false
		}
		switch out[i] {
		case v:
		case "":
			if !copied {
				out = b.Clone()
				copied = true
			}
			out[i] = v
		default:
			return nil, false
		}
	}
	return out, true
}

// GroupCollector merges per-trend (or per-binding) aggregates into
// GROUP-BY groups of one window and assembles core.Results.
type GroupCollector struct {
	plan   *core.Plan
	refs   []groupRef
	groups map[string]*groupAgg
}

// groupRef is where one GROUP-BY item's value comes from: a bare
// attribute from the partition, an alias-scoped one from the binding
// slot of the same equivalence.
type groupRef struct {
	fromSlot bool
	idx      int
}

type groupAgg struct {
	group []string
	node  agg.Node
}

// NewGroupCollector builds a collector for one window.
func NewGroupCollector(plan *core.Plan) *GroupCollector {
	g := &GroupCollector{plan: plan, groups: map[string]*groupAgg{}}
	for _, k := range plan.Query.GroupBy {
		if k.Alias == "" {
			g.refs = append(g.refs, groupRef{idx: slices.Index(plan.StreamKeys, k.Attr)})
			continue
		}
		g.refs = append(g.refs, groupRef{fromSlot: true,
			idx: slices.Index(plan.Slots, predicate.Equivalence{Alias: k.Alias, Attr: k.Attr})})
	}
	return g
}

// Add merges one aggregate node into the group of the partition and
// binding.
func (g *GroupCollector) Add(part []string, binding Binding, node agg.Node) {
	var group []string
	for _, ref := range g.refs {
		if ref.fromSlot {
			group = append(group, binding[ref.idx])
		} else {
			group = append(group, part[ref.idx])
		}
	}
	gk := tupleKey(group)
	ga, ok := g.groups[gk]
	if !ok {
		ga = &groupAgg{group: group, node: g.plan.Specs.Zero()}
		g.groups[gk] = ga
	}
	g.plan.Specs.Merge(&ga.node, node)
}

// Results emits the window's results in the COGRA engine's order
// (core.CompareResults). Groups with zero finished trends are omitted.
func (g *GroupCollector) Results(wid, start, end int64) []core.Result {
	out := make([]core.Result, 0, len(g.groups))
	for _, ga := range g.groups {
		if ga.node.Count == 0 {
			continue
		}
		out = append(out, core.Result{
			Wid: wid, Start: start, End: end,
			Group:  ga.group,
			Values: g.plan.Specs.Report(ga.node),
		})
	}
	slices.SortFunc(out, core.CompareResults)
	return out
}

// NegFireTimes precomputes, per negation constraint, the sorted times
// at which the negated type matches within a sub-stream.
func NegFireTimes(plan *core.Plan, events []*event.Event) [][]int64 {
	n := len(plan.FSA.Negations)
	if n == 0 {
		return nil
	}
	out := make([][]int64, n)
	for ci, nc := range plan.FSA.Negations {
		leaf := nc.Neg.(*pattern.TypeNode)
		for _, e := range events {
			if e.Type == leaf.EventType && plan.Where.EvalLocal(leaf.Alias, e) {
				ts := out[ci]
				if len(ts) == 0 || ts[len(ts)-1] != e.Time {
					out[ci] = append(ts, e.Time)
				}
			}
		}
	}
	return out
}

// BlockedBetween reports whether constraint ci fired strictly within
// (t1, t2), given NegFireTimes output.
func BlockedBetween(fires [][]int64, ci int, t1, t2 int64) bool {
	ts := fires[ci]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t1 })
	return i < len(ts) && ts[i] < t2
}

// NegGuardFor returns the negation constraint guarding the transition
// pred -> succ, if any. It recomputes the guard map from the FSA so
// baselines stay independent of core internals.
func NegGuardFor(plan *core.Plan, pred, succ string) (int, bool) {
	for ci, nc := range plan.FSA.Negations {
		for _, p := range nc.Pred {
			if p != pred {
				continue
			}
			for _, f := range nc.Follow {
				if f == succ {
					return ci, true
				}
			}
		}
	}
	return 0, false
}

// AdjacentOK checks Definition 7's predicate conditions between a
// concrete predecessor (alias a, event ep) and successor (alias b,
// event e): strict time order, the θ predicates, and negation guards.
func AdjacentOK(plan *core.Plan, fires [][]int64, a string, ep *event.Event, b string, e *event.Event) bool {
	if ep.Time >= e.Time {
		return false
	}
	if !plan.Where.EvalAdjacent(a, ep, b, e) {
		return false
	}
	if ci, guarded := NegGuardFor(plan, a, b); guarded && BlockedBetween(fires, ci, ep.Time, e.Time) {
		return false
	}
	return true
}

// CandidateAliases returns the pattern types an event can be matched
// under: its type's aliases filtered by local predicates. When every
// alias passes — always, for a query without local predicates — it is
// the FSA's own list, which the caller must not modify, and nothing is
// allocated.
func CandidateAliases(plan *core.Plan, e *event.Event) []string {
	all := plan.FSA.AliasesForType(e.Type)
	for i, alias := range all {
		if plan.Where.EvalLocal(alias, e) {
			continue
		}
		out := slices.Clone(all[:i])
		for _, alias := range all[i+1:] {
			if plan.Where.EvalLocal(alias, e) {
				out = append(out, alias)
			}
		}
		return out
	}
	return all
}
