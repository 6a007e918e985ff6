// Package greta reimplements the GRETA approach [32] the paper
// compares against: all matched events and their trend relationships
// are captured as a graph, and trend aggregates are computed online
// while the graph is built — no trend construction, but aggregates are
// maintained at the finest granularity, one per matched event. Time is
// quadratic in the number of events and the whole graph stays in
// memory, which is exactly what Figures 8 and 10 expose. GRETA
// supports only skip-till-any-match (Table 9).
package greta

import (
	"slices"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
)

// Runner is the GRETA baseline.
type Runner struct {
	plan *core.Plan
	// BudgetUnits bounds the work (node-to-node compatibility checks);
	// 0 means unlimited.
	BudgetUnits int64
	// Acct receives logical memory accounting if non-nil.
	Acct *metrics.Accountant
	ext  *baselines.Extender
}

// New builds a GRETA runner. The plan's semantics must be
// skip-till-any-match.
func New(plan *core.Plan) *Runner { return &Runner{plan: plan, ext: baselines.NewExtender(plan)} }

// Name implements baselines.Runner.
func (r *Runner) Name() string { return "GRETA" }

// Capabilities implements baselines.Runner: GRETA handles only
// skip-till-any-match, but within it supports adjacent predicates
// (edge filtering) and negation (Table 9).
func (r *Runner) Capabilities() baselines.Capabilities {
	return baselines.Capabilities{Approach: "GRETA", Any: true, Adjacent: true, Negation: true}
}

// gNode is one graph node: a matched event with the aggregate of all
// (partial) trends ending at it, per equivalence binding.
type gNode struct {
	ev      *event.Event
	alias   string
	binding baselines.Binding
	node    agg.Node
}

// Run implements baselines.Runner.
func (r *Runner) Run(events []*event.Event) ([]core.Result, error) {
	if err := r.Capabilities().Supports(r.plan); err != nil {
		return nil, err
	}
	return baselines.RunWindows(r.plan, events, r.BudgetUnits, r.Acct, r.evalSubstream)
}

// evalSubstream builds the GRETA graph of one sub-stream and collects
// the end-type node aggregates. The returned release function frees
// the graph's accounted memory (called when the window closes).
func (r *Runner) evalSubstream(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	plan := r.plan
	specs := plan.Specs
	fires := baselines.NegFireTimes(plan, sub.Events)
	var graph []gNode
	var graphBytes int64
	release := func() { acct.Add(-graphBytes) }

	for _, e := range sub.Events {
		for _, alias := range baselines.CandidateAliases(plan, e) {
			binding0, ok := baselines.NewBinding(plan).Bind(plan, alias, e)
			if !ok {
				continue
			}
			// Aggregates of the trends e extends, per binding the
			// extension lands in. Every graph node of a predecessor
			// type is inspected — the event-granularity cost.
			type ext struct {
				binding baselines.Binding
				node    agg.Node
			}
			contrib := map[string]*ext{}
			if !budget.Spend(int64(len(graph))) {
				return release, baselines.ErrBudget{Units: budget.Used()}
			}
			for gi := range graph {
				g := &graph[gi]
				if g.ev.Time >= e.Time {
					break // graph is in arrival order
				}
				if !slices.Contains(plan.FSA.Pred[alias], g.alias) {
					continue
				}
				if !baselines.AdjacentOK(plan, fires, g.alias, g.ev, alias, e) {
					continue
				}
				nb, ok := g.binding.Bind(plan, alias, e)
				if !ok {
					continue
				}
				key := nb.Key()
				dst, ok := contrib[key]
				if !ok {
					dst = &ext{binding: nb, node: specs.Zero()}
					contrib[key] = dst
				}
				specs.Merge(&dst.node, g.node)
			}
			startKey := binding0.Key()
			if plan.FSA.IsStart(alias) {
				if _, ok := contrib[startKey]; !ok {
					contrib[startKey] = &ext{binding: binding0, node: specs.Zero()}
				}
			}
			for key, ex := range contrib {
				started := uint64(0)
				if plan.FSA.IsStart(alias) && key == startKey {
					started = 1
				}
				node := r.ext.Extend(ex.node, alias, e, started)
				gn := gNode{ev: e, alias: alias, binding: ex.binding, node: node}
				graph = append(graph, gn)
				grow := e.FootprintBytes() + specs.FootprintBytes() + 32
				acct.Add(grow)
				graphBytes += grow
			}
		}
	}
	for gi := range graph {
		g := &graph[gi]
		if plan.FSA.IsEnd(g.alias) {
			collector.Add(sub.Part, g.binding, g.node)
		}
	}
	return release, nil
}
