// Package sase reimplements the two-step SASE approach [40] the paper
// compares against (§9.1): events are stored in per-type stacks with
// predecessor pointers, a DFS-based algorithm traverses the pointers
// to construct every event trend, and the trends are aggregated
// afterwards. SASE supports Kleene closure, all three event matching
// semantics and predicates on adjacent events (Table 9) — its flaw is
// the trend construction step, whose cost is the number of trends:
// exponential under skip-till-any-match (Table 3).
//
// Because it materialises the exact trend sets the semantics define,
// this package doubles as the correctness oracle for the property
// tests ("the same aggregates must be returned as by the two-step
// approach").
package sase

import (
	"slices"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Trend is one materialised match: events in trend order with the
// pattern types they matched and the equivalence binding they fixed.
type Trend struct {
	Events  []*event.Event
	Aliases []string
	Binding baselines.Binding
}

// Runner is the SASE baseline.
type Runner struct {
	plan *core.Plan
	// BudgetUnits bounds the work (pointer construction steps + trend
	// extension steps); 0 means unlimited.
	BudgetUnits int64
	// Acct receives logical memory accounting if non-nil.
	Acct *metrics.Accountant
	ext  *baselines.Extender
}

// New builds a SASE runner for a plan.
func New(plan *core.Plan) *Runner { return &Runner{plan: plan, ext: baselines.NewExtender(plan)} }

// Name implements baselines.Runner.
func (r *Runner) Name() string { return "SASE" }

// Capabilities implements baselines.Runner: the two-step
// oracle materialises trends, so it covers every semantics and
// predicate class (Table 9) — at exponential cost, bounded by
// BudgetUnits.
func (r *Runner) Capabilities() baselines.Capabilities {
	return baselines.Capabilities{Approach: "SASE",
		Any: true, Next: true, Cont: true, Adjacent: true, Negation: true}
}

// Run implements baselines.Runner: two-step evaluation per sub-stream.
func (r *Runner) Run(events []*event.Event) ([]core.Result, error) {
	return baselines.RunWindows(r.plan, events, r.BudgetUnits, r.Acct, r.evalSubstream)
}

// evalSubstream constructs all trends of one sub-stream and folds each
// into its group (the two-step approach). The returned release frees
// the stacks and pointers when the window closes.
func (r *Runner) evalSubstream(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	onTrend := func(tr Trend) bool {
		collector.Add(sub.Part, tr.Binding, r.ext.Fold(tr.Aliases, tr.Events))
		return budget.Spend(int64(len(tr.Events)))
	}
	var err error
	var retained int64
	releaseEvents := storeEvents(sub.Events, acct)
	switch r.plan.Query.Semantics {
	case query.Any:
		retained, err = enumerateAny(r.plan, sub.Events, budget, acct, onTrend)
	default:
		retained, err = enumerateChain(r.plan, sub.Events, budget, acct, onTrend)
	}
	release := func() {
		releaseEvents()
		acct.Add(-retained)
	}
	return release, err
}

// EnumerateWindow materialises every trend of a single window's
// events, for tests and the trend-count experiments (Figure 2,
// Table 3). Events must be in stream order.
func EnumerateWindow(plan *core.Plan, events []*event.Event, budgetUnits int64) ([]Trend, error) {
	budget := metrics.NewBudget(budgetUnits)
	acct := &metrics.Accountant{}
	var trends []Trend
	onTrend := func(tr Trend) bool {
		cp := Trend{
			Events:  append([]*event.Event(nil), tr.Events...),
			Aliases: append([]string(nil), tr.Aliases...),
			Binding: tr.Binding.Clone(),
		}
		trends = append(trends, cp)
		return budget.Spend(int64(len(tr.Events)))
	}
	var seq int64
	for _, e := range events {
		seq++
		if e.ID == 0 {
			e.ID = seq
		}
	}
	var err error
	var retained int64
	if plan.Query.Semantics == query.Any {
		retained, err = enumerateAny(plan, events, budget, acct, onTrend)
	} else {
		retained, err = enumerateChain(plan, events, budget, acct, onTrend)
	}
	acct.Add(-retained)
	if err != nil {
		return nil, err
	}
	return trends, nil
}

// storeEvents accounts the SASE event stacks (every window event is
// stored for the duration of the window evaluation) and returns the
// release function.
func storeEvents(events []*event.Event, acct *metrics.Accountant) func() {
	var total int64
	for _, e := range events {
		total += e.FootprintBytes() + 16 // stack slot + type pointer
	}
	acct.Add(total)
	return func() { acct.Add(-total) }
}

// eaPair is one (event index, alias) node of the match graph.
type eaPair struct {
	idx   int
	alias string
}

// enumerateAny constructs all trends under skip-till-any-match
// (Definition 2): it first materialises the predecessor pointers the
// SASE stacks maintain, then DFS-enumerates every path from a start
// pair, emitting a trend at every end-type prefix.
func enumerateAny(plan *core.Plan, events []*event.Event, budget *metrics.Budget, acct *metrics.Accountant, onTrend func(Trend) bool) (retained int64, err error) {
	fires := baselines.NegFireTimes(plan, events)
	// Step 0: candidate (event, alias) pairs.
	var pairs []eaPair
	for i, e := range events {
		for _, alias := range baselines.CandidateAliases(plan, e) {
			pairs = append(pairs, eaPair{idx: i, alias: alias})
		}
	}
	// Step 1: successor pointers (the SASE stack pointers, O(n^2)).
	succ := make([][]int, len(pairs))
	var ptrBytes int64
	for pi, p := range pairs {
		// Pointer construction scans every later pair — the O(n^2)
		// insertion cost of the SASE stacks, charged to the budget.
		if !budget.Spend(int64(len(pairs))) {
			return ptrBytes, baselines.ErrBudget{Units: budget.Used()}
		}
		for qi, q := range pairs {
			if events[p.idx].Time >= events[q.idx].Time {
				continue
			}
			if !slices.Contains(plan.FSA.Succ[p.alias], q.alias) {
				continue
			}
			if !baselines.AdjacentOK(plan, fires, p.alias, events[p.idx], q.alias, events[q.idx]) {
				continue
			}
			succ[pi] = append(succ[pi], qi)
			ptrBytes += 16
		}
	}
	acct.Add(ptrBytes)

	// Step 2: DFS over the pointers; the current trend is the only
	// one stored at a time (§9.3).
	cur := Trend{Binding: baselines.NewBinding(plan)}
	var dfs func(pi int) error
	dfs = func(pi int) error {
		p := pairs[pi]
		e := events[p.idx]
		nb, ok := cur.Binding.Bind(plan, p.alias, e)
		if !ok {
			return nil
		}
		savedBinding := cur.Binding
		cur.Binding = nb
		cur.Events = append(cur.Events, e)
		cur.Aliases = append(cur.Aliases, p.alias)
		grow := e.FootprintBytes()
		acct.Add(grow)
		defer func() {
			acct.Add(-grow)
			cur.Events = cur.Events[:len(cur.Events)-1]
			cur.Aliases = cur.Aliases[:len(cur.Aliases)-1]
			cur.Binding = savedBinding
		}()
		if plan.FSA.IsEnd(p.alias) {
			if !onTrend(cur) {
				return baselines.ErrBudget{Units: budget.Used()}
			}
		}
		for _, qi := range succ[pi] {
			if !budget.Spend(1) {
				return baselines.ErrBudget{Units: budget.Used()}
			}
			if err := dfs(qi); err != nil {
				return err
			}
		}
		return nil
	}
	for pi, p := range pairs {
		if !plan.FSA.IsStart(p.alias) {
			continue
		}
		if err := dfs(pi); err != nil {
			return ptrBytes, err
		}
	}
	return ptrBytes, nil
}

// enumerateChain constructs all trends under skip-till-next-match and
// contiguous semantics. Both admit at most one predecessor per event
// (Theorem 6.1): matched events form a chain, NEXT skipping irrelevant
// events and CONT resetting on any unmatched one. Every chain segment
// that starts at a start type and ends at an end type is a trend.
func enumerateChain(plan *core.Plan, events []*event.Event, budget *metrics.Budget, acct *metrics.Accountant, onTrend func(Trend) bool) (retained int64, err error) {
	fires := baselines.NegFireTimes(plan, events)
	type chainNode struct {
		idx   int
		alias string
		prev  int // previous chain position, -1 if the chain broke here
	}
	var chain []chainNode
	var chainBytes int64
	last := -1 // position of the last matched event in chain
	for i, e := range events {
		aliases := baselines.CandidateAliases(plan, e)
		matched := false
		if len(aliases) == 1 {
			alias := aliases[0]
			started := plan.FSA.IsStart(alias)
			adjacent := false
			if last >= 0 {
				lastNode := chain[last]
				if slices.Contains(plan.FSA.Pred[alias], lastNode.alias) &&
					baselines.AdjacentOK(plan, fires, lastNode.alias, events[lastNode.idx], alias, e) {
					adjacent = true
				}
			}
			if started || adjacent {
				prev := -1
				if adjacent {
					prev = last
				}
				chain = append(chain, chainNode{idx: i, alias: alias, prev: prev})
				grow := e.FootprintBytes() + 24
				acct.Add(grow)
				chainBytes += grow
				last = len(chain) - 1
				matched = true
				if !budget.Spend(1) {
					return chainBytes, baselines.ErrBudget{Units: budget.Used()}
				}
			}
		}
		if !matched && plan.Query.Semantics == query.Cont {
			last = -1
		}
	}
	// Trend extraction: walk back from every end-type node; every
	// start-type prefix boundary yields one trend.
	for k := range chain {
		if !plan.FSA.IsEnd(chain[k].alias) {
			continue
		}
		var path []int
		for j := k; j >= 0; j = chain[j].prev {
			path = append(path, j)
			if plan.FSA.IsStart(chain[j].alias) {
				tr := Trend{Binding: baselines.NewBinding(plan)}
				for p := len(path) - 1; p >= 0; p-- {
					node := chain[path[p]]
					tr.Events = append(tr.Events, events[node.idx])
					tr.Aliases = append(tr.Aliases, node.alias)
				}
				if !onTrend(tr) {
					return chainBytes, baselines.ErrBudget{Units: budget.Used()}
				}
			}
		}
	}
	return chainBytes, nil
}
