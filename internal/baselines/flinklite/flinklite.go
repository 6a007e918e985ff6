// Package flinklite models the industrial streaming systems of the
// paper's study — Flink [2], Esper [1], Oracle Stream Analytics [4] —
// which support fixed-length event sequences but no Kleene closure
// (§9.1). Two properties drive their measured behaviour, and both are
// reproduced here faithfully:
//
//  1. Kleene flattening: each Kleene query is rewritten into a
//     workload of fixed-length sequence queries covering all possible
//     match lengths up to l, every one of which is evaluated;
//  2. two-step execution: all event sequences are constructed and
//     materialised before they are aggregated, so both latency and
//     memory grow with the number of matches — exponentially under
//     skip-till-any-match (Figure 7).
//
// Flink supports the skip-till-any-match and contiguous semantics and
// predicates on adjacent events, but not skip-till-next-match
// (Table 9).
package flinklite

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Runner is the Flink-style baseline.
type Runner struct {
	plan *core.Plan
	// MaxLen caps the flattening length; 0 derives it from the window
	// content.
	MaxLen int
	// BudgetUnits bounds the work (match construction steps); 0 means
	// unlimited.
	BudgetUnits int64
	// Acct receives logical memory accounting if non-nil.
	Acct *metrics.Accountant
	ext  *baselines.Extender
}

// New builds a Flink-style runner.
func New(plan *core.Plan) *Runner { return &Runner{plan: plan, ext: baselines.NewExtender(plan)} }

// Name implements baselines.Runner.
func (r *Runner) Name() string { return "Flink" }

// Capabilities implements baselines.Runner: Flink's NFA covers
// skip-till-any-match and contiguous matching with adjacent (IterativeCondition-
// style) predicates, but has no skip-till-next-match and no negation
// inside Kleene (Table 9).
func (r *Runner) Capabilities() baselines.Capabilities {
	return baselines.Capabilities{Approach: "Flink", Any: true, Cont: true, Adjacent: true}
}

// match is one materialised sequence match: the two-step approach
// keeps every match of a window buffered until aggregation.
type match struct {
	events  []*event.Event
	aliases []string
	binding baselines.Binding
}

// Run implements baselines.Runner.
func (r *Runner) Run(events []*event.Event) ([]core.Result, error) {
	if err := r.Capabilities().Supports(r.plan); err != nil {
		return nil, err
	}
	// The materialised matches of every sub-stream of one window stay
	// buffered until the window closes — the two-step cost.
	return baselines.RunWindows(r.plan, events, r.BudgetUnits, r.Acct, r.evalSubstream)
}

// evalSubstream runs the flattened workload on one sub-stream:
// construct all matches of every fixed-length query (step one,
// materialised), then aggregate them (step two).
func (r *Runner) evalSubstream(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	plan := r.plan
	maxLen := len(sub.Events)
	if r.MaxLen > 0 && r.MaxLen < maxLen {
		maxLen = r.MaxLen
	}
	// Under the contiguous semantics no match can outgrow the longest
	// streak of candidate events with strictly increasing times, so
	// the flattening is bounded by it.
	if plan.Query.Semantics == query.Cont {
		if run := longestCandidateRun(plan, sub.Events); run < maxLen {
			maxLen = run
		}
	}
	flat := plan.FSA.Flatten(maxLen)

	// Step one: construct and buffer every match of every query.
	var matches []match
	var matchBytes int64
	release := func() { acct.Add(-matchBytes) }
	keep := func(m match) bool {
		matches = append(matches, m)
		var grow int64 = 48
		for _, e := range m.events {
			grow += e.FootprintBytes()
		}
		acct.Add(grow)
		matchBytes += grow
		return budget.Spend(int64(len(m.events)))
	}
	for _, aliases := range flat {
		var err error
		if plan.Query.Semantics == query.Cont {
			err = r.matchContiguous(sub.Events, aliases, budget, keep)
		} else {
			err = r.matchAny(sub.Events, aliases, budget, keep)
		}
		if err != nil {
			return release, err
		}
	}

	// Step two: aggregate the buffered matches.
	for _, m := range matches {
		collector.Add(sub.Part, m.binding, r.ext.Fold(m.aliases, m.events))
	}
	return release, nil
}

// matchAny enumerates the matches of one fixed-length query under
// skip-till-any-match: every strictly time-increasing event choice
// matching the alias string, the local and adjacent predicates and the
// equivalence bindings.
func (r *Runner) matchAny(events []*event.Event, aliases []string, budget *metrics.Budget, keep func(match) bool) error {
	plan := r.plan
	cur := match{binding: baselines.NewBinding(plan)}
	var dfs func(pos, from int) error
	dfs = func(pos, from int) error {
		if pos == len(aliases) {
			if !keep(match{
				events:  append([]*event.Event(nil), cur.events...),
				aliases: append([]string(nil), cur.aliases...),
				binding: cur.binding.Clone(),
			}) {
				return baselines.ErrBudget{Units: budget.Used()}
			}
			return nil
		}
		alias := aliases[pos]
		for i := from; i < len(events); i++ {
			e := events[i]
			if !budget.Spend(1) {
				return baselines.ErrBudget{Units: budget.Used()}
			}
			if !matchesAlias(plan, e, alias) {
				continue
			}
			if pos > 0 {
				prev := cur.events[pos-1]
				if prev.Time >= e.Time {
					continue
				}
				if !plan.Where.EvalAdjacent(aliases[pos-1], prev, alias, e) {
					continue
				}
			}
			nb, ok := cur.binding.Bind(plan, alias, e)
			if !ok {
				continue
			}
			saved := cur.binding
			cur.binding = nb
			cur.events = append(cur.events, e)
			cur.aliases = append(cur.aliases, alias)
			err := dfs(pos+1, i+1)
			cur.events = cur.events[:len(cur.events)-1]
			cur.aliases = cur.aliases[:len(cur.aliases)-1]
			cur.binding = saved
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(0, 0)
}

// matchContiguous enumerates the matches of one fixed-length query
// under the contiguous semantics: consecutive sub-stream events whose
// alias string is the query, passing all predicates. Simultaneous
// events cannot be contiguous (Definition 7 requires strictly
// increasing time).
func (r *Runner) matchContiguous(events []*event.Event, aliases []string, budget *metrics.Budget, keep func(match) bool) error {
	plan := r.plan
	n := len(aliases)
	for off := 0; off+n <= len(events); off++ {
		if !budget.Spend(int64(n)) {
			return baselines.ErrBudget{Units: budget.Used()}
		}
		m := match{binding: baselines.NewBinding(plan)}
		ok := true
		for k := 0; k < n; k++ {
			e := events[off+k]
			alias := aliases[k]
			if !matchesAlias(plan, e, alias) {
				ok = false
				break
			}
			if k > 0 {
				prev := events[off+k-1]
				if prev.Time >= e.Time {
					ok = false
					break
				}
				if !plan.Where.EvalAdjacent(aliases[k-1], prev, alias, e) {
					ok = false
					break
				}
			}
			nb, bindOK := m.binding.Bind(plan, alias, e)
			if !bindOK {
				ok = false
				break
			}
			m.binding = nb
			m.events = append(m.events, e)
			m.aliases = append(m.aliases, alias)
		}
		if ok {
			if !keep(m) {
				return baselines.ErrBudget{Units: budget.Used()}
			}
		}
	}
	return nil
}

// longestCandidateRun returns an upper bound on contiguous match
// length: the longest streak of candidate events in which every
// consecutive pair is connected by some pattern transition with
// strictly increasing times and passing adjacent predicates. Any
// contiguous match occupies consecutive sub-stream positions whose
// pairs all satisfy these conditions, so no match can be longer.
func longestCandidateRun(plan *core.Plan, events []*event.Event) int {
	candidates := func(e *event.Event) []string {
		var out []string
		for _, a := range plan.FSA.AliasesForType(e.Type) {
			if plan.Where.EvalLocal(a, e) {
				out = append(out, a)
			}
		}
		return out
	}
	connected := func(prev, e *event.Event) bool {
		if prev.Time >= e.Time {
			return false
		}
		for _, a := range candidates(prev) {
			for _, b := range plan.FSA.Succ[a] {
				if !matchesAlias(plan, e, b) {
					continue
				}
				if plan.Where.EvalAdjacent(a, prev, b, e) {
					return true
				}
			}
		}
		return false
	}
	best, cur := 0, 0
	var prev *event.Event
	for _, e := range events {
		switch {
		case len(candidates(e)) == 0:
			cur = 0
		case cur == 0 || !connected(prev, e):
			cur = 1
		default:
			cur++
		}
		prev = e
		if cur > best {
			best = cur
		}
	}
	return best
}

// matchesAlias checks the event type and local predicates for one
// pattern type.
func matchesAlias(plan *core.Plan, e *event.Event, alias string) bool {
	for _, a := range plan.FSA.AliasesForType(e.Type) {
		if a == alias {
			return plan.Where.EvalLocal(alias, e)
		}
	}
	return false
}
