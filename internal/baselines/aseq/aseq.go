// Package aseq reimplements the A-Seq approach [33] the paper compares
// against: online aggregation of fixed-length event sequences by
// prefix counters, without sequence construction. A-Seq does not
// support Kleene closure, so a Kleene query is flattened into the
// workload of fixed-length sequence queries covering every possible
// trend length up to the longest match (§9.1); the number of queries
// grows with the number of events per window, which is exactly the
// overhead Figures 8 and 10 expose. A-Seq supports only
// skip-till-any-match and no predicates on adjacent events beyond
// equivalence predicates (Table 9).
package aseq

import (
	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
)

// Runner is the A-Seq baseline.
type Runner struct {
	plan *core.Plan
	// MaxLen caps the flattening length; 0 derives it from the window
	// content (the longest possible trend = events per window), the
	// configuration used for exact cross-validation.
	MaxLen int
	// BudgetUnits bounds the work (prefix-counter updates); 0 means
	// unlimited.
	BudgetUnits int64
	// Acct receives logical memory accounting if non-nil.
	Acct *metrics.Accountant
	ext  *baselines.Extender
}

// New builds an A-Seq runner.
func New(plan *core.Plan) *Runner { return &Runner{plan: plan, ext: baselines.NewExtender(plan)} }

// Name implements baselines.Runner.
func (r *Runner) Name() string { return "A-Seq" }

// Capabilities implements baselines.Runner: A-Seq flattens
// Kleene into fixed-length sequences, which works only under
// skip-till-any-match and cannot express adjacent predicates or
// negation (Table 9).
func (r *Runner) Capabilities() baselines.Capabilities {
	return baselines.Capabilities{Approach: "A-Seq", Any: true}
}

// seqQuery is one flattened fixed-length sequence query: prefix i
// holds the aggregate of all partial matches of aliases[0..i], per
// equivalence binding.
type seqQuery struct {
	aliases []string
	prefix  []map[string]*prefixEntry
}

type prefixEntry struct {
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

// evalSubstream runs the flattened query workload over one sub-stream;
// the returned release frees the counters when the window closes.
func (r *Runner) evalSubstream(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	if len(r.plan.Slots) == 0 {
		return r.evalFast(sub, collector, budget, acct)
	}
	return r.evalWithSlots(sub, collector, budget, acct)
}

// evalFast is the slot-free path: one aggregate per prefix position,
// updated in place (this is the layout the original A-Seq uses; the
// binding-keyed path below only exists for alias-scoped equivalence).
func (r *Runner) evalFast(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	plan := r.plan
	specs := plan.Specs
	maxLen := len(sub.Events)
	if r.MaxLen > 0 && r.MaxLen < maxLen {
		maxLen = r.MaxLen
	}
	flat := plan.FSA.Flatten(maxLen)
	type fastQuery struct {
		aliases []string
		prefix  []agg.Node // committed, strictly-earlier time stamps
		pending []agg.Node // staged contributions of the current time
		dirty   []bool
	}
	queries := make([]*fastQuery, len(flat))
	var stateBytes int64
	for qi, aliases := range flat {
		q := &fastQuery{aliases: aliases}
		q.prefix = make([]agg.Node, len(aliases))
		q.pending = make([]agg.Node, len(aliases))
		q.dirty = make([]bool, len(aliases))
		for i := range aliases {
			q.prefix[i] = specs.Zero()
			q.pending[i] = specs.Zero()
		}
		queries[qi] = q
		stateBytes += 2 * int64(len(aliases)) * specs.FootprintBytes()
	}
	acct.Add(stateBytes)
	release := func() { acct.Add(-stateBytes) }

	type posRef struct {
		q   *fastQuery
		pos int
	}
	posIndex := map[string][]posRef{}
	for _, q := range queries {
		for pos, alias := range q.aliases {
			posIndex[alias] = append(posIndex[alias], posRef{q: q, pos: pos})
		}
	}
	var dirtyRefs []posRef
	flush := func() {
		for _, ref := range dirtyRefs {
			if !ref.q.dirty[ref.pos] {
				continue
			}
			specs.Merge(&ref.q.prefix[ref.pos], ref.q.pending[ref.pos])
			specs.ZeroInto(&ref.q.pending[ref.pos])
			ref.q.dirty[ref.pos] = false
		}
		dirtyRefs = dirtyRefs[:0]
	}
	// Each contribution is extended into one scratch node and merged
	// at once, so the per-event work allocates nothing.
	zero, scratch := specs.Zero(), specs.Zero()
	curTime := int64(0)
	hasCur := false
	for _, e := range sub.Events {
		if hasCur && e.Time != curTime {
			flush()
		}
		curTime, hasCur = e.Time, true
		for _, alias := range baselines.CandidateAliases(plan, e) {
			refs := posIndex[alias]
			if !budget.Spend(int64(len(refs)) + 1) {
				return release, baselines.ErrBudget{Units: budget.Used()}
			}
			for _, ref := range refs {
				if ref.pos == 0 {
					r.ext.ExtendInto(&scratch, zero, alias, e, 1)
				} else {
					prev := ref.q.prefix[ref.pos-1]
					if prev.Count == 0 {
						continue
					}
					r.ext.ExtendInto(&scratch, prev, alias, e, 0)
				}
				specs.Merge(&ref.q.pending[ref.pos], scratch)
				if !ref.q.dirty[ref.pos] {
					ref.q.dirty[ref.pos] = true
					dirtyRefs = append(dirtyRefs, ref)
				}
			}
		}
	}
	flush()
	for _, q := range queries {
		last := q.prefix[len(q.aliases)-1]
		if last.Count != 0 {
			collector.Add(sub.Part, baselines.NewBinding(plan), last)
		}
	}
	return release, nil
}

// evalWithSlots is the general binding-keyed path.
func (r *Runner) evalWithSlots(sub baselines.Substream, collector *baselines.GroupCollector, budget *metrics.Budget, acct *metrics.Accountant) (func(), error) {
	plan := r.plan
	specs := plan.Specs
	// The longest possible trend is the window content; MaxLen > 0
	// additionally caps the flattening (the workload would otherwise
	// be unbounded — exactly the weakness §9.1 describes).
	maxLen := len(sub.Events)
	if r.MaxLen > 0 && r.MaxLen < maxLen {
		maxLen = r.MaxLen
	}
	// The flattening step: one sequence query per alias string.
	flat := plan.FSA.Flatten(maxLen)
	queries := make([]*seqQuery, len(flat))
	var stateBytes int64
	for qi, aliases := range flat {
		q := &seqQuery{aliases: aliases, prefix: make([]map[string]*prefixEntry, len(aliases))}
		for i := range q.prefix {
			q.prefix[i] = map[string]*prefixEntry{}
		}
		queries[qi] = q
		stateBytes += int64(16 * len(aliases)) // per-position table headers
	}
	acct.Add(stateBytes)
	release := func() { acct.Add(-stateBytes) }

	// posIndex maps an alias to every (query, position) slot it feeds.
	type posRef struct {
		q   *seqQuery
		pos int
	}
	posIndex := map[string][]posRef{}
	for _, q := range queries {
		for pos, alias := range q.aliases {
			posIndex[alias] = append(posIndex[alias], posRef{q: q, pos: pos})
		}
	}

	// Simultaneous events must not extend one another (Definition 7):
	// contributions of the current time stamp are staged and committed
	// when time advances.
	type staged struct {
		q   *seqQuery
		pos int
		key string
		e   *prefixEntry
	}
	var pend []staged
	curTime := int64(0)
	hasCur := false
	flush := func() {
		for _, s := range pend {
			dst, ok := s.q.prefix[s.pos][s.key]
			if !ok {
				dst = &prefixEntry{binding: s.e.binding, node: specs.Zero()}
				s.q.prefix[s.pos][s.key] = dst
				grow := specs.FootprintBytes() + int64(len(s.key)) + 24
				acct.Add(grow)
				stateBytes += grow
			}
			specs.Merge(&dst.node, s.e.node)
		}
		pend = pend[:0]
	}

	for _, e := range sub.Events {
		if hasCur && e.Time != curTime {
			flush()
		}
		curTime, hasCur = e.Time, true
		for _, alias := range baselines.CandidateAliases(plan, e) {
			refs := posIndex[alias]
			if !budget.Spend(int64(len(refs)) + 1) {
				return release, baselines.ErrBudget{Units: budget.Used()}
			}
			for _, ref := range refs {
				if ref.pos == 0 {
					b, ok := baselines.NewBinding(plan).Bind(plan, alias, e)
					if !ok {
						continue
					}
					node := r.ext.Extend(specs.Zero(), alias, e, 1)
					pend = append(pend, staged{q: ref.q, pos: 0, key: b.Key(),
						e: &prefixEntry{binding: b, node: node}})
					continue
				}
				for _, prev := range ref.q.prefix[ref.pos-1] {
					if !budget.Spend(1) {
						return release, baselines.ErrBudget{Units: budget.Used()}
					}
					nb, ok := prev.binding.Bind(plan, alias, e)
					if !ok {
						continue
					}
					node := r.ext.Extend(prev.node, alias, e, 0)
					pend = append(pend, staged{q: ref.q, pos: ref.pos, key: nb.Key(),
						e: &prefixEntry{binding: nb, node: node}})
				}
			}
		}
	}
	flush()
	for _, q := range queries {
		last := len(q.aliases) - 1
		for _, entry := range q.prefix[last] {
			collector.Add(sub.Part, entry.binding, entry.node)
		}
	}
	return release, nil
}
