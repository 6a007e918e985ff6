package core

import (
	"repro/internal/agg"
	"repro/internal/query"
)

// patternGrained implements Algorithm 3: skip-till-next-match and
// contiguous semantics keep only the final aggregate and the aggregate
// of the last matched event, because an event has at most one
// predecessor under these semantics (Theorem 6.1). Time complexity is
// O(n) and space O(1) per sub-stream (Theorems 6.3, 6.4).
//
// Operationally the aggregator maintains the chain of matched events:
// a new event extends the last matched event when they are adjacent
// (Definition 7 under the respective semantics), additionally starts a
// fresh trend when it is of a start type, and — under the contiguous
// semantics only — resets the chain when it cannot be matched at all,
// invalidating the partial trends that end at the last matched event
// (Example 7: event c5).
//
// The last matched event el is retained as its resolved
// adjacent-predicate left operands only, and the aggregate nodes are
// reused buffers, so the steady-state path is allocation-free.
type patternGrained struct {
	plan *Plan
	sh   *kernelShared // engine-owned: the accountant, Results' scratch

	hasEl   bool
	elTime  int64
	elAlias int32
	elFoot  int64 // accounted logical bytes of el
	elLeft  []attrVal
	elNode  agg.Node

	scratch  agg.Node // Extend target, swapped with elNode on match
	predZero agg.Node // reused zero predecessor for non-adjacent starts
	final    agg.Node
	fires    *negFires
}

func newPatternGrained(p *Plan, sh *kernelShared) *patternGrained {
	g := &patternGrained{
		plan:   p,
		sh:     sh,
		elNode: p.Specs.Zero(),
		final:  p.Specs.Zero(),
		fires:  newNegFires(len(p.FSA.Negations)),
	}
	g.reopen()
	return g
}

// reopen charges the constant state: two aggregate nodes.
func (g *patternGrained) reopen() {
	g.sh.acct.Add(2 * g.plan.Specs.FootprintBytes())
}

// Process implements Algorithm 3 lines 2–9.
func (g *patternGrained) Process(rv *resolvedVals) {
	e := rv.ev
	matched := false
	tp := rv.tp
	if tp != nil && len(tp.aliases) == 1 { // plan guarantees at most one
		ap := &tp.aliases[0]
		if evalLocals(ap.locals, rv) {
			started := ap.isStart
			adjacent := g.isAdjacent(ap, rv)
			if started || adjacent {
				specs := g.plan.Specs
				pred := &g.predZero
				if adjacent {
					pred = &g.elNode
				} else {
					specs.ZeroInto(&g.predZero)
				}
				s := uint64(0)
				if started {
					s = 1
				}
				specs.ExtendInto(&g.scratch, *pred, ap.specMatch, rv, s)
				if ap.isEnd {
					specs.Merge(&g.final, g.scratch)
				}
				g.setEl(rv, ap)
				matched = true
			}
		}
	}
	// Record negation matches; they block adjacency across the fire
	// time (per-pair refinement of §8's "set el to null").
	if tp != nil {
		for ni := range tp.negs {
			ng := &tp.negs[ni]
			if evalLocals(ng.locals, rv) {
				if g.fires.fire(ng.ci, e.Time) {
					g.sh.acct.Add(8)
				}
			}
		}
	}
	if !matched && g.plan.Query.Semantics == query.Cont {
		g.resetEl()
	}
}

// isAdjacent checks Definition 7 against the last matched event: the
// predecessor-type relation, strictly increasing time, the adjacent
// predicates θ, and no negation fire in between.
func (g *patternGrained) isAdjacent(ap *aliasPlan, rv *resolvedVals) bool {
	if !g.hasEl || g.elTime >= rv.ev.Time {
		return false
	}
	ei := ap.predIdx[g.elAlias]
	if ei < 0 {
		return false
	}
	edge := &ap.preds[ei]
	if !evalAdjacent(edge.adj, g.elLeft, rv) {
		return false
	}
	if edge.guard != 0 && g.fires.blockedBetween(int(edge.guard-1), g.elTime, rv.ev.Time) {
		return false
	}
	return true
}

// setEl installs the newly matched event as el: its trend aggregate is
// the node just computed in scratch (swapped in, so both buffers are
// reused), its left operands are copied out of the resolved view.
func (g *patternGrained) setEl(rv *resolvedVals, ap *aliasPlan) {
	if g.hasEl {
		g.sh.acct.Add(-g.elFoot)
	}
	g.hasEl = true
	g.elTime = rv.ev.Time
	g.elAlias = ap.id
	g.elFoot = g.plan.eventBytes(rv)
	g.elLeft = g.plan.copyLeftVals(g.elLeft, rv)
	g.elNode, g.scratch = g.scratch, g.elNode
	g.sh.acct.Add(g.elFoot)
}

func (g *patternGrained) resetEl() {
	if g.hasEl {
		g.sh.acct.Add(-g.elFoot)
	}
	g.hasEl = false
	g.elFoot = 0
	g.plan.Specs.ZeroInto(&g.elNode)
}

// Results returns the final aggregate (Algorithm 3 line 10); pattern
// granularity has no binding slots, so at most one result exists.
func (g *patternGrained) Results() []bindingResult {
	out := g.sh.out[:0]
	if g.final.Count != 0 {
		out = append(out, bindingResult{key: 0, node: g.final})
	}
	g.sh.out = out
	return out
}

// Release returns the state to the accountant and empties the
// aggregator in place for its next sub-stream.
func (g *patternGrained) Release() {
	freed := 2*g.plan.Specs.FootprintBytes() + g.fires.footprint()
	if g.hasEl {
		freed += g.elFoot
	}
	g.sh.acct.Add(-freed)
	// Every field a checkpoint lists goes back to what a new aggregator
	// holds, so a frame never tells a recycled aggregator from a new one.
	g.hasEl, g.elFoot, g.elTime, g.elAlias, g.elLeft = false, 0, 0, 0, g.elLeft[:0]
	g.plan.Specs.ZeroInto(&g.elNode)
	g.plan.Specs.ZeroInto(&g.final)
	g.fires.reset()
}
