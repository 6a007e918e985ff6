package core

import (
	"slices"
	"sort"

	"repro/internal/agg"
	"repro/internal/snap"
)

// subAggregator is the per-sub-stream execution unit: one instance
// serves one (window, stream partition key) at a time. Events arrive in
// stream order as resolved views; Results flushes pending state and
// reports the final aggregates per binding. Instances are recycled: the
// engine pools a released aggregator and reopens it for a later
// (window, partition) — see Engine.openSubAggregator.
type subAggregator interface {
	// Process consumes the next event of the sub-stream, presented as
	// its per-event resolved view (symbols.go).
	Process(rv *resolvedVals)
	// Results returns the aggregate of all finished trends, per
	// binding key, ordered by the decoded slot values. Bindings with
	// zero finished trends are omitted. The slice and everything it
	// references is engine-owned scratch (kernelShared) or the
	// aggregator's own state: valid until the next Results call on the
	// engine and the aggregator's Release, whichever comes first.
	Results() []bindingResult
	// Release returns the aggregator's logical memory to the accountant
	// and resets it in place, keeping the storage it grew: afterwards it
	// holds no state of the sub-stream it served and only reopen may be
	// called on it.
	Release()
	// reopen readies a released aggregator for its next sub-stream: it
	// charges what a live aggregator holds from birth, as the constructor
	// does.
	reopen()
	// code lists the aggregator's serialized fields in wire order
	// (snapshot.go).
	code(c *snap.Coder)
}

// bindingResult is the final aggregate of one equivalence binding,
// with the binding's slot values already decoded for result assembly.
type bindingResult struct {
	key  bkey
	vals []string
	node agg.Node
}

// sortBindingResults orders results by their decoded slot values,
// matching the lexicographic order the string-keyed representation
// reported (so emit merges groups in the identical order).
func sortBindingResults(out []bindingResult) {
	slices.SortFunc(out, func(a, b bindingResult) int { return slices.Compare(a.vals, b.vals) })
}

// kernelShared is what the sub-aggregators of one engine share instead
// of owning. An engine hosts one aggregator per (window, partition) but
// runs one of them at a time, so everything that is the same for all of
// them lives once per engine and a partition pays for none of it: the
// accountant, the bindings instance (so binding keys stay comparable
// across windows and partitions) and the per-call scratch.
type kernelShared struct {
	acct accountant
	bnd  *bindings
	// memo holds the predecessor sums of the current equal-time run
	// (runMemo); only the no-equivalence fast path reads it.
	memo runMemo
	// contrib accumulates the per-binding contribution of the event
	// being processed; empty between Process calls.
	contrib nodeTable
	// merged, out and vals back the return value of Results: the
	// per-binding merge of several end aliases, the result list, and the
	// decoded slot values out[i].vals slices.
	merged nodeTable
	out    []bindingResult
	vals   []string
	// sorted is where a snapshot sorts a table of several keys
	// (mixedGrained.codeTable); empty between uses.
	sorted []tableEntry
}

// newSubAggregator builds the aggregator of the plan's semantics: the
// Algorithm 2 kernel for skip-till-any-match (both the type- and the
// mixed-grained plan label — the compiled Tt/Te split is all that
// differs), the Algorithm 3 kernel otherwise. Only
// Engine.openSubAggregator calls it — on a pool miss.
func newSubAggregator(p *Plan, sh *kernelShared) subAggregator {
	if p.Granularity == PatternGrained {
		return newPatternGrained(p, sh)
	}
	return newMixedGrained(p, sh)
}

// accountant is the metrics.Accountant surface the aggregators need.
type accountant interface {
	Add(delta int64)
}

// nopAccountant discards accounting; used when metrics are off.
type nopAccountant struct{}

func (nopAccountant) Add(int64) {}

// negFires records, per negation constraint, the times at which the
// negated type matched. A predecessor event at time t1 must not feed a
// follower event at time t2 when some fire lies strictly between.
// Fire times arrive in non-decreasing order.
type negFires struct {
	times [][]int64
}

func newNegFires(n int) *negFires {
	if n == 0 {
		return nil
	}
	return &negFires{times: make([][]int64, n)}
}

// fire records a match of constraint ci at time t and reports whether
// a new entry was stored (duplicate fires at one time are equivalent).
func (n *negFires) fire(ci int, t int64) bool {
	ts := n.times[ci]
	if len(ts) > 0 && ts[len(ts)-1] == t {
		return false
	}
	n.times[ci] = append(ts, t)
	return true
}

// blockedBetween reports whether constraint ci fired strictly within
// (t1, t2).
func (n *negFires) blockedBetween(ci int, t1, t2 int64) bool {
	ts := n.times[ci]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t1 })
	return i < len(ts) && ts[i] < t2
}

// reset forgets every fire, keeping the storage it used (Shed).
func (n *negFires) reset() {
	if n == nil {
		return
	}
	for ci := range n.times {
		n.times[ci] = Shed(n.times[ci])
	}
}

// footprint returns the logical bytes of the recorded fire times.
func (n *negFires) footprint() int64 {
	if n == nil {
		return 0
	}
	var total int64
	for _, ts := range n.times {
		total += 8 * int64(len(ts))
	}
	return total
}
