package core

import (
	"repro/internal/agg"
)

// mixedGrained implements Algorithm 2, the one kernel of every
// skip-till-any-match plan. The event types of the pattern are split
// into Tt and Te (Theorem 5.1): types whose events future predicate
// evaluations never need keep one aggregate per type (and binding),
// while events of types restricted by an adjacent predicate θ are
// stored individually with an event-grained aggregate each. Time
// complexity is O(n(t+nₑ)) and space Θ(t+nₑ) per sub-stream (Theorem
// 5.2). Without adjacent predicates Te is empty and this is Algorithm
// 1: every matched event updates the aggregate of its type and is
// discarded, O(n·l) time and Θ(l) space (Theorems 4.2, 4.3) — the plan
// label TypeGrained names that case; it selects no other code, only
// that the (necessarily empty) event store is not built.
//
// Definition 7 requires a predecessor to be strictly earlier, so
// contributions to the Tt tables are staged and committed only when
// time advances (the stream-transaction discipline of §8), and the
// stored-event scan stops at the current time stamp; simultaneous
// events therefore never extend one another.
//
// Negated sub-patterns (§8) keep a shadow table per (constraint,
// predecessor Tt type): the shadow receives the same contributions as
// the main table but is wiped whenever the negated type matches, and
// transitions guarded by the constraint read the shadow instead of
// the main table ("aggregates of all predecessor types are marked as
// invalid to contribute to aggregates of the following types"). Stored
// predecessors are blocked per pair instead, by fire times strictly
// between the two events.
//
// All tables are keyed by interned binding keys and indexed by alias
// id (symbols.go); the steady-state Process path performs no string
// operations and no allocations.
type mixedGrained struct {
	plan *Plan
	acct accountant
	bnd  *bindings

	// tables holds the Tt aggregates (Algorithm 2's hash table H,
	// E.count of Theorem 4.1) per alias id and binding; nil for Te
	// aliases.
	tables []map[bkey]*agg.Node
	// shadows[ci][aliasID] mirrors tables[aliasID] but resets on fires
	// of negation constraint ci; only Tt aliases in the constraint's
	// Pred set are tracked (nil otherwise).
	shadows [][]map[bkey]*agg.Node
	// te is nil for a TypeGrained plan (no adjacent predicate, so Te = ∅
	// by construction). One sub-aggregator is opened per (window,
	// partition), and on a fleet of grouped queries that is the dominant
	// cost: what only stored events need stays behind this one pointer
	// so that open pays for none of it (TestSubAggregatorOpenCost). It is
	// keyed on the plan label, not on len(EventGrained): a MixedGrained
	// plan whose adjacent predicate constrains no FSA transition also has
	// Te = ∅ but keeps its (empty) store — in snapshot format v4 the
	// label decides whether a checkpoint carries the stored and fires
	// sections, and with them whether negation fires are recorded and
	// charged (snapshot.go, golden frame "unconstrained").
	te *eventStore

	staged       []stagedUpdate
	stagedResets []int

	contrib contribTable

	// memo is the engine-owned predecessor-sum scratch shared by every
	// partition and window the engine hosts (see runMemo); only the
	// no-equivalence fast path reads it.
	memo *runMemo

	curTime int64
	hasCur  bool
}

// eventStore is the Te side of one sub-aggregator.
type eventStore struct {
	// stored holds the Te events with their event-grained aggregates,
	// in arrival order, indexed by alias id.
	stored [][]storedEntry
	// fires records negation matches, for blocking stored predecessors.
	fires *negFires
	// arenas backs the stored entries' slices — engine-owned bump
	// allocators shared across windows and partitions; see arena.go.
	arenas *storeArenas
}

// storedEntry is one retained event of an event-grained type with the
// aggregate of all partial trends ending at it. The event itself is
// reduced to what future evaluations read: its time stamp and its
// adjacent-predicate left operands (copied out of the resolved view),
// so the dominant stored-event scan compares pre-resolved values — no
// map probes per stored entry.
type storedEntry struct {
	time int64
	left []attrVal
	key  bkey
	node agg.Node
	foot int64 // accounted logical bytes of this entry
}

// runMemo memoizes, per alias id, the merged committed contribution of
// the alias's predecessor Tt tables. Staged updates commit only at
// flush (the stream-transaction discipline), so the committed tables —
// main and shadow — are frozen for the duration of one time stamp: the
// sum computed for the first event of an equal-time run of a type is
// valid for every follower, and the per-event table iteration collapses
// to a copy. Stored predecessors are not memoized — which of them an
// event continues depends on the event's own attribute values — and are
// scanned per event on top of the memoized sum, into the scan node. The
// scratch is owned by the Engine, not the sub-aggregator: a partitioned
// engine constructs one aggregator per partition and window, and
// per-instance arrays would cost more allocation than the memo saves.
// Entries are valid only while one aggregator keeps processing one time
// stamp — any other claimant, a time advance or a flush of the owner
// (which commits staged updates into the memoized tables) invalidates
// them wholesale.
type runMemo struct {
	owner *mixedGrained
	time  int64
	sums  []agg.Node
	state []uint8
	scan  agg.Node
}

// claim makes the memo current for aggregator t at its current time
// stamp, invalidating all entries unless t already holds it there.
func (m *runMemo) claim(t *mixedGrained) {
	if m.owner == t && m.time == t.curTime {
		return
	}
	m.owner, m.time = t, t.curTime
	if n := len(t.plan.aliasNames); len(m.state) < n {
		m.sums = make([]agg.Node, n)
		m.state = make([]uint8, n)
		return
	}
	clear(m.state)
}

// runSumState values: the memo entry for an alias id is either stale
// (recompute), cached with at least one contributing predecessor
// entry, or cached with all predecessor tables empty.
const (
	runSumStale uint8 = iota
	runSumFound
	runSumEmpty
)

func newMixedGrained(p *Plan, acct accountant, bnd *bindings, ar *storeArenas, memo *runMemo) *mixedGrained {
	t := &mixedGrained{
		plan:    p,
		acct:    acct,
		bnd:     bnd,
		tables:  make([]map[bkey]*agg.Node, len(p.aliasNames)),
		contrib: newContribTable(p.Specs),
		memo:    memo,
	}
	for id := range t.tables {
		if !p.eventGrainedByID[id] {
			t.tables[id] = map[bkey]*agg.Node{}
		}
	}
	t.shadows = make([][]map[bkey]*agg.Node, len(p.FSA.Negations))
	for ci, nc := range p.FSA.Negations {
		row := make([]map[bkey]*agg.Node, len(p.aliasNames))
		for _, a := range nc.Pred {
			if id := p.aliasIDs[a]; !p.eventGrainedByID[id] {
				row[id] = map[bkey]*agg.Node{}
			}
		}
		t.shadows[ci] = row
	}
	if p.Granularity == MixedGrained {
		t.te = &eventStore{
			stored: make([][]storedEntry, len(p.aliasNames)),
			fires:  newNegFires(len(p.FSA.Negations)),
			arenas: ar,
		}
	}
	return t
}

// entryBytes is the logical size of one table entry: the aggregate
// node, the 8-byte interned key and map overhead.
func (t *mixedGrained) entryBytes() int64 {
	return t.plan.Specs.FootprintBytes() + 8 + 16
}

func (t *mixedGrained) storedBytes(rv *resolvedVals) int64 {
	return rv.ev.FootprintBytes() + t.plan.Specs.FootprintBytes() + 8 + 24
}

// Process implements Algorithm 2 lines 5–14 (Algorithm 1 lines 3–8
// when Te = ∅) with Table 8 aggregate propagation.
func (t *mixedGrained) Process(rv *resolvedVals) {
	e := rv.ev
	if t.hasCur && e.Time != t.curTime {
		t.flush()
	}
	t.curTime, t.hasCur = e.Time, true

	tp := rv.tp
	if tp == nil {
		return
	}
	specs := t.plan.Specs
	for ai := range tp.aliases {
		ap := &tp.aliases[ai]
		if !evalLocals(ap.locals, rv) {
			continue
		}
		if t.bnd.none() {
			// Fast path without equivalence slots: every binding is the
			// empty key, so a single reused accumulator replaces the
			// contribution table.
			t.processFast(ap, rv)
			continue
		}
		assigns, ok := t.bnd.assignments(ap, rv)
		if !ok {
			continue
		}
		// e.count per binding: sum the committed counts of every
		// predecessor compatible with e's slot assignments.
		for pi := range ap.preds {
			edge := &ap.preds[pi]
			if edge.eventGrained {
				// Event-grained predecessor: compare e to each stored
				// event (Algorithm 2 lines 9–10).
				stored := t.te.stored[edge.id]
				for i := range stored {
					se := &stored[i]
					if se.time >= e.Time {
						break // stored in arrival order
					}
					if edge.guard != 0 && t.te.fires.blockedBetween(int(edge.guard-1), se.time, e.Time) {
						continue
					}
					if !evalAdjacent(edge.adj, se.left, rv) {
						continue
					}
					if nk, compat := t.bnd.combine(se.key, assigns); compat {
						t.contrib.add(nk, &se.node)
					}
				}
				continue
			}
			// Type-grained predecessor (Algorithm 2 lines 7–8).
			for key, node := range t.tableFor(edge) {
				if nk, compat := t.bnd.combine(key, assigns); compat {
					t.contrib.add(nk, node)
				}
			}
		}
		// A start-type event also begins one fresh trend in the
		// binding holding only its own slot values.
		startKey := t.bnd.emptyKey()
		if ap.isStart {
			startKey = t.bnd.startKey(assigns)
			t.contrib.slot(startKey)
		}
		for i, nk := range t.contrib.keys {
			started := uint64(0)
			if ap.isStart && nk == startKey {
				started = 1
			}
			// Zero-count nodes are kept: a count may legitimately be
			// congruent to 0 modulo 2^64 while its auxiliaries and
			// future contributions remain meaningful.
			if ap.eventGrained {
				t.store(ap, rv, nk, t.contrib.nodes[i], started)
			} else {
				specs.ExtendInto(stageUpdate(&t.staged, ap.id, nk), t.contrib.nodes[i], ap.specMatch, rv, started)
			}
		}
		t.contrib.reset()
	}
	// Negation fires are also staged: they invalidate strictly earlier
	// events only, and readers at this very time stamp must still see
	// the pre-fire shadows.
	for ni := range tp.negs {
		ng := &tp.negs[ni]
		if evalLocals(ng.locals, rv) {
			if t.te != nil && t.te.fires.fire(ng.ci, e.Time) {
				t.acct.Add(8)
			}
			t.stagedResets = append(t.stagedResets, ng.ci)
		}
	}
}

// processFast is Process's inner loop for plans without equivalence
// slots: the single empty-key binding is accumulated in a reused node.
// The Tt part of the predecessor sum is memoized per time stamp
// (runMemo) so equal-time runs of a type pay the predecessor-table
// iteration once; stored predecessors are merged on top per event.
//
// An event that starts nothing is skipped exactly when no predecessor
// entry contributes — the same rule the contribution table gives the
// general path, where a key exists once anything was added to it. The
// rule is NOT "the merged sum is all-zero": a count congruent to 0
// modulo 2^64 is still an entry (see Process), and testing the sum
// would cost a scan of its auxiliaries per event
// (TestZeroSumPredecessorStillExtends).
func (t *mixedGrained) processFast(ap *aliasPlan, rv *resolvedVals) {
	specs := t.plan.Specs
	m := t.memo
	m.claim(t)
	sum := &m.sums[ap.id]
	state := m.state[ap.id]
	if state == runSumStale {
		specs.ZeroInto(sum)
		state = runSumEmpty
		for pi := range ap.preds {
			if edge := &ap.preds[pi]; !edge.eventGrained {
				for _, node := range t.tableFor(edge) {
					specs.Merge(sum, *node)
					state = runSumFound
				}
			}
		}
		m.state[ap.id] = state
	}
	found := state == runSumFound
	if t.te != nil {
		now := rv.ev.Time
		for pi := range ap.preds {
			edge := &ap.preds[pi]
			if !edge.eventGrained {
				continue
			}
			stored := t.te.stored[edge.id]
			for i := range stored {
				se := &stored[i]
				if se.time >= now {
					break // stored in arrival order
				}
				if edge.guard != 0 && t.te.fires.blockedBetween(int(edge.guard-1), se.time, now) {
					continue
				}
				if !evalAdjacent(edge.adj, se.left, rv) {
					continue
				}
				if sum != &m.scan {
					// The memo entry must survive this event: stored
					// predecessors are merged into a copy of it.
					m.scan.Count, m.scan.Aux = sum.Count, append(m.scan.Aux[:0], sum.Aux...)
					sum = &m.scan
				}
				specs.Merge(sum, se.node)
				found = true
			}
		}
	}
	if !found && !ap.isStart {
		return // no predecessor aggregates and nothing started
	}
	started := uint64(0)
	if ap.isStart {
		started = 1
	}
	if ap.eventGrained {
		t.store(ap, rv, 0, *sum, started)
	} else {
		specs.ExtendInto(stageUpdate(&t.staged, ap.id, 0), *sum, ap.specMatch, rv, started)
	}
}

// store retains one Te event, in arrival order, with the aggregate of
// the trends ending at it (pred extended by the event, Table 8); its
// adjacent-predicate left operands and the node's auxiliaries go to
// arena cells (no per-entry GC object).
func (t *mixedGrained) store(ap *aliasPlan, rv *resolvedVals, key bkey, pred agg.Node, started uint64) {
	specs, ar := t.plan.Specs, t.te.arenas
	se := storedEntry{
		time: rv.ev.Time,
		left: t.plan.copyLeftVals(ar.left.alloc(len(t.plan.adjLeft)), rv),
		key:  key,
		node: agg.Node{Aux: ar.aux.alloc(len(specs))},
		foot: t.storedBytes(rv),
	}
	specs.ExtendInto(&se.node, pred, ap.specMatch, rv, started)
	t.te.stored[ap.id] = append(t.te.stored[ap.id], se)
	t.acct.Add(se.foot)
}

// tableFor selects the main or shadow table for a Tt transition.
func (t *mixedGrained) tableFor(edge *predEdge) map[bkey]*agg.Node {
	if edge.guard != 0 {
		return t.shadows[edge.guard-1][edge.id]
	}
	return t.tables[edge.id]
}

// flush commits the staged time stamp: resets first (they concern
// strictly earlier events), then contributions (events of the fired
// time stamp stay valid for the future). Committing mutates the
// tables, so the per-time-stamp contribution memos go stale here.
func (t *mixedGrained) flush() {
	if t.memo.owner == t {
		t.memo.owner = nil
	}
	for _, ci := range t.stagedResets {
		for ai, tbl := range t.shadows[ci] {
			if tbl == nil {
				continue
			}
			t.acct.Add(-int64(len(tbl)) * t.entryBytes())
			t.shadows[ci][ai] = map[bkey]*agg.Node{}
		}
	}
	t.stagedResets = t.stagedResets[:0]
	for i := range t.staged {
		u := &t.staged[i]
		t.mergeInto(t.tables[u.alias], u.key, u.node)
		for _, row := range t.shadows {
			if tbl := row[u.alias]; tbl != nil {
				t.mergeInto(tbl, u.key, u.node)
			}
		}
	}
	t.staged = t.staged[:0]
}

func (t *mixedGrained) mergeInto(tbl map[bkey]*agg.Node, key bkey, node agg.Node) {
	dst, ok := tbl[key]
	if !ok {
		n := t.plan.Specs.Zero()
		tbl[key] = &n
		dst = &n
		t.acct.Add(t.entryBytes())
	}
	t.plan.Specs.Merge(dst, node)
}

// Results merges per binding: Tt end aliases from their tables (Theorem
// 4.1: the final count is the count of the end type of P), Te end
// aliases from their stored entries (Algorithm 2 lines 15–16).
func (t *mixedGrained) Results() []bindingResult {
	t.flush()
	merged := map[bkey]*agg.Node{}
	mergeKey := func(key bkey, node agg.Node) {
		dst, ok := merged[key]
		if !ok {
			n := t.plan.Specs.Zero()
			dst = &n
			merged[key] = dst
		}
		t.plan.Specs.Merge(dst, node)
	}
	for _, id := range t.plan.endAliasIDs {
		if t.plan.eventGrainedByID[id] {
			for i := range t.te.stored[id] {
				se := &t.te.stored[id][i]
				mergeKey(se.key, se.node)
			}
			continue
		}
		for key, node := range t.tables[id] {
			mergeKey(key, *node)
		}
	}
	out := make([]bindingResult, 0, len(merged))
	for k, n := range merged {
		if n.Count == 0 {
			continue
		}
		out = append(out, bindingResult{key: k, vals: t.bnd.decode(k), node: *n})
	}
	sortBindingResults(out)
	return out
}

// Release returns all retained memory to the accountant.
func (t *mixedGrained) Release() {
	for _, tbl := range t.tables {
		t.acct.Add(-int64(len(tbl)) * t.entryBytes())
	}
	for _, row := range t.shadows {
		for _, tbl := range row {
			t.acct.Add(-int64(len(tbl)) * t.entryBytes())
		}
	}
	if t.te != nil {
		for _, entries := range t.te.stored {
			for i := range entries {
				t.acct.Add(-entries[i].foot)
			}
		}
		t.acct.Add(-t.te.fires.footprint())
	}
	// Dropping the stored slices is what frees arena slabs: once every
	// sub-aggregator whose entries share a slab has been released, the
	// whole slab is unreachable and collected in one step.
	t.tables, t.shadows, t.te = nil, nil, nil
}
