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
// operations and no allocations. Neither does window turnover on a warm
// engine: a released aggregator keeps every piece of storage it grew
// and is reopened for a later (window, partition).
type mixedGrained struct {
	plan *Plan
	// sh is what every partition and window of the engine shares
	// (kernelShared): the accountant, the bindings, the per-call scratch.
	sh *kernelShared

	// tables holds the Tt aggregates (Algorithm 2's hash table H,
	// E.count of Theorem 4.1) per binding: the main table of each Tt
	// alias and, per negation constraint ci, a shadow of each Tt alias in
	// ci's Pred set, which mirrors the main table but resets on fires of
	// ci (Plan.tableCells numbers them). It is nil until the aggregator
	// stages its first update (own): a sub-stream that never reaches a
	// Tt alias owns nothing but this struct.
	tables []nodeTable
	// staged is the current time stamp's uncommitted updates, in arrival
	// order (the stream-transaction discipline of §8), kept as a list
	// (nodeTable.push) whose entries name their alias. It is the cell own
	// allocates after the tables.
	staged *nodeTable
	// te is nil for a TypeGrained plan (no adjacent predicate, so Te = ∅
	// by construction): what only stored events need stays behind this
	// one pointer. It is keyed on the plan label, not on
	// len(EventGrained): a MixedGrained plan whose adjacent predicate
	// constrains no FSA transition also has Te = ∅ but keeps its (empty)
	// store — the label decides whether a checkpoint carries the stored
	// and fires sections, and with them whether negation fires are
	// recorded and charged (snapshot.go, golden frame "unconstrained").
	te *eventStore

	stagedResets []int

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
	// left and aux back the stored entries' slices (arena.go).
	left arena[attrVal]
	aux  arena[agg.Aux]
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
// the alias's predecessor Tt tables followed by the stored entries of
// its event-grained predecessors up to the first edge with an adjacent
// check (aliasPlan.scanFrom). Staged updates commit only at flush (the
// stream-transaction discipline), so the committed tables — main and
// shadow — are frozen for the duration of one time stamp; entries stored
// at the current time stamp are invisible to it, and a negation guard
// blocks only on fires strictly between two times, none of which can
// arrive inside it. The sum computed for the first event of an
// equal-time run of a type is therefore valid for every follower, and
// the per-event predecessor iteration collapses to a copy. Only the
// stored predecessors from the first adjacent check on are scanned per
// event — which of them an event continues depends on the event's own
// attribute values — on top of the memoized sum, into the scan node;
// merging in the order of one full scan keeps float sums bit-identical.
// The scratch is owned by the Engine, not the sub-aggregator
// (kernelShared). Entries are valid only while one aggregator keeps
// processing one time stamp — any other claimant, a time advance, a
// flush of the owner (which commits staged updates into the memoized
// tables) or its release invalidates them wholesale. The owner is
// identified by pointer, and aggregators are recycled: a released owner
// may be reopened for another partition at the very same time stamp, so
// every path that retires an aggregator must disown the memo.
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

// disown invalidates the memo if t holds it.
func (m *runMemo) disown(t *mixedGrained) {
	if m.owner == t {
		m.owner = nil
	}
}

// runSumState values: the memo entry for an alias id is either stale
// (recompute), cached with at least one contributing predecessor
// entry, or cached with all predecessor tables empty.
const (
	runSumStale uint8 = iota
	runSumFound
	runSumEmpty
)

// newMixedGrained builds a cold aggregator: the struct, plus the event
// store a MixedGrained plan needs. Everything else is grown on demand
// and kept across Release.
func newMixedGrained(p *Plan, sh *kernelShared) *mixedGrained {
	t := &mixedGrained{plan: p, sh: sh}
	if p.Granularity == MixedGrained {
		t.te = &eventStore{
			stored: make([][]storedEntry, len(p.aliasNames)),
			fires:  newNegFires(len(p.FSA.Negations)),
		}
	}
	return t
}

func (t *mixedGrained) reopen() {} // holds nothing until its first commit

// own gives the aggregator its tables and its staged list, at the first
// update it stages or decodes, in one array of cells: a table keeps its
// first entry inline, and the entry's auxiliaries too when the plan
// reports at most inlineAux aggregates. A wider plan's first entries take
// theirs from a second array. The storage is kept across Release, so a
// recycled aggregator never owns again.
func (t *mixedGrained) own() {
	n := t.plan.tables
	cells := make([]nodeTable, n+1)
	t.tables, t.staged = cells[:n:n], &cells[n]
	if w := len(t.plan.Specs); w > inlineAux {
		aux := make([]agg.Aux, w*len(cells))
		for i := range cells {
			cells[i].one[0].node.Aux, aux = aux[:w:w], aux[w:]
		}
	}
}

// committed returns the entries of table i: none before the aggregator
// owns its tables.
func (t *mixedGrained) committed(i int32) []tableEntry {
	if t.tables == nil {
		return nil
	}
	return t.tables[i].entries
}

// stage appends one staged update and returns its node for ExtendInto,
// reusing the entry (and its Aux storage) a previous flush left behind.
func (t *mixedGrained) stage(alias int32, key bkey) *agg.Node {
	if t.staged == nil {
		t.own()
	}
	u := t.staged.push(len(t.plan.Specs))
	u.alias, u.key = alias, key
	return &u.node
}

// entryBytes is the logical size of one table entry: the aggregate
// node, the 8-byte interned key and map overhead.
func (t *mixedGrained) entryBytes() int64 {
	return t.plan.Specs.FootprintBytes() + 8 + 16
}

func (t *mixedGrained) storedBytes(rv *resolvedVals) int64 {
	return t.plan.eventBytes(rv) + t.plan.Specs.FootprintBytes() + 8 + 24
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
	specs, contrib := t.plan.Specs, &t.sh.contrib
	for ai := range tp.aliases {
		ap := &tp.aliases[ai]
		if !evalLocals(ap.locals, rv) {
			continue
		}
		if t.sh.bnd.none() {
			// Fast path without equivalence slots: every binding is the
			// empty key, so a single reused accumulator replaces the
			// contribution table.
			t.processFast(ap, rv)
			continue
		}
		assigns, ok := t.sh.bnd.assignments(ap, rv)
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
					if nk, compat := t.sh.bnd.combine(se.key, assigns); compat {
						contrib.add(specs, nk, &se.node)
					}
				}
				continue
			}
			// Type-grained predecessor (Algorithm 2 lines 7–8).
			tbl := t.committed(edge.table)
			for i := range tbl {
				if nk, compat := t.sh.bnd.combine(tbl[i].key, assigns); compat {
					contrib.add(specs, nk, &tbl[i].node)
				}
			}
		}
		// A start-type event also begins one fresh trend in the
		// binding holding only its own slot values.
		startKey := t.sh.bnd.emptyKey()
		if ap.isStart {
			startKey = t.sh.bnd.startKey(assigns)
			contrib.slot(specs, startKey)
		}
		for i := range contrib.entries {
			nk, pred := contrib.entries[i].key, contrib.entries[i].node
			started := uint64(0)
			if ap.isStart && nk == startKey {
				started = 1
			}
			// Zero-count nodes are kept: a count may legitimately be
			// congruent to 0 modulo 2^64 while its auxiliaries and
			// future contributions remain meaningful.
			if ap.eventGrained {
				t.store(ap, rv, nk, pred, started)
			} else {
				specs.ExtendInto(t.stage(ap.id, nk), pred, ap.specMatch, rv, started)
			}
		}
		contrib.reset()
	}
	// Negation fires are also staged: they invalidate strictly earlier
	// events only, and readers at this very time stamp must still see
	// the pre-fire shadows.
	for ni := range tp.negs {
		ng := &tp.negs[ni]
		if evalLocals(ng.locals, rv) {
			if t.te != nil && t.te.fires.fire(ng.ci, e.Time) {
				t.sh.acct.Add(8)
			}
			t.stagedResets = append(t.stagedResets, ng.ci)
		}
	}
}

// processFast is Process's inner loop for plans without equivalence
// slots: the single empty-key binding is accumulated in a reused node.
// The predecessor sum is memoized per time stamp (runMemo), so an
// equal-time run of a type pays the predecessor-table iteration, and
// the scan of the stored predecessors before its first adjacent check,
// once; only the stored predecessors from that check on are merged on
// top per event.
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
	m := &t.sh.memo
	m.claim(t)
	sum := &m.sums[ap.id]
	state := m.state[ap.id]
	if state == runSumStale {
		specs.ZeroInto(sum)
		state = runSumEmpty
		for pi := range ap.preds {
			if edge := &ap.preds[pi]; !edge.eventGrained {
				// Without slots a table holds the empty key or nothing.
				if tbl := t.committed(edge.table); len(tbl) > 0 {
					specs.Merge(sum, tbl[0].node)
					state = runSumFound
				}
			}
		}
		if t.te != nil {
			if _, stored := t.foldStored(sum, false, ap.preds[:ap.scanFrom], rv, nil); stored {
				state = runSumFound
			}
		}
		m.state[ap.id] = state
	}
	found := state == runSumFound
	if t.te != nil {
		// The memo entry must survive this event: stored predecessors
		// are merged into a copy of it.
		sum, found = t.foldStored(sum, found, ap.preds[ap.scanFrom:], rv, &m.scan)
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
		specs.ExtendInto(t.stage(ap.id, 0), *sum, ap.specMatch, rv, started)
	}
}

// foldStored merges into sum the stored entries of the event-grained
// edges among preds that precede the current time stamp, pass the
// edge's negation guard and satisfy its adjacent checks, in edge and
// arrival order; it returns the node merged into and whether any entry
// contributed. With a non-nil scratch the first contributing entry
// copies sum into scratch and the merges go there, leaving sum as it
// was.
func (t *mixedGrained) foldStored(sum *agg.Node, found bool, preds []predEdge, rv *resolvedVals, scratch *agg.Node) (*agg.Node, bool) {
	specs, now := t.plan.Specs, t.curTime
	for pi := range preds {
		edge := &preds[pi]
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
			if scratch != nil && sum != scratch {
				scratch.Count, scratch.Aux = sum.Count, append(scratch.Aux[:0], sum.Aux...)
				sum = scratch
			}
			specs.Merge(sum, se.node)
			found = true
		}
	}
	return sum, found
}

// store retains one Te event, in arrival order, with the aggregate of
// the trends ending at it (pred extended by the event, Table 8); its
// adjacent-predicate left operands and the node's auxiliaries go to
// arena cells (no per-entry GC object).
func (t *mixedGrained) store(ap *aliasPlan, rv *resolvedVals, key bkey, pred agg.Node, started uint64) {
	specs, te := t.plan.Specs, t.te
	se := storedEntry{
		time: rv.ev.Time,
		left: t.plan.copyLeftVals(te.left.alloc(len(t.plan.adjLeft)), rv),
		key:  key,
		node: agg.Node{Aux: te.aux.alloc(len(specs))},
		foot: t.storedBytes(rv),
	}
	specs.ExtendInto(&se.node, pred, ap.specMatch, rv, started)
	te.stored[ap.id] = append(te.stored[ap.id], se)
	t.sh.acct.Add(se.foot)
}

// flush commits the staged time stamp: resets first (they concern
// strictly earlier events), then contributions (events of the fired
// time stamp stay valid for the future). Committing mutates the
// tables, so the per-time-stamp contribution memos go stale here.
func (t *mixedGrained) flush() {
	t.sh.memo.disown(t)
	if t.staged == nil { // nothing was ever staged, so every table is empty
		t.stagedResets = t.stagedResets[:0]
		return
	}
	cells, n := t.plan.tableCells, len(t.plan.aliasNames)
	for _, ci := range t.stagedResets {
		for _, i := range cells[(ci+1)*n : (ci+2)*n] {
			if i < 0 {
				continue
			}
			tbl := &t.tables[i]
			t.sh.acct.Add(-int64(len(tbl.entries)) * t.entryBytes())
			tbl.reset()
		}
	}
	t.stagedResets = t.stagedResets[:0]
	specs, staged := t.plan.Specs, t.staged.entries
	for i := range staged {
		u := &staged[i]
		// The alias's cell in every row: the main table, then each shadow
		// that tracks it.
		for c := int(u.alias); c < len(cells); c += n {
			if cells[c] < 0 {
				continue
			}
			dst, created := t.tables[cells[c]].slot(specs, u.key)
			if created {
				t.sh.acct.Add(t.entryBytes())
			}
			specs.Merge(dst, u.node)
		}
	}
	t.staged.entries = staged[:0]
}

// Results merges per binding: Tt end aliases from their tables (Theorem
// 4.1: the final count is the count of the end type of P), Te end
// aliases from their stored entries (Algorithm 2 lines 15–16). When a
// Tt alias is the only end alias its table is the merge.
func (t *mixedGrained) Results() []bindingResult {
	t.flush()
	specs, sh, ends := t.plan.Specs, t.sh, t.plan.endAliasIDs
	merged := &sh.merged
	if len(ends) == 1 && !t.plan.eventGrainedByID[ends[0]] && t.tables != nil {
		merged = &t.tables[t.plan.tableCells[ends[0]]]
	} else {
		merged.reset()
		for _, id := range ends {
			if t.plan.eventGrainedByID[id] {
				for i := range t.te.stored[id] {
					se := &t.te.stored[id][i]
					merged.add(specs, se.key, &se.node)
				}
				continue
			}
			tbl := t.committed(t.plan.tableCells[id])
			for i := range tbl {
				merged.add(specs, tbl[i].key, &tbl[i].node)
			}
		}
	}
	out, vals := sh.out[:0], sh.vals[:0]
	for i := range merged.entries {
		if e := &merged.entries[i]; e.node.Count != 0 {
			at := len(vals)
			vals = sh.bnd.appendDecoded(vals, e.key)
			out = append(out, bindingResult{key: e.key, vals: vals[at:len(vals):len(vals)], node: e.node})
		}
	}
	sortBindingResults(out)
	sh.out, sh.vals = out, vals
	return out
}

// Release returns all retained memory to the accountant and empties the
// aggregator in place for its next sub-stream, keeping the storage this
// one used (Shed). Windows the manager drops unreported never flush, so
// the memo is disowned here too.
func (t *mixedGrained) Release() {
	t.sh.memo.disown(t)
	var freed int64
	for i := range t.tables {
		freed += int64(len(t.tables[i].entries)) * t.entryBytes()
		t.tables[i].release()
	}
	if t.staged != nil {
		t.staged.entries = t.staged.entries[:0] // one time stamp's worth: bounded by a run, not a window
	}
	if te := t.te; te != nil {
		for id, entries := range te.stored {
			for i := range entries {
				freed += entries[i].foot
			}
			clear(entries) // their cells go back to the arenas below
			te.stored[id] = Shed(entries)
		}
		freed += te.fires.footprint()
		te.fires.reset()
		te.left.reset()
		te.aux.reset()
	}
	t.sh.acct.Add(-freed)
	t.stagedResets = t.stagedResets[:0]
	t.hasCur = false
}
