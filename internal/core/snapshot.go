package core

// Checkpoint codec for the core execution state: catalog staging,
// binding intern tables, the two aggregation kernels, window states and
// the engine envelope. Every structure has ONE method
// (or function) that lists its fields in wire order against a
// snap.Coder; the same list encodes and decodes. Everything here
// serializes live private state VERBATIM — including the staged
// (uncommitted) contributions of the current time stamp, which must not
// be flushed: a snapshot may land mid-timestamp, and Definition 7 (a
// predecessor is strictly earlier) requires the staging discipline to
// survive restore.
//
// Decoding is defensive throughout: every collection length passes
// snap.Reader.Count, every enum and id read from the stream is range-
// checked against the restored plan's shape, and binding keys are
// validated against the restored intern tables, so a corrupt snapshot
// fails with ErrBadSnapshot instead of panicking or indexing out of
// bounds. That work is not field enumeration and sits behind
// c.Decoding(). Shape that is implied by the plan (table counts, shadow
// layout, adjacent-operand arity) is NOT serialized — restore derives
// it from the recompiled plan, leaving fewer places for drift to hide.

import (
	"cmp"
	"slices"

	"repro/internal/agg"
	"repro/internal/snap"
)

// --- catalog ---

// Code lists the catalog's staging state in wire order: names, flags,
// tombstones and free lists, plus the epoch and compaction counters.
// Reference counts are NOT serialized — restore rebuilds them by
// re-retaining the plans of the active subscriptions, exactly as live
// hosting does. Decoding (into a fresh catalog) reproduces the id
// spaces verbatim — live names at their original ids, tombstones in
// place, free lists in recycling order — so recompiling the surviving
// queries re-interns every name to its original id.
func (c *Catalog) Code(sc *snap.Coder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	na := len(c.attrNames)
	sc.Len(&na, 6)
	if sc.Decoding() {
		c.attrNames, c.attrRefs = make([]string, na), make([]int32, na)
		c.symNeeded, c.attrDead = make([]bool, na), make([]bool, na)
	}
	for id := range c.attrNames {
		sc.Str(&c.attrNames[id])
		sc.Bool(&c.symNeeded[id])
		sc.Bool(&c.attrDead[id])
	}
	snap.Slice(sc, &c.freeAttrs, 4, (*snap.Coder).I32)
	nt := len(c.typeNames)
	sc.Len(&nt, 5)
	if sc.Decoding() {
		c.typeNames, c.typeRefs, c.typeDead = make([]string, nt), make([]int32, nt), make([]bool, nt)
	}
	for id := range c.typeNames {
		sc.Str(&c.typeNames[id])
		sc.Bool(&c.typeDead[id])
	}
	snap.Slice(sc, &c.freeTypes, 4, (*snap.Coder).I32)
	sc.U64(&c.epoch)
	compactions := c.compactions.Load()
	sc.U64(&compactions)
	if sc.Decoding() && sc.Err() == nil {
		reindexNames(sc, "attr", c.attrNames, c.attrDead, c.freeAttrs, c.attrIDs)
		reindexNames(sc, "type", c.typeNames, c.typeDead, c.freeTypes, c.typeIDs)
		c.publishEpoch(c.epoch)
		c.compactions.Store(compactions)
	}
}

// reindexNames rebuilds one name→id map from a decoded id space and
// validates its tombstones against the free list.
func reindexNames(sc *snap.Coder, kind string, names []string, dead []bool, free []int32, ids map[string]int32) {
	for id, name := range names {
		sc.Check(dead[id] == (name == ""), "catalog %s %d: tombstone flag disagrees with name %q", kind, id, name)
		if _, dup := ids[name]; !dead[id] {
			sc.Check(!dup, "catalog %s %q interned twice", kind, name)
			ids[name] = int32(id)
		}
	}
	for _, id := range free {
		sc.Check(id >= 0 && int(id) < len(names) && dead[id], "catalog %s free list entry %d is not a tombstone", kind, id)
	}
}

// publishEpoch publishes the staging area at exactly the given epoch
// (publish always pre-increments). Caller holds mu.
func (c *Catalog) publishEpoch(epoch uint64) {
	if epoch == 0 {
		return // nothing was ever published; the fresh empty view stands
	}
	c.epoch = epoch - 1
	c.publish()
}

// ResetEpoch re-pins the epoch and compaction counters after restore:
// recompiling the surviving queries publishes intermediate epochs, and
// a restored session must report the same diagnostics as the
// undisturbed run.
func (c *Catalog) ResetEpoch(epoch, compactions uint64) {
	c.mu.Lock()
	if c.epoch != epoch {
		c.publishEpoch(epoch)
	}
	c.mu.Unlock()
	c.compactions.Store(compactions)
}

// --- results ---

// CodeResult lists one buffered result's fields in wire order. The
// aggregate specs are serialized inline (not derived from a plan):
// pending results can outlive their subscription's plan — an
// unsubscribed query keeps its undelivered results — so the record must
// be self-contained.
func CodeResult(c *snap.Coder, res *Result) {
	c.I64(&res.Wid)
	c.I64(&res.Start)
	c.I64(&res.End)
	snap.Slice(c, &res.Group, 4, (*snap.Coder).Str)
	agg.CodeValues(c, &res.Values)
}

// --- bindings ---

// code lists the intern tables in wire order: values (tombstoned
// entries as ""), optional epoch stamps, free lists, and for wide plans
// the interned vectors. It decodes into a freshly built bindings of the
// same plan shape: the id→value slices are taken verbatim (so binding
// keys stored in the aggregator tables keep decoding to the same
// values); the maps and the per-epoch candidate buckets are pure
// bookkeeping and are rebuilt from them. cut is the epoch of the
// snapshotted engine's watermark and seen whether it had one.
func (b *bindings) code(c *snap.Coder, cut int64, seen bool) {
	nslots := b.nslots
	c.Int(&nslots)
	c.I64(&b.bytes)
	c.I64(&b.epoch)
	c.Bool(&b.epochInit)
	c.Check(nslots == b.nslots, "binding slot count %d disagrees with the recompiled plan's %d", nslots, b.nslots)
	if b.nslots == 0 {
		return
	}
	snap.Slice(c, &b.vals, 4, (*snap.Coder).Str)
	codeStamps(c, &b.valEpoch, len(b.vals))
	snap.Slice(c, &b.freeVals, 4, (*snap.Coder).U32)
	if c.Decoding() {
		c.Check(len(b.vals) > 0 && b.vals[0] == "", "binding value id 0 is not the unbound value")
		if c.Err() != nil {
			return
		}
		if b.evict && b.valEpoch == nil && seen {
			// The snapshotted engine did not evict: nothing says when its
			// entries were last touched. Rotate from the cut as an evicting
			// engine would have, with every entry stamped at the cut's
			// epoch — no window open at the cut outlives that stamp.
			b.epoch, b.epochInit = cut, true
		}
		live := func(id int) (string, bool) { return b.vals[id], b.vals[id] != "" }
		b.valIDs, b.valEpoch, b.valBuckets = reindex(c, len(b.vals), live, b.freeVals, b.evict, b.valEpoch, b.epoch)
		b.valIDs[""] = 0
	}
	if b.nslots <= 2 {
		return
	}
	nvec := len(b.vecs)
	c.Len(&nvec, 1)
	if c.Decoding() {
		b.vecs = make([][]uint32, nvec)
	}
	for i := range b.vecs {
		live := b.vecs[i] != nil
		c.Bool(&live)
		if live {
			snap.Array(c, &b.vecs[i], b.nslots, 4, (*snap.Coder).U32)
		}
	}
	codeStamps(c, &b.vecEpoch, nvec)
	snap.Slice(c, &b.freeVecs, 8, codeBkey)
	if c.Decoding() {
		c.Check(nvec > 0 && b.vecs[0] != nil, "binding vector 0 (all-unbound) is missing")
		for _, vec := range b.vecs {
			for _, v := range vec {
				c.Check(uint64(v) < uint64(len(b.vals)), "binding vector references an unknown value id")
			}
		}
		if c.Err() != nil {
			return
		}
		b.vecIDs, b.vecEpoch, b.vecBuckets = reindex(c, nvec, b.vecKey, b.freeVecs, b.evict, b.vecEpoch, b.epoch)
	}
}

// codeStamps codes the optional epoch stamps parallel to an n-entry
// intern table (present only when the snapshotted engine evicted).
func codeStamps(c *snap.Coder, stamps *[]int64, n int) {
	stamped := *stamps != nil
	c.Bool(&stamped)
	if stamped {
		snap.Array(c, stamps, n, 8, (*snap.Coder).I64)
	} else if c.Decoding() {
		*stamps = nil
	}
}

func codeBkey(c *snap.Coder, k *bkey) { c.U64((*uint64)(k)) }

// reindex rebuilds the bookkeeping of one decoded n-entry intern table:
// the entry→id map over its live entries (key reports an entry's map
// key, false for a tombstone; id 0 is reserved and never mapped), the
// free list's claim to hold exactly tombstones, and the stamps and
// per-epoch candidate buckets of the restoring engine. A snapshot taken
// without eviction restores into an evicting engine with every stamp set
// to epoch (entries age out normally from there); stamps in the snapshot
// are dropped when the restored engine does not evict.
func reindex[ID ~uint32 | ~uint64](c *snap.Coder, n int, key func(id int) (string, bool), free []ID, evict bool, stamps []int64, epoch int64) (ids map[string]ID, _ []int64, buckets map[int64][]ID) {
	ids = map[string]ID{}
	if !evict {
		stamps = nil
	} else if buckets = map[int64][]ID{}; stamps == nil {
		stamps = make([]int64, n)
		for i := range stamps {
			stamps[i] = epoch
		}
	}
	for id := 1; id < n; id++ {
		k, live := key(id)
		if !live {
			continue
		}
		_, dup := ids[k]
		c.Check(!dup, "binding intern table holds an entry twice")
		ids[k] = ID(id)
		if evict {
			buckets[stamps[id]] = append(buckets[stamps[id]], ID(id))
		}
	}
	for _, id := range free {
		tombstone := id != 0 && uint64(id) < uint64(n)
		if tombstone {
			_, live := key(int(id))
			tombstone = !live
		}
		c.Check(tombstone, "binding free list entry is not a tombstone")
	}
	return ids, stamps, buckets
}

// vecKey packs interned vector id into its vecIDs map key; false for a
// tombstone.
func (b *bindings) vecKey(id int) (string, bool) {
	k := b.scratchKey[:0]
	for _, v := range b.vecs[id] {
		k = append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b.scratchKey = k
	return string(k), b.vecs[id] != nil
}

// validKey reports whether a binding key read from a snapshot can be
// decoded against the restored intern tables without indexing out of
// bounds.
func (b *bindings) validKey(key bkey) bool {
	if b.nslots == 0 {
		return key == 0
	}
	if b.nslots <= 2 {
		for i := 0; i < b.nslots; i++ {
			if uint64(uint32(key>>(uint(i)*32))) >= uint64(len(b.vals)) {
				return false
			}
		}
		if b.nslots == 1 && key>>32 != 0 {
			return false
		}
		return true
	}
	return key < bkey(len(b.vecs)) && b.vecs[key] != nil
}

// --- shared aggregator pieces ---

// fits reports whether a decoded (binding key, node) pair can live in
// an engine of this plan: the key decodes against the restored intern
// tables and the node carries one auxiliary per RETURN spec, as live
// nodes always do.
func (p *Plan) fits(bnd *bindings, k bkey, n *agg.Node) bool {
	return bnd.validKey(k) && len(n.Aux) == len(p.Specs)
}

// codeTable codes table i in ascending key order (a table nothing was
// ever committed to is empty, as one holding no entries is, and so is
// every table of an aggregator that owns none yet: the plan decides
// which tables a frame carries, not what the run grew). Encoding, a
// table of several keys is sorted in the engine's scratch; decoding,
// each entry decodes straight into the node its table inserts, so a
// restored aggregator has the layout a live one grows.
func (t *mixedGrained) codeTable(c *snap.Coder, i int) {
	p, bnd := t.plan, t.sh.bnd
	var entries []tableEntry
	if t.tables != nil {
		entries = t.tables[i].entries
	}
	n := len(entries)
	c.Len(&n, 8+agg.NodeMinBytes)
	if c.Decoding() {
		for j := 0; j < n && c.Err() == nil; j++ {
			if t.tables == nil {
				t.own()
			}
			tbl := &t.tables[i]
			var k bkey
			codeBkey(c, &k)
			c.Check(tbl.find(k) < 0 && bnd.validKey(k), "aggregate table entry repeats a binding key or does not fit the plan")
			if c.Err() == nil {
				dst, _ := tbl.slot(p.Specs, k)
				agg.CodeNode(c, dst)
				c.Check(p.fits(bnd, k, dst), "aggregate table entry repeats a binding key or does not fit the plan")
			}
		}
		return
	}
	sorted := entries
	if n > 1 {
		sorted = append(t.sh.sorted[:0], entries...)
		slices.SortFunc(sorted, func(a, b tableEntry) int { return cmp.Compare(a.key, b.key) })
	}
	for j := range sorted {
		codeBkey(c, &sorted[j].key)
		agg.CodeNode(c, &sorted[j].node)
	}
	if n > 1 {
		clear(sorted) // the scratch pins no table's storage
		t.sh.sorted = sorted[:0]
	}
}

func codeStagedUpdate(c *snap.Coder, u *tableEntry) {
	c.I32(&u.alias)
	codeBkey(c, &u.key)
	agg.CodeNode(c, &u.node)
}

// codeStaged codes the open time stamp's uncommitted updates, decoding
// each straight into the entry the staged list appends, and its negation
// resets.
func (t *mixedGrained) codeStaged(c *snap.Coder) {
	p, bnd := t.plan, t.sh.bnd
	var staged []tableEntry
	if t.staged != nil {
		staged = t.staged.entries
	}
	n := len(staged)
	c.Len(&n, 12+agg.NodeMinBytes)
	for j := 0; j < n && c.Err() == nil; j++ {
		if !c.Decoding() {
			codeStagedUpdate(c, &staged[j])
			continue
		}
		if t.staged == nil {
			t.own()
		}
		u := t.staged.push(len(p.Specs))
		codeStagedUpdate(c, u)
		c.Check(u.alias >= 0 && int(u.alias) < len(p.aliasNames) && p.fits(bnd, u.key, &u.node), "staged update does not fit the plan")
	}
	snap.Slice(c, &t.stagedResets, 8, (*snap.Coder).Int)
	if c.Decoding() {
		for _, ci := range t.stagedResets {
			c.Check(ci >= 0 && ci < len(p.FSA.Negations), "staged reset references an unknown negation")
		}
	}
}

// codeNegFires codes the fire times of the plan's n negation
// constraints (f is nil exactly when n is 0).
func codeNegFires(c *snap.Coder, f *negFires, n int) {
	for ci := 0; ci < n; ci++ {
		snap.Slice(c, &f.times[ci], 8, (*snap.Coder).I64)
	}
}

func codeAttrVal(c *snap.Coder, v *attrVal) {
	c.F64(&v.num)
	c.Str(&v.sym)
	c.U8(&v.has)
}

// fitsLeft reports whether decoded left operands have a live entry's
// arity: one value per distinct adjacent-predicate left attribute, or
// none retained.
func (p *Plan) fitsLeft(left []attrVal) bool {
	return len(left) == 0 || len(left) == len(p.adjLeft)
}

// --- sub-aggregators ---
//
// The concrete type is implied by the plan's semantics, which tables
// exist by its Tt/Te split and whether the stored and fires sections
// exist by its label (MixedGrained writes them even when Te = ∅), so no
// tag is written; each decodes into a freshly opened aggregator
// (Engine.openSubAggregator — built or recycled, it is empty either
// way). Accounting side effects of opening are irrelevant: the owning
// accountant is restored verbatim afterwards.

func (t *mixedGrained) code(c *snap.Coder) {
	bnd := t.sh.bnd
	c.I64(&t.curTime)
	c.Bool(&t.hasCur)
	for i := range t.plan.tables { // in grid order: main tables by alias id, then the shadow rows
		t.codeTable(c, i)
	}
	if te := t.te; te != nil {
		for id := range te.stored {
			snap.Slice(c, &te.stored[id], 16+agg.NodeMinBytes, codeStoredEntry)
			for i := 0; c.Decoding() && i < len(te.stored[id]); i++ {
				se := &te.stored[id][i]
				c.Check(t.plan.fits(bnd, se.key, &se.node) && t.plan.fitsLeft(se.left), "stored event does not fit the plan")
			}
		}
		codeNegFires(c, te.fires, len(t.plan.FSA.Negations))
	}
	t.codeStaged(c)
}

func codeStoredEntry(c *snap.Coder, se *storedEntry) {
	c.I64(&se.time)
	snap.Slice(c, &se.left, 13, codeAttrVal)
	codeBkey(c, &se.key)
	agg.CodeNode(c, &se.node)
	c.I64(&se.foot)
}

func (g *patternGrained) code(c *snap.Coder) {
	c.Bool(&g.hasEl)
	c.I64(&g.elTime)
	c.I32(&g.elAlias)
	c.I64(&g.elFoot)
	snap.Slice(c, &g.elLeft, 13, codeAttrVal)
	agg.CodeNode(c, &g.elNode)
	agg.CodeNode(c, &g.final)
	codeNegFires(c, g.fires, len(g.plan.FSA.Negations))
	p := g.plan
	c.Check(!g.hasEl || (g.elAlias >= 0 && int(g.elAlias) < len(p.aliasNames)), "last matched event references an unknown alias")
	c.Check(p.fitsLeft(g.elLeft) && len(g.elNode.Aux) == len(p.Specs) && len(g.final.Aux) == len(p.Specs), "pattern-grained state does not fit the plan")
}

// --- engine ---

// restorePartition installs a decoded partition in ws, numbering its key
// as a live one would be; false when ws holds the key already or the
// plan has no partition attributes and the key is not "".
func (e *Engine) restorePartition(ws *winState, key string, sa subAggregator) bool {
	var pid int32
	if len(e.plan.StreamKeys) > 0 {
		pid = e.parts.id(key)
	} else if key != "" {
		return false
	}
	if int(pid) < len(ws.sas) && ws.sas[pid] != nil {
		return false
	}
	e.install(ws, pid, sa)
	return true
}

// Code lists the engine's complete execution state in wire order:
// stream position, counters, the undelivered result buffer, the binding
// intern tables, and every open window's sub-aggregators by ascending
// window id and partition key. Encoding, the engine must be quiescent
// (no Process in flight); decoding loads a freshly built engine for the
// same (recompiled) plan — the caller restores the engine's accountant
// afterwards, overwriting the accounting churn of state loading — and
// an engine whose clock passes ceil (math.MinInt64 when the engine's
// owner has seen no event) fails the frame.
func (e *Engine) Code(c *snap.Coder, ceil int64) {
	c.I64(&e.lastTime)
	c.Bool(&e.sawEvent)
	c.Check(!e.sawEvent || e.lastTime <= ceil, "an engine clock is ahead of its owner's watermark")
	c.I64(&e.seq)
	c.I64(&e.eventsIn)
	c.I64(&e.skipped)
	snap.Slice(c, &e.results, 16, CodeResult)
	e.sh.bnd.code(c, e.mgr.Spec().EpochOf(e.lastTime), e.sawEvent)
	e.mgr.CodeCursor(c)
	wids := e.mgr.ActiveWids()
	nw := len(wids)
	c.Len(&nw, 16)
	for i := 0; i < nw && c.Err() == nil; i++ {
		var ws *winState
		if c.Decoding() {
			ws = e.openWindow(0)
		} else {
			ws, _ = e.mgr.State(wids[i])
		}
		c.I64(&ws.wid)
		np := ws.open
		c.Len(&np, 8)
		if c.Decoding() {
			ws.sas = make([]subAggregator, len(e.parts.parts)+np) // every id this window's keys can take
		}
		walk, at := e.partitions(), 0 // encoding: the set slots in key order
		for j := 0; j < np && c.Err() == nil; j++ {
			var pk string
			var sa subAggregator
			if c.Decoding() {
				sa = e.openSubAggregator()
			} else {
				for ; int(walk[at]) >= len(ws.sas) || ws.sas[walk[at]] == nil; at++ {
				}
				pk, sa = e.parts.key(walk[at]), ws.sas[walk[at]]
				at++
			}
			c.Str(&pk)
			sa.code(c)
			if c.Decoding() {
				c.Check(e.restorePartition(ws, pk, sa), "window repeats a partition key or holds one its plan has not")
			}
		}
		if c.Decoding() && c.Err() == nil {
			c.Check(e.mgr.RestoreState(ws.wid, ws), "active window contradicts the window cursor")
		}
	}
	if c.Decoding() {
		e.statesValid = false
	}
}
