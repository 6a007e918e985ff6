package core

// Symbol interning and plan compilation: the static query analyzer
// interns every event-type, alias and attribute name referenced by a
// query into dense integer ids, and compiles the WHERE clause and the
// FSA transition metadata into per-event-type dispatch tables. At run
// time each event is resolved ONCE into a slot array of its referenced
// attribute values (the "resolved view"); every predicate evaluation,
// binding-slot read and partition-key extraction afterwards is array
// indexing — no map[string] probes and no string concatenation on the
// per-event hot path. The interning is an internal representation
// change only: results are identical to the string-keyed evaluator.

import (
	"slices"

	"repro/internal/event"
	"repro/internal/predicate"
)

// Presence bits of one resolved attribute slot.
const (
	hasNum    uint8 = 1 << iota // numeric attribute present on the event
	hasSymRaw                   // symbolic attribute present on the event
	hasSymVal                   // sym[] holds a value (raw, or numeric fallback)
)

// resolvedVals is the per-event resolved view: the values of every
// plan-referenced attribute, indexed by interned attribute id, plus
// the compiled dispatch entry for the event's type. One instance per
// engine is reused across events; aggregators copy out what they
// retain (stored-event left operands, binding-slot values).
type resolvedVals struct {
	// ev is the event an engine is processing, cleared when the call
	// returns: a decoded batch's events share one arena, and a pointer
	// kept to the last of them would pin the whole batch.
	ev *event.Event
	tp *typePlan // compiled entry for ev.Type; nil for irrelevant types

	num []float64
	sym []string
	has []uint8

	specIDs []int32 // shared from the plan: spec index -> attr id (-1 none)
}

// SpecNum implements agg.SpecSource: the numeric attribute of spec i.
func (rv *resolvedVals) SpecNum(i int) (float64, bool) {
	id := rv.specIDs[i]
	if id < 0 {
		return 0, false
	}
	return rv.num[id], rv.has[id]&hasNum != 0
}

// attrVal is one retained attribute value of a stored event: the left
// operand of adjacent-predicate evaluation, copied out of the resolved
// view when an event-grained aggregator stores an event.
type attrVal struct {
	num float64
	sym string
	has uint8
}

// localCheck is one compiled local predicate applying to an alias:
// resolved-attr ◦ constant, the constant a number (isNum) or a string
// (query.Validate admits no other).
type localCheck struct {
	attr  int32
	op    predicate.Op
	isNum bool
	num   float64
	str   string
}

// eval mirrors predicate.Local.Eval over the resolved view: the
// attribute is read numeric-first (Event.Attr), a missing attribute
// fails, and kind-mismatched operands compare unequal.
func (c *localCheck) eval(rv *resolvedVals) bool {
	h := rv.has[c.attr]
	switch {
	case h&hasNum != 0:
		if !c.isNum {
			return c.op == predicate.Ne
		}
		return predicate.CompareFloats(rv.num[c.attr], c.num, c.op)
	case h&hasSymRaw != 0:
		if c.isNum {
			return c.op == predicate.Ne
		}
		return predicate.CompareStrings(rv.sym[c.attr], c.str, c.op)
	}
	return false
}

// evalLocals reports whether every compiled local check passes.
func evalLocals(checks []localCheck, rv *resolvedVals) bool {
	for i := range checks {
		if !checks[i].eval(rv) {
			return false
		}
	}
	return true
}

// adjCheck is one compiled adjacent predicate guarding a transition
// (predecessor alias -> alias): stored-left ◦ incoming-right.
type adjCheck struct {
	leftPos   int   // index into the stored event's attrVal slice
	leftAttr  int32 // attr id of the left operand (for resolved lefts)
	rightAttr int32
	op        predicate.Op
}

// eval mirrors predicate.Adjacent.Eval: both operands read
// numeric-first, missing operands fail, mixed kinds compare unequal.
func (c *adjCheck) eval(left []attrVal, rv *resolvedVals) bool {
	lv := &left[c.leftPos]
	rh := rv.has[c.rightAttr]
	if lv.has&(hasNum|hasSymRaw) == 0 || rh&(hasNum|hasSymRaw) == 0 {
		return false
	}
	if lv.has&hasNum != 0 {
		if rh&hasNum == 0 {
			return c.op == predicate.Ne
		}
		return predicate.CompareFloats(lv.num, rv.num[c.rightAttr], c.op)
	}
	if rh&hasNum != 0 {
		return c.op == predicate.Ne
	}
	return predicate.CompareStrings(lv.sym, rv.sym[c.rightAttr], c.op)
}

// evalAdjacent reports whether every adjacent check guarding a
// transition accepts the (stored left, incoming right) pair.
func evalAdjacent(checks []adjCheck, left []attrVal, rv *resolvedVals) bool {
	for i := range checks {
		if !checks[i].eval(left, rv) {
			return false
		}
	}
	return true
}

// slotRef is one binding-slot assignment demanded of an alias: the
// event's resolved value of attr binds slot.
type slotRef struct {
	slot int
	attr int32
}

// predEdge is one compiled FSA transition into an alias.
type predEdge struct {
	id           int32 // predecessor alias id
	guard        int32 // negation constraint index + 1; 0 = unguarded
	table        int32 // index in mixedGrained.tables of the table a Tt predecessor is read from
	eventGrained bool  // predecessor keeps stored events (mixed Te)
	adj          []adjCheck
}

// aliasPlan is the compiled per-alias dispatch entry: everything the
// aggregators need to process an event matched under this alias, with
// all name comparisons hoisted to compile time.
type aliasPlan struct {
	id           int32
	name         string
	isStart      bool
	isEnd        bool
	eventGrained bool
	locals       []localCheck
	preds        []predEdge
	predIdx      []int32 // predIdx[aliasID]: index into preds, -1 if not a predecessor
	slots        []slotRef
	specMatch    []bool // specMatch[i]: does spec i target this alias
	// scanFrom is the index of the first edge in preds with an adjacent
	// check (len(preds) if none). The stored predecessors of the edges
	// before it are read the same by every event of a time stamp, so the
	// fast path folds them into the run memo; only those from here on are
	// scanned per event.
	scanFrom int
}

// negCheck is one negation constraint fired by an event type.
type negCheck struct {
	ci     int
	locals []localCheck
}

// typePlan is the compiled dispatch entry of one stream event type.
type typePlan struct {
	aliases []aliasPlan
	negs    []negCheck
}

// compile interns symbols into the plan's catalog and builds the
// dispatch tables. Called once at the end of NewPlanIn, after all
// string-level analysis.
func (p *Plan) compile() {
	p.aliasIDs = make(map[string]int32, len(p.FSA.Aliases))
	p.aliasNames = append([]string(nil), p.FSA.Aliases...)
	for i, a := range p.aliasNames {
		p.aliasIDs[a] = int32(i)
	}

	// Attributes read symbolically (binding slots, partition keys) need
	// the SymAttr numeric fallback materialised at resolve time.
	p.streamKeyIDs = make([]int32, len(p.StreamKeys))
	for i, a := range p.StreamKeys {
		p.streamKeyIDs[i] = p.internAttr(a, true)
	}
	for _, s := range p.Slots {
		p.internAttr(s.Attr, true)
	}

	p.specIDs = make([]int32, len(p.Specs))
	for i, s := range p.Specs {
		p.specIDs[i] = -1
		if s.Attr != "" {
			p.specIDs[i] = p.internAttr(s.Attr, false)
		}
	}

	// Left operands of adjacent predicates are copied into stored
	// events; assign each distinct left attribute a dense position.
	leftPos := map[int32]int{}
	for _, a := range p.Where.Adjacents {
		id := p.internAttr(a.LeftAttr, false)
		p.internAttr(a.RightAttr, false)
		if _, ok := leftPos[id]; !ok {
			leftPos[id] = len(p.adjLeft)
			p.adjLeft = append(p.adjLeft, id)
		}
	}
	for _, l := range p.Where.Locals {
		p.internAttr(l.Attr, false)
	}

	p.endAliasIDs = make([]int32, 0, len(p.FSA.End))
	for _, a := range p.FSA.EndAliases() {
		p.endAliasIDs = append(p.endAliasIDs, p.aliasIDs[a])
	}
	p.eventGrainedByID = make([]bool, len(p.aliasNames))
	for a := range p.EventGrained {
		if id, ok := p.aliasIDs[a]; ok {
			p.eventGrainedByID[id] = true
		}
	}
	// The aggregate tables of the any-match kernel, one row of alias
	// cells per table kind: row 0 the Tt aliases' main tables, row ci+1
	// the shadows of negation constraint ci, which track only the Tt
	// aliases in its Pred set. The cells in use are numbered in row
	// order; the others get no table.
	n := len(p.aliasNames)
	p.tableCells = make([]int32, n*(1+len(p.FSA.Negations)))
	for c := range p.tableCells {
		row, id := c/n, c%n
		p.tableCells[c] = -1
		if !p.eventGrainedByID[id] && (row == 0 || slices.Contains(p.FSA.Negations[row-1].Pred, p.aliasNames[id])) {
			p.tableCells[c] = int32(p.tables)
			p.tables++
		}
	}

	// Per-type dispatch tables, indexed by catalog type id: matching
	// aliases plus fired negations. Types of other plans in a shared
	// catalog keep nil entries (and later types fall off the end), so
	// dispatch is a bounds-checked array read.
	typePlanOf := func(typ string) *typePlan {
		tid := p.cat.internType(typ)
		for int(tid) >= len(p.typePlans) {
			p.typePlans = append(p.typePlans, nil)
		}
		tp := p.typePlans[tid]
		if tp == nil {
			tp = &typePlan{}
			p.typePlans[tid] = tp
			p.typeIDs = append(p.typeIDs, tid)
			p.typeSyms = append(p.typeSyms, symRef{id: tid, name: typ})
		}
		return tp
	}
	// Types are interned in the pattern's own order — each type at its
	// first alias (FSA.Aliases lists negated leaves too) — never in map
	// order: type ids reach the catalog section of every snapshot, and
	// identical runs must write identical bytes.
	for _, first := range p.FSA.Aliases {
		typ := p.FSA.AliasType[first]
		aliases := p.FSA.TypeAliases[typ]
		if aliases[0] != first {
			continue // compiled with the type's first alias
		}
		tp := typePlanOf(typ)
		for _, alias := range aliases {
			tp.aliases = append(tp.aliases, p.compileAlias(alias, leftPos))
		}
	}
	for ci, leaf := range p.negLeaves {
		tp := typePlanOf(leaf.EventType)
		tp.negs = append(tp.negs, negCheck{ci: ci, locals: p.compileLocals(leaf.Alias)})
	}
	p.attrIDs = make([]int32, len(p.attrSyms))
	for i, s := range p.attrSyms {
		p.attrIDs[i] = s.id
	}
}

// compileAlias builds the dispatch entry of one alias.
func (p *Plan) compileAlias(alias string, leftPos map[int32]int) aliasPlan {
	id := p.aliasIDs[alias]
	ap := aliasPlan{
		id:           id,
		name:         alias,
		isStart:      p.FSA.IsStart(alias),
		isEnd:        p.FSA.IsEnd(alias),
		eventGrained: p.EventGrained[alias],
		locals:       p.compileLocals(alias),
		predIdx:      make([]int32, len(p.aliasNames)),
	}
	for i := range ap.predIdx {
		ap.predIdx[i] = -1
	}
	for _, pred := range p.FSA.Pred[alias] {
		pid := p.aliasIDs[pred]
		ap.predIdx[pid] = int32(len(ap.preds))
		edge := predEdge{id: pid, eventGrained: p.EventGrained[pred]}
		if ci, guarded := p.negGuard[[2]string{pred, alias}]; guarded {
			edge.guard = int32(ci) + 1
		}
		// A guarded transition reads the constraint's shadow row (-1:
		// an event-grained predecessor has no table).
		edge.table = p.tableCells[edge.guard*int32(len(p.aliasNames))+pid]
		for _, a := range p.Where.Adjacents {
			if !a.Guards(pred, alias) {
				continue
			}
			la := p.cat.attrIDs[a.LeftAttr]
			edge.adj = append(edge.adj, adjCheck{
				leftPos:   leftPos[la],
				leftAttr:  la,
				rightAttr: p.cat.attrIDs[a.RightAttr],
				op:        a.Op,
			})
		}
		ap.preds = append(ap.preds, edge)
	}
	ap.scanFrom = len(ap.preds)
	for pi := range ap.preds {
		if len(ap.preds[pi].adj) > 0 {
			ap.scanFrom = pi
			break
		}
	}
	for i, s := range p.Slots {
		if s.Alias == alias {
			ap.slots = append(ap.slots, slotRef{slot: i, attr: p.cat.attrIDs[s.Attr]})
		}
	}
	ap.specMatch = make([]bool, len(p.Specs))
	for i, s := range p.Specs {
		ap.specMatch[i] = s.Alias == alias
	}
	return ap
}

// compileLocals compiles the local predicates constraining an alias
// (its own plus the global ones); predicates scoped to other aliases
// pass vacuously and are simply not compiled in.
func (p *Plan) compileLocals(alias string) []localCheck {
	var out []localCheck
	for _, l := range p.Where.Locals {
		if l.Alias != "" && l.Alias != alias {
			continue
		}
		c := localCheck{attr: p.internAttr(l.Attr, false), op: l.Op}
		c.num, c.isNum = l.Value.(float64)
		if !c.isNum {
			c.str = l.Value.(string)
		}
		out = append(out, c)
	}
	return out
}

// symRef records one catalog symbol a plan references: the id the
// plan's compiled tables are baked against, the name it stood for at
// compile time, and (for attributes) whether the plan relies on the
// SymAttr fallback being materialised. The catalog's hosting lifecycle
// (Catalog.Retain/Release) refcounts and re-validates ids through
// these records, so compaction can retire ids no hosted plan
// references and recycle them safely.
type symRef struct {
	id   int32
	name string
	sym  bool
}

// internAttr interns an attribute name into the plan's catalog and
// records the reference for the hosting lifecycle. Plans reference few
// attributes, so dedup is a linear scan.
func (p *Plan) internAttr(name string, symNeeded bool) int32 {
	id := p.cat.internAttr(name, symNeeded)
	for i := range p.attrSyms {
		if p.attrSyms[i].id == id {
			p.attrSyms[i].sym = p.attrSyms[i].sym || symNeeded
			return id
		}
	}
	p.attrSyms = append(p.attrSyms, symRef{id: id, name: name, sym: symNeeded})
	return id
}

// appendStreamKey appends the partition key of a resolved event:
// the NUL-joined StreamKeys values, identical to AppendEventKey over
// them.
func (p *Plan) appendStreamKey(buf []byte, rv *resolvedVals) ([]byte, bool) {
	for i, id := range p.streamKeyIDs {
		if rv.has[id]&hasSymVal == 0 {
			return buf, false
		}
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, rv.sym[id]...)
	}
	return buf, true
}

// copyLeftVals copies the adjacent-predicate left operands out of a
// resolved view, for retention alongside a stored event. Returns nil
// when the plan has no adjacent predicates.
func (p *Plan) copyLeftVals(dst []attrVal, rv *resolvedVals) []attrVal {
	if len(p.adjLeft) == 0 {
		return nil
	}
	if cap(dst) >= len(p.adjLeft) {
		dst = dst[:len(p.adjLeft)]
	} else {
		dst = make([]attrVal, len(p.adjLeft))
	}
	for i, id := range p.adjLeft {
		dst[i] = attrVal{num: rv.num[id], sym: rv.sym[id], has: rv.has[id]}
	}
	return dst
}

// eventBytes is the event's Event.FootprintBytes, read off the plan's
// resolved slots: every host resolves all of its plan's attributes for
// the types it receives. The keys the slots found are a subset of a
// map's keys, so when their count equals the map's length they are all
// of it and the slot sums are the map's charge; only a map carrying an
// attribute the plan does not read is walked. A numeric slot resolved
// without its symbolic probe (ResolveRun) leaves the Sym count short,
// which walks Sym: exact either way.
func (p *Plan) eventBytes(rv *resolvedVals) int64 {
	ev := rv.ev
	var nNum, nSym int
	var numBytes, symBytes int64
	for i := range p.attrSyms {
		s := &p.attrSyms[i]
		h := rv.has[s.id]
		if h&hasNum != 0 {
			nNum++
			numBytes += int64(len(s.name)) + 8
		}
		if h&hasSymRaw != 0 {
			nSym++
			symBytes += int64(len(s.name)) + int64(len(rv.sym[s.id]))
		}
	}
	if nNum != len(ev.Num) {
		numBytes = 0
		for k := range ev.Num {
			numBytes += int64(len(k)) + 8
		}
	}
	if nSym != len(ev.Sym) {
		symBytes = 0
		for k, v := range ev.Sym {
			symBytes += int64(len(k)) + int64(len(v))
		}
	}
	return 40 + int64(len(ev.Type)) + numBytes + symBytes
}
