// Package core implements the COGRA runtime (§3–§7): the static query
// analyzer that selects the coarsest safe aggregation granularity
// (Table 4), the two incremental aggregation kernels (Algorithm 2,
// which with Te = ∅ is Algorithm 1, and Algorithm 3, with the Table 8
// aggregate propagation), and the streaming engine that applies them
// per sliding window and per stream partition.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Granularity is the aggregate bookkeeping granularity chosen by the
// selector (§3.3).
type Granularity int

// Granularities, coarse to fine. Event granularity is what GRETA uses
// and is provided as an ablation baseline, not selected by Table 4.
const (
	// PatternGrained keeps one aggregate per pattern plus the last
	// matched event (NEXT and CONT semantics, Algorithm 3).
	PatternGrained Granularity = iota
	// TypeGrained keeps one aggregate per event type in the pattern
	// (ANY semantics without adjacent predicates, Algorithm 1).
	TypeGrained
	// MixedGrained keeps type aggregates where possible and per-event
	// aggregates where adjacent predicates require stored events (ANY
	// with adjacent predicates, Algorithm 2). Both ANY labels run the
	// same kernel (mixedgrained.go): the label records what Table 4
	// chose, the compiled Tt/Te split is what executes.
	MixedGrained
)

// String renders the granularity name.
func (g Granularity) String() string {
	switch g {
	case PatternGrained:
		return "pattern"
	case TypeGrained:
		return "type"
	case MixedGrained:
		return "mixed"
	}
	return "?"
}

// SelectGranularity implements Table 4.
func SelectGranularity(sem query.Semantics, hasAdjacentPredicates bool) Granularity {
	if sem == query.Next || sem == query.Cont {
		return PatternGrained
	}
	if hasAdjacentPredicates {
		return MixedGrained
	}
	return TypeGrained
}

// groupKeyRef resolves one GROUP-BY item to its source: a stream
// partition key (bare attribute) or a binding slot (alias-scoped
// equivalence attribute).
type groupKeyRef struct {
	fromSlot bool
	idx      int
}

// Plan is the compiled form of a query: the COGRA configuration the
// static query analyzer hands to the runtime executor (Figure 3).
type Plan struct {
	// Query is the source query.
	Query *query.Query
	// FSA is the automaton representation of the pattern (§3.1).
	FSA *pattern.FSA
	// Granularity is the selected aggregation granularity (§3.3).
	Granularity Granularity
	// Specs is the compiled RETURN clause: the plan's own copy of
	// Query.Returns, which delivered rows point into (agg.Value), so
	// nothing may write it.
	Specs agg.Specs
	// Where holds the classified predicates.
	Where *predicate.Set
	// EventGrained is Te of Theorem 5.1 (empty unless MixedGrained).
	EventGrained map[string]bool
	// StreamKeys are the bare attributes that partition the stream
	// (§7): bare GROUP-BY attributes plus global equivalence
	// attributes, deduplicated in declaration order.
	StreamKeys []string
	// Slots are the alias-scoped equivalence predicates; each is one
	// binding slot inside the aggregators.
	Slots []predicate.Equivalence
	// groupRefs maps each GROUP-BY item to StreamKeys/Slots.
	groupRefs []groupKeyRef
	// negLeaves holds each negation constraint's negated event type,
	// parallel to FSA.Negations (the §8 restriction: negated
	// sub-patterns are single event types).
	negLeaves []*pattern.TypeNode
	// negGuard maps a (predecessor alias, successor alias) pair to the
	// negation constraint guarding it, if any.
	negGuard map[[2]string]int
	// text is the query's canonical text and fingerprint its sharing
	// key, the text without the RETURN line (sharedagg.go).
	text, fingerprint string

	// Compiled interning state (symbols.go), built once by compile():
	// dense ids for aliases and — in the shared catalog — event types
	// and referenced attributes, per-event-type dispatch tables, and
	// the attribute-id projections of the specs, partition keys and
	// adjacent-predicate left operands. typePlans is indexed by catalog
	// type id (nil entries: types of other plans in the catalog).
	cat              *Catalog
	aliasNames       []string
	aliasIDs         map[string]int32
	typePlans        []*typePlan
	typeIDs          []int32 // catalog ids of the types this plan matches
	attrSyms         []symRef
	typeSyms         []symRef
	specIDs          []int32
	streamKeyIDs     []int32
	adjLeft          []int32
	endAliasIDs      []int32
	eventGrainedByID []bool
	// tableCells numbers the cells of the any-match kernel's alias ×
	// table-kind grid (symbols.go) the plan uses: each cell's index in
	// mixedGrained.tables, -1 for a cell that has no table. tables is
	// how many do.
	tableCells []int32
	tables     int
	attrIDs    []int32 // the ids of attrSyms: what the plan reads
}

// NewPlan runs the static query analyzer: pattern analysis (§3.1),
// predicate classification (§3.2) and granularity selection (§3.3).
// The plan is compiled against a private catalog; use NewPlanIn to
// share ids with other plans for multi-query execution.
func NewPlan(q *query.Query) (*Plan, error) {
	return NewPlanIn(NewCatalog(), q)
}

// NewPlanIn is NewPlan compiling against a shared catalog: every plan
// compiled in one catalog agrees on type/attribute ids, so one
// resolver pass per event serves all of them (internal/runtime).
// Compilation extends the catalog copy-on-write and publishes a new
// interning epoch on success, so it may run concurrently with
// resolvers and engines processing events over the same catalog —
// the mechanism behind mid-stream Session.Subscribe. Concurrent
// compiles serialise on the catalog's internal lock.
func NewPlanIn(cat *Catalog, q *query.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	fsa, err := pattern.Compile(q.Pattern)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Query:       q,
		cat:         cat,
		FSA:         fsa,
		Granularity: SelectGranularity(q.Semantics, q.Where.HasAdjacent()),
		Specs:       slices.Clone(q.Returns),
		Where:       q.Where,
	}
	p.text = q.String()
	p.fingerprint = p.text[strings.Index(p.text, "\nPATTERN ")+1:]
	p.EventGrained = q.Where.EventGrainedAliases(fsa)
	if p.Granularity != MixedGrained {
		p.EventGrained = map[string]bool{}
	}

	// Stream partition keys: bare GROUP-BY attrs, then global
	// equivalence attrs not already grouped.
	seen := map[string]int{}
	for _, g := range q.GroupBy {
		if g.Alias == "" {
			if _, dup := seen[g.Attr]; !dup {
				seen[g.Attr] = len(p.StreamKeys)
				p.StreamKeys = append(p.StreamKeys, g.Attr)
			}
		}
	}
	for _, e := range q.Where.Equivalences {
		if e.Alias == "" {
			if _, dup := seen[e.Attr]; !dup {
				seen[e.Attr] = len(p.StreamKeys)
				p.StreamKeys = append(p.StreamKeys, e.Attr)
			}
		}
	}
	// Binding slots: alias-scoped equivalences in declaration order.
	slotIdx := map[predicate.Equivalence]int{}
	for _, e := range q.Where.Equivalences {
		if e.Alias != "" {
			if _, dup := slotIdx[e]; !dup {
				slotIdx[e] = len(p.Slots)
				p.Slots = append(p.Slots, e)
			}
		}
	}
	// Pattern granularity maintains a single last-event chain per
	// sub-stream (Algorithm 3); alias-scoped equivalence would need
	// one chain per binding, which Table 4 never requires for the
	// paper's query classes. Reject the combination explicitly.
	if p.Granularity == PatternGrained && len(p.Slots) > 0 {
		return nil, fmt.Errorf("core: alias-scoped equivalence predicates (e.g. [%s.%s]) are not supported under %v semantics; use a global [attr] predicate",
			p.Slots[0].Alias, p.Slots[0].Attr, q.Semantics)
	}
	// Pattern granularity relies on Theorem 6.1 (unique predecessor),
	// which needs a deterministic alias for every incoming event.
	if p.Granularity == PatternGrained {
		for typ, aliases := range fsa.TypeAliases {
			if len(aliases) > 1 {
				return nil, fmt.Errorf("core: event type %q matches multiple pattern types %v; %v semantics needs one pattern type per event type",
					typ, aliases, q.Semantics)
			}
		}
	}
	// Resolve GROUP-BY items.
	for _, g := range q.GroupBy {
		if g.Alias == "" {
			p.groupRefs = append(p.groupRefs, groupKeyRef{idx: seen[g.Attr]})
			continue
		}
		idx, ok := slotIdx[predicate.Equivalence{Alias: g.Alias, Attr: g.Attr}]
		if !ok {
			return nil, fmt.Errorf("core: GROUP-BY %s has no matching equivalence predicate", g)
		}
		p.groupRefs = append(p.groupRefs, groupKeyRef{fromSlot: true, idx: idx})
	}
	// Negated sub-patterns: restricted to single event types (§8).
	for i, nc := range fsa.Negations {
		leaf, ok := nc.Neg.(*pattern.TypeNode)
		if !ok {
			return nil, fmt.Errorf("core: negated sub-pattern %s must be a single event type", nc.Neg)
		}
		p.negLeaves = append(p.negLeaves, leaf)
		for _, pred := range nc.Pred {
			for _, fol := range nc.Follow {
				pair := [2]string{pred, fol}
				if p.negGuard == nil {
					p.negGuard = map[[2]string]int{} // only a plan with negation has one
				}
				if _, dup := p.negGuard[pair]; !dup {
					p.negGuard[pair] = i
				}
			}
		}
	}
	cat.mu.Lock()
	p.compile()
	cat.publish()
	cat.mu.Unlock()
	return p, nil
}

// MustPlan is NewPlan that panics on error.
func MustPlan(q *query.Query) *Plan {
	p, err := NewPlan(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Catalog returns the catalog the plan was compiled against.
func (p *Plan) Catalog() *Catalog { return p.cat }

// SubscribedTypeIDs returns the catalog ids of every event type the
// plan reacts to: pattern types plus negated types. A multi-query
// runtime routes only these types to the plan's engine.
func (p *Plan) SubscribedTypeIDs() []int32 { return p.typeIDs }

// ReferencedAttrIDs returns the catalog ids of every attribute the
// plan reads anywhere — local and adjacent predicates, binding slots,
// partition keys, group keys and aggregation operands. Resolving these
// (Resolver.ResolveRun) is all an engine of the plan needs; the
// multi-query runtime unions them per subscribed type. The ids are
// unique but unordered, and the slice is the plan's own: read it, never
// write it.
func (p *Plan) ReferencedAttrIDs() []int32 { return p.attrIDs }

// OrderSensitive reports whether the plan's execution depends on the
// arrival order of equal-timestamp events. Type- and mixed-grained
// execution stages every contribution of the current time stamp and
// commits at the next time advance (the stream-transaction discipline
// of §8), and a predecessor must be STRICTLY earlier (Definition 7),
// so any processing order among equal-time events yields identical
// results. Pattern granularity is the exception: its single el chain
// retains the last matched event in arrival order (Algorithm 3), so it
// must observe its events exactly as they arrived. No runtime calls
// it — the multi-query runtime hands every engine its events in
// arrival order; it remains for benchmarks/cograperf until that
// harness moves to the run-shaped body.
func (p *Plan) OrderSensitive() bool { return p.Granularity == PatternGrained }

// WantsAllEvents reports whether the plan's engine must observe every
// stream event regardless of type: under contiguous semantics any
// unmatched event resets the chain of matched events (Example 7), so
// events of foreign types are semantically relevant. All other
// semantics ignore foreign types entirely (they only advance the
// watermark, which the runtime drives centrally).
func (p *Plan) WantsAllEvents() bool {
	return p.Query.Semantics == query.Cont
}

// typePlanAt returns the dispatch entry for a catalog type id, nil
// when the type is irrelevant to this plan (foreign or unknown).
func (p *Plan) typePlanAt(tid int32) *typePlan {
	if tid < 0 || int(tid) >= len(p.typePlans) {
		return nil
	}
	return p.typePlans[tid]
}

// AppendEventKey appends the NUL-joined SymAttr values (symbolic value,
// or the formatted numeric fallback) of attrs to buf and reports
// whether e carries every attribute. It does not allocate, so the
// multi-query router builds its routing key over the partition
// attributes common to all hosted plans from a reused buffer. Over a
// plan's StreamKeys it spells the engine's partition key, which the
// resolved-view builder in symbols.go produces (pinned by
// TestAppendStreamKeyMatchesEventKey).
func AppendEventKey(buf []byte, e *event.Event, attrs []string) ([]byte, bool) {
	for i, attr := range attrs {
		if i > 0 {
			buf = append(buf, 0)
		}
		if v, ok := e.Sym[attr]; ok {
			buf = append(buf, v...)
			continue
		}
		if v, ok := e.Num[attr]; ok {
			buf = event.AppendNum(buf, v)
			continue
		}
		return buf, false
	}
	return buf, true
}

// appendKeyParts appends the partition attribute values a partition key
// spells (substrings of it, in StreamKeys order) to dst. A
// single-attribute key is its value. A composite key is NUL-joined
// (appendStreamKey), so a value holding NUL splits wrongly there.
func (p *Plan) appendKeyParts(dst []string, streamKey string) []string {
	switch len(p.StreamKeys) {
	case 0:
		return dst
	case 1:
		return append(dst, streamKey)
	}
	for {
		i := strings.IndexByte(streamKey, 0)
		if i < 0 {
			return append(dst, streamKey)
		}
		dst = append(dst, streamKey[:i])
		streamKey = streamKey[i+1:]
	}
}

// appendGroup appends the GROUP-BY tuple in clause order to dst, each
// value taken from the partition key's parts or the binding.
func (p *Plan) appendGroup(dst, keyParts, binding []string) []string {
	for _, ref := range p.groupRefs {
		if ref.fromSlot {
			dst = append(dst, binding[ref.idx])
		} else {
			dst = append(dst, keyParts[ref.idx])
		}
	}
	return dst
}

// String summarises the plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: granularity=%s semantics=%s pattern=%s", p.Granularity, p.Query.Semantics, p.Query.Pattern)
	if len(p.EventGrained) > 0 {
		var te []string
		for a := range p.EventGrained {
			te = append(te, a)
		}
		fmt.Fprintf(&b, " event-grained=%v", te)
	}
	if len(p.StreamKeys) > 0 {
		fmt.Fprintf(&b, " partition-by=%v", p.StreamKeys)
	}
	if len(p.Slots) > 0 {
		var ss []string
		for _, s := range p.Slots {
			ss = append(ss, s.String())
		}
		fmt.Fprintf(&b, " binding-slots=%v", ss)
	}
	return b.String()
}
