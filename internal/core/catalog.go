package core

// Catalog is the shared symbol table a set of plans is compiled
// against: every event-type and attribute name referenced by any plan
// is interned into a dense integer id, so plans hosted together agree
// on ids and a multi-query runtime can resolve each incoming event
// ONCE into one union attribute view and hand the same resolved slots
// to every interested engine.
//
// Interning is epoch-based copy-on-write so the query population can
// change while the stream runs. Compilation (NewPlanIn) mutates a
// private staging area under the catalog's compile lock and, when the
// plan is complete, publishes an immutable snapshot ("view") with an
// atomic pointer swap. Readers — resolvers and engines on any
// goroutine — load the current view once per event and never observe
// a half-compiled plan. Ids referenced by a live (retained) plan are
// never renumbered, so a resolved view produced against an older
// epoch stays valid: live ids index the same names in every later
// epoch.
//
// # Id-space compaction
//
// Hosting a plan retains its symbol ids (Retain); unsubscribing
// releases them (Release). When the last reference to an id is
// released — the quiescent point for that id: no live plan's dispatch
// tables or compiled predicates mention it — the id is retired:
// tombstoned in a freshly published compacted view (resolvers skip it,
// so the per-event probe loop stops paying for it) and pushed on a
// free list for the next compile to recycle. Subscribe/unsubscribe
// churn therefore no longer grows the id spaces without bound. A plan
// compiled but not yet hosted holds no references; if a compaction
// retires one of its ids in the gap (and the id is recycled or still
// dead at Retain time), Retain rejects the plan with ErrNotHosted —
// recompile against the current catalog.
//
// The locking rule is: any number of goroutines may resolve events
// concurrently with one compiling/retaining/releasing goroutine;
// compiles, retains and releases serialise among themselves on the
// catalog's own lock. NewPlan compiles a plan against a private
// catalog, which reproduces the single-query layout exactly: one
// plan's union view is just its own attribute set.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// catalogView is one immutable interning epoch: the id spaces as of
// some published compile or compaction. Readers obtain it with an
// atomic load and never write through it.
type catalogView struct {
	epoch     uint64
	attrIDs   map[string]int32
	attrNames []string
	symNeeded []bool
	attrDead  []bool
	// No typeDead here: readers reach types only through the typeIDs
	// map, which already omits retired names, so views never need to
	// skip dead type slots the way ResolveRun skips dead attr slots.
	typeIDs   map[string]int32
	typeNames []string
	liveAttrs int
	liveTypes int
}

// Catalog interns the type and attribute names of all plans compiled
// against it. The exported read surface (TypeID, NumTypes, NumAttrs,
// resolution) is safe for concurrent use with one compiling goroutine;
// compilation itself is serialised internally.
type Catalog struct {
	// mu serialises compilation, retain and release. The staging fields
	// below are the mutable master copy, guarded by mu; publish
	// snapshots them into view at the end of each plan compile or
	// compaction.
	mu sync.Mutex

	// Attribute interning: attrNames[id] is the name; symNeeded[id]
	// marks attributes read through SymAttr semantics (binding slots,
	// partition keys), whose numeric fallback value is materialised at
	// resolve time. attrDead marks retired ids (tombstones awaiting
	// recycling via freeAttrs); attrRefs counts the hosted plans
	// referencing each id.
	attrIDs   map[string]int32
	attrNames []string
	symNeeded []bool
	attrDead  []bool
	attrRefs  []int32
	freeAttrs []int32

	// Event-type interning: ids index the per-plan dispatch tables and
	// the runtime's per-type subscription lists. Same lifecycle as the
	// attribute side.
	typeIDs   map[string]int32
	typeNames []string
	typeDead  []bool
	typeRefs  []int32
	freeTypes []int32

	epoch       uint64
	compactions atomic.Uint64
	view        atomic.Pointer[catalogView]
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{
		attrIDs: map[string]int32{},
		typeIDs: map[string]int32{},
	}
	c.view.Store(&catalogView{
		attrIDs: map[string]int32{},
		typeIDs: map[string]int32{},
	})
	return c
}

// internAttr interns an attribute name; symNeeded marks attributes
// read through SymAttr semantics, whose numeric fallback value is
// materialised once per event at resolve time. Retired ids are
// recycled from the free list. Caller holds mu (compilation path).
func (c *Catalog) internAttr(name string, symNeeded bool) int32 {
	id, ok := c.attrIDs[name]
	if !ok {
		if n := len(c.freeAttrs); n > 0 {
			id = c.freeAttrs[n-1]
			c.freeAttrs = c.freeAttrs[:n-1]
			c.attrNames[id] = name
			c.attrDead[id] = false
		} else {
			id = int32(len(c.attrNames))
			c.attrNames = append(c.attrNames, name)
			c.symNeeded = append(c.symNeeded, false)
			c.attrDead = append(c.attrDead, false)
			c.attrRefs = append(c.attrRefs, 0)
		}
		c.attrIDs[name] = id
	}
	if symNeeded && !c.symNeeded[id] {
		c.symNeeded[id] = true
	}
	return id
}

// internType interns an event-type name. Caller holds mu.
func (c *Catalog) internType(name string) int32 {
	id, ok := c.typeIDs[name]
	if !ok {
		if n := len(c.freeTypes); n > 0 {
			id = c.freeTypes[n-1]
			c.freeTypes = c.freeTypes[:n-1]
			c.typeNames[id] = name
			c.typeDead[id] = false
		} else {
			id = int32(len(c.typeNames))
			c.typeNames = append(c.typeNames, name)
			c.typeDead = append(c.typeDead, false)
			c.typeRefs = append(c.typeRefs, 0)
		}
		c.typeIDs[name] = id
	}
	return id
}

// publish snapshots the staging area into a new immutable view. Caller
// holds mu. Every slice and map is copied: compaction retires (and
// recycling rewrites) entries within the published length, so views
// cannot share backing arrays with staging. Compiles and compactions
// are cold paths; the copies buy lock-free readers.
func (c *Catalog) publish() {
	c.epoch++
	v := &catalogView{
		epoch:     c.epoch,
		attrIDs:   make(map[string]int32, len(c.attrIDs)),
		attrNames: append([]string(nil), c.attrNames...),
		symNeeded: append([]bool(nil), c.symNeeded...),
		attrDead:  append([]bool(nil), c.attrDead...),
		typeIDs:   make(map[string]int32, len(c.typeIDs)),
		typeNames: append([]string(nil), c.typeNames...),
		liveAttrs: len(c.attrNames) - len(c.freeAttrs),
		liveTypes: len(c.typeNames) - len(c.freeTypes),
	}
	for k, id := range c.attrIDs {
		v.attrIDs[k] = id
	}
	for k, id := range c.typeIDs {
		v.typeIDs[k] = id
	}
	c.view.Store(v)
}

// Epoch returns the current interning epoch: it advances by one per
// published plan compile or compaction. Diagnostic only.
func (c *Catalog) Epoch() uint64 { return c.view.Load().epoch }

// Compactions returns how many compacted views the catalog has
// published (id retirements at quiescent points). Diagnostic only.
func (c *Catalog) Compactions() uint64 { return c.compactions.Load() }

// Retain registers one hosting of a plan: every symbol id the plan
// references gains a reference, pinning it against compaction. It
// fails with an error wrapping ErrNotHosted when a compaction already
// retired one of the plan's ids (the plan was compiled, left unhosted,
// and outlived its symbols) — recompile the query against the catalog.
// Callers pair it with Release.
func (c *Catalog) Retain(p *Plan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range p.attrSyms {
		if int(s.id) >= len(c.attrNames) || c.attrDead[s.id] || c.attrNames[s.id] != s.name ||
			(s.sym && !c.symNeeded[s.id]) {
			return c.staleErr("attribute", s.name)
		}
	}
	for _, s := range p.typeSyms {
		if int(s.id) >= len(c.typeNames) || c.typeDead[s.id] || c.typeNames[s.id] != s.name {
			return c.staleErr("event type", s.name)
		}
	}
	for _, s := range p.attrSyms {
		c.attrRefs[s.id]++
	}
	for _, s := range p.typeSyms {
		c.typeRefs[s.id]++
	}
	return nil
}

func (c *Catalog) staleErr(kind, name string) error {
	return fmt.Errorf("core: stale plan: %s %q was retired by a catalog compaction since the plan was compiled; recompile the query: %w",
		kind, name, ErrNotHosted)
}

// retireAttr tombstones one attribute id and queues it for recycling.
// Caller holds mu and has established that nothing references it.
func (c *Catalog) retireAttr(id int32) {
	delete(c.attrIDs, c.attrNames[id])
	c.attrNames[id] = ""
	c.symNeeded[id] = false
	c.attrDead[id] = true
	c.freeAttrs = append(c.freeAttrs, id)
}

// retireType tombstones one event-type id and queues it for recycling.
// Caller holds mu and has established that nothing references it.
func (c *Catalog) retireType(id int32) {
	delete(c.typeIDs, c.typeNames[id])
	c.typeNames[id] = ""
	c.typeDead[id] = true
	c.freeTypes = append(c.freeTypes, id)
}

// truncate physically pops trailing tombstoned slots off both id
// spaces, removing them from the free lists: churn that retired the
// highest ids shrinks the arrays (and every later view's resolve
// loop) instead of leaving dead slots to be probed forever. Interior
// tombstones cannot move — live ids are never renumbered — so they
// stay on the free lists for recycling; they become truncatable the
// moment everything above them retires. Caller holds mu, as part of a
// compaction (before publish).
func (c *Catalog) truncate() {
	n := len(c.attrNames)
	for n > 0 && c.attrDead[n-1] {
		n--
	}
	if n < len(c.attrNames) {
		c.freeAttrs = dropIDsAtOrAbove(c.freeAttrs, int32(n))
		c.attrNames = c.attrNames[:n]
		c.symNeeded = c.symNeeded[:n]
		c.attrDead = c.attrDead[:n]
		c.attrRefs = c.attrRefs[:n]
	}
	n = len(c.typeNames)
	for n > 0 && c.typeDead[n-1] {
		n--
	}
	if n < len(c.typeNames) {
		c.freeTypes = dropIDsAtOrAbove(c.freeTypes, int32(n))
		c.typeNames = c.typeNames[:n]
		c.typeDead = c.typeDead[:n]
		c.typeRefs = c.typeRefs[:n]
	}
}

// dropIDsAtOrAbove removes the free-list entries a truncation cut off.
func dropIDsAtOrAbove(free []int32, n int32) []int32 {
	kept := free[:0]
	for _, id := range free {
		if id < n {
			kept = append(kept, id)
		}
	}
	return kept
}

// Release drops one hosting's references. Ids whose last reference
// goes — the quiescent point: no live epoch's dispatch reaches them —
// are retired into a freshly published compacted view and queued for
// recycling by the next compile; retirements at the top of the id
// space shrink it physically (truncate).
func (c *Catalog) Release(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	retired := false
	for _, s := range p.attrSyms {
		if c.attrRefs[s.id] > 0 {
			c.attrRefs[s.id]--
			if c.attrRefs[s.id] == 0 {
				c.retireAttr(s.id)
				retired = true
			}
		}
	}
	for _, s := range p.typeSyms {
		if c.typeRefs[s.id] > 0 {
			c.typeRefs[s.id]--
			if c.typeRefs[s.id] == 0 {
				c.retireType(s.id)
				retired = true
			}
		}
	}
	if retired {
		c.truncate()
		c.compactions.Add(1)
		c.publish()
	}
}

// DiscardPlan retires the symbols of a compiled-but-never-hosted plan
// that will not be used — the failure path of a Subscribe that
// compiled the plan itself: without it, every failed subscribe with
// novel names would leak live ids that the resolver probes per event
// forever. Only ids that still map the plan's names and that no
// hosting references (refcount 0) are retired; ids shared with hosted
// plans, or already recycled, are left untouched. Other compiled-but-
// unhosted plans sharing a retired id become stale, exactly as under
// a regular compaction (Retain rejects them; recompile).
func (c *Catalog) DiscardPlan(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	retired := false
	for _, s := range p.attrSyms {
		if int(s.id) < len(c.attrNames) && !c.attrDead[s.id] &&
			c.attrNames[s.id] == s.name && c.attrRefs[s.id] == 0 {
			c.retireAttr(s.id)
			retired = true
		}
	}
	for _, s := range p.typeSyms {
		if int(s.id) < len(c.typeNames) && !c.typeDead[s.id] &&
			c.typeNames[s.id] == s.name && c.typeRefs[s.id] == 0 {
			c.retireType(s.id)
			retired = true
		}
	}
	if retired {
		c.truncate()
		c.compactions.Add(1)
		c.publish()
	}
}

// TypeID returns the interned id of an event-type name. Unknown types
// (never referenced by any plan in the catalog) return -1, false.
// Safe for concurrent use with compilation.
func (c *Catalog) TypeID(name string) (int32, bool) {
	id, ok := c.view.Load().typeIDs[name]
	if !ok {
		return -1, false
	}
	return id, true
}

// NumTypes returns how many event types the catalog currently interns
// (live ids; retired ids awaiting recycling are not counted).
func (c *Catalog) NumTypes() int { return c.view.Load().liveTypes }

// NumAttrs returns how many attributes the catalog currently interns
// (live ids; retired ids awaiting recycling are not counted).
func (c *Catalog) NumAttrs() int { return c.view.Load().liveAttrs }

// NumTypeSlots returns the physical type id-space size, including
// tombstoned slots awaiting recycling. Compactions truncate trailing
// tombstones, so sustained churn that retires the highest ids pulls
// this back toward NumTypes instead of growing without bound.
func (c *Catalog) NumTypeSlots() int { return len(c.view.Load().typeNames) }

// NumAttrSlots is NumTypeSlots for the attribute id space.
func (c *Catalog) NumAttrSlots() int { return len(c.view.Load().attrNames) }

// Resolver resolves events once against a catalog on behalf of every
// plan compiled in it (ResolveRun). One instance per single-threaded
// execution context (a multi-query runtime, a worker, an engine); the
// resolved columns are reused across runs and shared by reference with
// the engines the run is handed to, so resolution cost is paid once
// per event, not per query. Each resolve loads the catalog's current
// epoch, so plans compiled mid-stream are covered from the next run
// on.
type Resolver struct {
	cat *Catalog
	// run is a run of one (Resolve; an engine's Process) over the event
	// in one, which holds it for the length of a call only, so no
	// pointer to it outlives the call. all lists every attribute slot of
	// the catalog, what Resolve resolves.
	run ResolvedRun
	one [1]*event.Event
	all []int32
}

// NewResolver builds a resolver over a catalog.
func NewResolver(cat *Catalog) *Resolver {
	return &Resolver{cat: cat}
}

// Resolve computes the union resolved view of ev — a run of one over
// every attribute slot of the catalog — valid until the next call.
// Engines consume it through Engine.ProcessResolved. It returns the
// catalog id of ev's type (-1 when no plan references the type). No
// runtime calls it; it remains for benchmarks/cograperf until that
// harness moves to the run-shaped body.
func (r *Resolver) Resolve(ev *event.Event) int32 {
	tid, _ := r.cat.TypeID(ev.Type)
	for len(r.all) < r.cat.NumAttrSlots() {
		r.all = append(r.all, int32(len(r.all)))
	}
	r.one[0] = ev
	r.ResolveRun(&r.run, r.one[:], tid, r.all)
	r.one[0] = nil
	return tid
}
