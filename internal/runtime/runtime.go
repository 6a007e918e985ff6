// Package runtime executes many compiled COGRA plans over one event
// stream in a single pass: the shared multi-query runtime. Production
// trend aggregation runs hundreds of concurrent queries over the same
// stream; executed naively that costs N full passes — N symbol tables,
// N per-event attribute resolutions, N watermark checks — all
// redundant, because the per-event work up to sub-aggregation depends
// only on the stream, not on the query.
//
// The runtime eliminates the redundancy in three ways:
//
//   - Shared resolution. All hosted plans are compiled against one
//     core.Catalog, so they agree on dense type/attribute ids, and each
//     run of consecutive same-type events is resolved ONCE into a view
//     of the attributes its engines read (core.Resolver.ResolveRun).
//     Every interested engine receives the same resolved slots by
//     reference.
//
//   - Per-type subscription index. Each plan declares the event types
//     it reacts to (pattern types plus negated types); the runtime
//     dispatches an event only to the engines subscribed to its type
//     id — a slice index, not a per-query check. Queries under
//     contiguous semantics observe every event (an unmatched event
//     resets their chain), so they register on the wants-all list.
//
//   - Single watermark. Stream time advances once per distinct time
//     stamp and drives every hosted window manager in one pass
//     (Engine.AdvanceWatermark), so windows close and emit even for
//     engines whose types the current event does not match.
//
// The query population is dynamic: SubscribePlan and Unsubscribe may be
// called at any stream position. The catalog interns copy-on-write
// (core.Catalog), so mid-stream compilation never invalidates resolved
// views; the per-type index is rebuilt on membership change; a
// late-joining query reports results starting from the first fully
// covered window; and an unsubscribing query's windows are flushed.
//
// Every engine belongs to a sharing group (sharing.go) and a
// subscription is a projection over the engines its group owns; a
// query that shares with nobody is a group of one whose projection is
// the identity.
//
// The runtime is single-threaded like the engines it hosts; partition
// parallelism runs one runtime per worker (internal/stream).
package runtime

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/event"
)

// Subscription is one hosted query: its plan, the group whose engines
// compute its windows, the first window it reports, and where its
// results go.
type Subscription struct {
	id    int
	plan  *core.Plan
	rt    *Runtime
	group *group
	from  int64
	sink  func(core.Result) // nil: results collect in buf
	buf   []core.Result
	// last is the length of the buffer the previous Drain handed over:
	// the next buffer starts at that capacity instead of regrowing.
	last   int
	active bool
}

// ID returns the subscription's id: 0-based, in subscribe order,
// stable across later membership changes.
func (s *Subscription) ID() int { return s.id }

// Plan returns the compiled plan of the hosted query.
func (s *Subscription) Plan() *core.Plan { return s.plan }

// Drain returns the results collected since the last Drain and clears
// the buffer (nil when the subscription streams through a result
// callback, or when nothing closed). Windows still open are not
// included — they emit when the watermark passes them.
func (s *Subscription) Drain() []core.Result {
	out := s.buf
	if len(out) == 0 {
		return nil
	}
	s.buf, s.last = nil, len(out)
	return out
}

// Recycle gives back a buffer Drain handed over, once its receiver has
// copied every result out of it: the buffer is cleared and collects the
// next results instead of a fresh one, unless that drain used less than
// a quarter of it (core.Shed). Call it where Drain may be called.
func (s *Subscription) Recycle(buf []core.Result) {
	if s.buf != nil {
		return // a buffer an empty Drain left in place
	}
	clear(buf)
	s.buf = core.Shed(buf)
}

// Active reports whether the subscription still receives events.
func (s *Subscription) Active() bool { return s.active }

// Unsubscribe detaches the query from the runtime at the current
// stream position: its remaining open windows are flushed (returned,
// or delivered to the subscription's result callback) and its symbol
// references are dropped; engines only it used are released with their
// binding intern memory. The rest of the fleet runs on as before.
// Unsubscribing twice or after Close is an error.
func (s *Subscription) Unsubscribe() ([]core.Result, error) {
	return s.rt.unsubscribe(s)
}

// deliver hands the subscription one of its results.
func (s *Subscription) deliver(r core.Result) {
	if s.sink != nil {
		s.sink(r)
		return
	}
	if s.buf == nil && s.last > 0 {
		s.buf = make([]core.Result, 0, s.last)
	}
	s.buf = append(s.buf, r)
}

// Runtime hosts any number of compiled plans over one catalog and
// executes them against a single in-order event stream. Not safe for
// concurrent use.
type Runtime struct {
	cat *core.Catalog
	res *core.Resolver

	subs   []*Subscription // active subscriptions, in subscribe order
	hosts  []*host         // live engines, in creation order
	nextID int
	// The per-type dispatch index, rebuilt on membership change: for
	// catalog type id tid, byType[tid] lists the hosts reacting to it
	// and neededAttrs[tid] the union of every attribute id they or the
	// wantsAll hosts read, which restricts run resolution to the slots
	// some hosted plan needs. wantsAll lists contiguous-semantics hosts,
	// which must observe every event; otherAttrs is what they read, the
	// attributes resolved for a type no other host names.
	wantsAll    []*host
	byType      [][]*host
	neededAttrs [][]int32
	otherAttrs  []int32

	lastTime    int64
	sawEvent    bool
	seq         int64
	closed      bool
	dispatching bool // inside ProcessBatch: membership changes must wait

	// Shared aggregation (sharing.go): groups lists, by plan fingerprint,
	// the groups a fingerprint-equal subscriber joins.
	groups         map[string]*group
	shareFlips     int64
	sharedSavedOps int64

	// The resolved-run view, reused across runs so the steady-state
	// batch path does not allocate.
	run core.ResolvedRun
}

// NewOn returns an empty runtime over an existing catalog, for hosting
// plans that were compiled elsewhere (core.NewPlanIn). Several
// runtimes may share one catalog — the partition-parallel executor
// runs one per worker.
func NewOn(cat *core.Catalog) *Runtime {
	return &Runtime{cat: cat, res: core.NewResolver(cat), groups: map[string]*group{}}
}

// SubscribePlan hosts an already-compiled plan. The plan must have
// been compiled against the runtime's catalog. Mid-stream, the
// subscription is aligned to the runtime's watermark: results start
// from the first window fully after it.
func (rt *Runtime) SubscribePlan(plan *core.Plan, opts ...core.Option) (*Subscription, error) {
	if rt.closed {
		return nil, fmt.Errorf("runtime: SubscribePlan after Close: %w", core.ErrClosed)
	}
	if rt.dispatching {
		return nil, fmt.Errorf("runtime: SubscribePlan from within event dispatch (e.g. a result callback); defer it until ProcessBatch returns")
	}
	if plan.Catalog() != rt.cat {
		return nil, fmt.Errorf("runtime: plan compiled against a different catalog: %w", core.ErrNotHosted)
	}
	// Pin the plan's symbol ids against catalog compaction for the
	// lifetime of the hosting (released at unsubscribe). Fails when a
	// compaction retired one of them since the plan was compiled.
	if err := rt.cat.Retain(plan); err != nil {
		return nil, err
	}
	s := &Subscription{id: rt.nextID, plan: plan, rt: rt, sink: core.ResultCallbackOf(opts), active: true}
	if rt.sawEvent {
		s.from = plan.Query.Window.FirstFullWindow(rt.lastTime)
	}
	if err := rt.join(s, opts); err != nil {
		rt.cat.Release(plan)
		return nil, err
	}
	rt.nextID++
	rt.subs = append(rt.subs, s)
	return s, nil
}

// index registers a host in the per-type dispatch index and its
// attributes in the needed-attribute unions.
func (rt *Runtime) index(h *host) {
	attrs := h.plan.ReferencedAttrIDs()
	if h.plan.WantsAllEvents() {
		rt.wantsAll = append(rt.wantsAll, h)
		rt.otherAttrs = mergeAttrIDs(rt.otherAttrs, attrs)
		for tid := range rt.neededAttrs {
			rt.neededAttrs[tid] = mergeAttrIDs(rt.neededAttrs[tid], attrs)
		}
		return
	}
	for _, tid := range h.plan.SubscribedTypeIDs() {
		for int(tid) >= len(rt.byType) {
			rt.byType = append(rt.byType, nil)
			rt.neededAttrs = append(rt.neededAttrs, slices.Clone(rt.otherAttrs))
		}
		rt.byType[tid] = append(rt.byType[tid], h)
		rt.neededAttrs[tid] = mergeAttrIDs(rt.neededAttrs[tid], attrs)
	}
}

// mergeAttrIDs folds add into dst keeping it sorted and unique — the
// membership-change slow path, sized in tens of attributes.
func mergeAttrIDs(dst []int32, add []int32) []int32 {
	for _, id := range add {
		pos := len(dst)
		dup := false
		for i, d := range dst {
			if d == id {
				dup = true
				break
			}
			if d > id {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, 0)
		copy(dst[pos+1:], dst[pos:])
		dst[pos] = id
	}
	return dst
}

// rebuildIndex reconstructs the per-type index from the live hosts —
// the membership-change slow path; the per-event path never pays for
// it.
func (rt *Runtime) rebuildIndex() {
	for i := range rt.byType {
		rt.byType[i] = nil
		rt.neededAttrs[i] = nil
	}
	rt.wantsAll, rt.otherAttrs = nil, nil
	for _, h := range rt.hosts {
		rt.index(h)
	}
}

// unsubscribe detaches s; see Subscription.Unsubscribe.
func (rt *Runtime) unsubscribe(s *Subscription) ([]core.Result, error) {
	if rt.closed {
		return nil, fmt.Errorf("runtime: Unsubscribe after Close: %w", core.ErrClosed)
	}
	if rt.dispatching {
		// ProcessBatch is ranging over the host list right now (the call came
		// from a result callback); splicing it here would skip a
		// sibling's watermark advance and re-enter this engine's window
		// manager mid-emission.
		return nil, fmt.Errorf("runtime: Unsubscribe from within event dispatch (e.g. a result callback); defer it until ProcessBatch returns")
	}
	if !s.active {
		return nil, fmt.Errorf("runtime: subscription %d already unsubscribed: %w", s.id, core.ErrNotHosted)
	}
	if err := rt.leave(s); err != nil {
		return nil, err
	}
	s.active = false
	rt.subs = slices.DeleteFunc(rt.subs, func(o *Subscription) bool { return o == s })
	// Drop this hosting's symbol references; ids only this plan used
	// are retired and the catalog publishes a compacted view. No engine
	// and no index entry mentions them anymore (a host the group keeps
	// holds its own references), so a recycled id can never reach the
	// dispatch tables.
	rt.cat.Release(s.plan)
	return s.Drain(), nil
}

// Stats summarises the runtime's hosted state.
type Stats struct {
	// Queries is the number of active subscriptions.
	Queries int
	// BindingInternBytes is the summed live footprint of the hosted
	// engines' binding intern tables.
	BindingInternBytes int64
	// SharedGroups counts the groups whose engines serve more than one
	// subscription; ShareFlips counts host handovers (a group's engine
	// replaced, at a window boundary, by one over a grown RETURN union);
	// SharedSavedOps estimates the per-query event aggregations sharing
	// absorbed (host events × members served beyond the first). All
	// zero while no two subscriptions share a fingerprint.
	SharedGroups   int
	ShareFlips     int64
	SharedSavedOps int64
}

// Stats reports the runtime's hosted-query and interning state.
func (rt *Runtime) Stats() Stats {
	st := Stats{Queries: len(rt.subs), ShareFlips: rt.shareFlips, SharedSavedOps: rt.sharedSavedOps}
	for _, g := range rt.groups {
		if len(g.newest().views) > 1 {
			st.SharedGroups++
		}
	}
	for _, h := range rt.hosts {
		st.BindingInternBytes += h.eng.InternBytes()
		st.SharedSavedOps += h.unaccounted()
	}
	return st
}

// ProcessBatch consumes a pre-sorted batch — the one ingest path. The
// batch is the unit of execution, not just of transport: one prescan
// validates the order and stamps arrival ids, the in-order prefix is
// split into equal-timestamp groups (one watermark pass each), and
// every group into runs — maximal stretches of consecutive same-type
// events. A run is resolved once into a struct-of-arrays view
// restricted to the attributes its hosts read, and handed in arrival
// order to every host of its type, then to the contiguous-semantics
// hosts, with one hoisted per-run prologue per engine
// (Engine.ProcessResolvedRun) — results are byte-identical however the
// stream is cut into batches. On an out-of-order event the in-order
// prefix is ingested and the error names the first offender.
func (rt *Runtime) ProcessBatch(events []*event.Event) error {
	if rt.closed {
		return fmt.Errorf("runtime: ProcessBatch after Close: %w", core.ErrClosed)
	}
	rt.dispatching = true
	defer func() { rt.dispatching = false }()
	good := len(events)
	last, saw := rt.lastTime, rt.sawEvent
	for i, ev := range events {
		if saw && ev.Time < last {
			good = i
			break
		}
		last, saw = ev.Time, true
		rt.seq++
		if ev.ID == 0 {
			ev.ID = rt.seq
		}
	}
	for i := 0; i < good; {
		j := i + 1
		for j < good && events[j].Time == events[i].Time {
			j++
		}
		if err := rt.dispatchGroup(events[i:j]); err != nil {
			return err
		}
		i = j
	}
	if good < len(events) {
		return rt.lateEventErr(events[good].Time)
	}
	return nil
}

// dispatchGroup executes one equal-timestamp group: one watermark pass
// across the fleet, then its runs in arrival order.
func (rt *Runtime) dispatchGroup(group []*event.Event) error {
	t := group[0].Time
	if !rt.sawEvent || t != rt.lastTime {
		if err := rt.advanceAll(t); err != nil {
			return err
		}
	}
	rt.lastTime, rt.sawEvent = t, true
	var err error
	for i := 0; i < len(group) && err == nil; {
		j := i + 1
		for j < len(group) && group[j].Type == group[i].Type {
			j++
		}
		err = rt.dispatchRun(group[i:j])
		i = j
	}
	rt.run.Events = nil // the view must not retain the caller's events
	return err
}

// dispatchRun resolves one run and hands it to every host of its type,
// then to the wantsAll hosts. The type-id probe is the only map lookup
// left per run.
func (rt *Runtime) dispatchRun(run []*event.Event) error {
	tid, _ := rt.cat.TypeID(run[0].Type)
	var hosts []*host
	attrs := rt.otherAttrs
	if tid >= 0 && int(tid) < len(rt.byType) {
		hosts, attrs = rt.byType[tid], rt.neededAttrs[tid]
	}
	if len(hosts) == 0 && len(rt.wantsAll) == 0 {
		return nil
	}
	rt.res.ResolveRun(&rt.run, run, tid, attrs)
	for _, h := range hosts {
		if err := h.eng.ProcessResolvedRun(&rt.run); err != nil {
			return err
		}
	}
	for _, h := range rt.wantsAll {
		if err := h.eng.ProcessResolvedRun(&rt.run); err != nil {
			return err
		}
	}
	return nil
}

// advanceAll drives one stream watermark through every hosted engine,
// oldest first — a group's earlier host owns the windows below its
// handover boundary, so each member's results stay in window order —
// and then releases the hosts that retired and just closed their last
// window, before the caller dispatches the events that exposed this
// watermark.
func (rt *Runtime) advanceAll(t int64) error {
	drained := false
	for _, h := range rt.hosts {
		if err := h.eng.AdvanceWatermark(t); err != nil {
			return err
		}
		drained = drained || h.eng.Drained()
	}
	if drained {
		rt.release((*host).drained)
	}
	return nil
}

// AdvanceTo moves the watermark to t as an event at t would: every
// window complete at t closes and emits, and events at t are still
// accepted. A runtime already at or past t is left as it is.
func (rt *Runtime) AdvanceTo(t int64) error {
	if rt.sawEvent && t <= rt.lastTime {
		return nil
	}
	rt.lastTime, rt.sawEvent = t, true
	return rt.advanceAll(t)
}

// lateEventErr builds the out-of-order rejection — the cold path of
// ProcessBatch.
func (rt *Runtime) lateEventErr(t int64) error {
	return fmt.Errorf("runtime: out-of-order event at time %d after %d: %w", t, rt.lastTime, core.ErrLateEvent)
}

// Close flushes every open window of every still-subscribed query —
// hosts oldest first, like advanceAll — and returns the collected
// results indexed by subscription id (nil entries for subscriptions
// that stream through callbacks or already unsubscribed — their
// results were returned at Unsubscribe time).
func (rt *Runtime) Close() [][]core.Result {
	rt.closed = true
	for _, h := range rt.hosts {
		h.eng.Close()
	}
	out := make([][]core.Result, rt.nextID)
	for _, s := range rt.subs {
		out[s.id] = s.Drain()
		s.active = false
	}
	rt.subs = nil
	return out
}
