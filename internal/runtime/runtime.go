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
//     incoming event is resolved ONCE into a union attribute view
//     (core.Resolver). Every interested engine receives the same
//     resolved slots by reference.
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
// The query population is dynamic: Subscribe and Unsubscribe may be
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
	"repro/internal/query"
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

// ID returns the subscription's id: 0-based, in Subscribe order,
// stable across later membership changes.
func (s *Subscription) ID() int { return s.id }

// Plan returns the compiled plan of the hosted query.
func (s *Subscription) Plan() *core.Plan { return s.plan }

// Drain returns the results collected since the last Drain and clears
// the buffer (nil when the subscription streams through a result
// callback). Windows still open are not included — they emit when the
// watermark passes them.
func (s *Subscription) Drain() []core.Result {
	out := s.buf
	s.buf, s.last = nil, len(out)
	return out
}

// Active reports whether the subscription still receives events.
func (s *Subscription) Active() bool { return s.active }

// Unsubscribe detaches the query from the runtime at the current
// stream position: its remaining open windows are flushed (returned,
// or delivered to the subscription's result callback) and its symbol
// references are dropped; engines only it used are released with their
// binding intern memory. The rest of the fleet is untouched.
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
	// catalog type id tid, runByType[tid] lists the run-safe hosts
	// reacting to it (execution independent of equal-time arrival order
	// — see Plan.OrderSensitive), seqByType[tid] the order-sensitive
	// rest, and neededAttrs[tid] the union of every attribute id the
	// run-safe ones read, which restricts batch resolution to the slots
	// some hosted plan needs. wantsAll lists contiguous-semantics hosts,
	// which must observe every event.
	wantsAll    []*host
	runByType   [][]*host
	seqByType   [][]*host
	neededAttrs [][]int32

	lastTime    int64
	sawEvent    bool
	seq         int64
	closed      bool
	dispatching bool            // inside Process: membership changes must wait
	one         [1]*event.Event // Process's batch of one

	// Shared aggregation (sharing.go): groups lists, by plan fingerprint,
	// the groups a fingerprint-equal subscriber joins.
	groups         map[string]*group
	shareFlips     int64
	sharedSavedOps int64

	// Batch scratch, reused across chunks so the steady-state batch
	// path does not allocate: per-event type ids, the per-type run
	// buckets with their first-touch order, and the shared resolved-run
	// view.
	tids    []int32
	buckets [][]*event.Event
	touched []int32
	run     core.ResolvedRun
}

// New returns an empty runtime over a fresh catalog.
func New() *Runtime {
	return NewOn(core.NewCatalog())
}

// NewOn returns an empty runtime over an existing catalog, for hosting
// plans that were compiled elsewhere (core.NewPlanIn). Several
// runtimes may share one catalog — the partition-parallel executor
// runs one per worker.
func NewOn(cat *core.Catalog) *Runtime {
	return &Runtime{cat: cat, res: core.NewResolver(cat), groups: map[string]*group{}}
}

// Subscribe compiles a query against the runtime's catalog and hosts
// it. Engine options (result callbacks, accounting) apply to the
// subscription and to an engine built on its behalf. Subscribing is
// allowed at any stream position — the catalog interns copy-on-write,
// so compilation is safe even while other runtimes share the catalog;
// a mid-stream subscriber reports results from the first fully covered
// window.
func (rt *Runtime) Subscribe(q *query.Query, opts ...core.Option) (*Subscription, error) {
	plan, err := core.NewPlanIn(rt.cat, q)
	if err != nil {
		return nil, err
	}
	s, err := rt.SubscribePlan(plan, opts...)
	if err != nil {
		// Compiled here, never hosted: retire its unreferenced symbols
		// so failed subscribes do not leak catalog id space.
		rt.cat.DiscardPlan(plan)
		return nil, err
	}
	return s, nil
}

// SubscribePlan hosts an already-compiled plan. The plan must have
// been compiled against the runtime's catalog. Mid-stream, the
// subscription is aligned to the runtime's watermark: results start
// from the first window fully after it.
func (rt *Runtime) SubscribePlan(plan *core.Plan, opts ...core.Option) (*Subscription, error) {
	if rt.closed {
		return nil, fmt.Errorf("runtime: Subscribe after Close: %w", core.ErrClosed)
	}
	if rt.dispatching {
		return nil, fmt.Errorf("runtime: Subscribe from within event dispatch (e.g. a result callback); defer it until Process returns")
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

// index registers a host in the per-type dispatch index (run-safe vs
// order-sensitive, plus the needed-attribute union).
func (rt *Runtime) index(h *host) {
	if h.plan.WantsAllEvents() {
		rt.wantsAll = append(rt.wantsAll, h)
		return
	}
	ordered := h.plan.OrderSensitive()
	for _, tid := range h.plan.SubscribedTypeIDs() {
		for int(tid) >= len(rt.runByType) {
			rt.runByType = append(rt.runByType, nil)
			rt.seqByType = append(rt.seqByType, nil)
			rt.neededAttrs = append(rt.neededAttrs, nil)
		}
		if ordered {
			rt.seqByType[tid] = append(rt.seqByType[tid], h)
		} else {
			rt.runByType[tid] = append(rt.runByType[tid], h)
			rt.neededAttrs[tid] = mergeAttrIDs(rt.neededAttrs[tid], h.plan.ReferencedAttrIDs())
		}
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
	for i := range rt.runByType {
		rt.runByType[i] = nil
		rt.seqByType[i] = nil
		rt.neededAttrs[i] = nil
	}
	rt.wantsAll = nil
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
		// Process is ranging over the host list right now (the call came
		// from a result callback); splicing it here would skip a
		// sibling's watermark advance and re-enter this engine's window
		// manager mid-emission.
		return nil, fmt.Errorf("runtime: Unsubscribe from within event dispatch (e.g. a result callback); defer it until Process returns")
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

// InternBytes returns the summed live footprint of the hosted engines'
// binding intern tables.
func (rt *Runtime) InternBytes() int64 { return rt.Stats().BindingInternBytes }

// Process consumes the next stream event for every hosted query: a
// batch of one. Events must arrive in non-decreasing time-stamp order.
// Result callbacks fire inside Process; they must not call Subscribe
// or Unsubscribe (those return an error) — defer membership changes
// until Process returns.
func (rt *Runtime) Process(ev *event.Event) error {
	rt.one[0] = ev
	err := rt.ProcessBatch(rt.one[:])
	rt.one[0] = nil
	return err
}

// runChunkSize bounds how many events one run-building pass buckets at
// a time, keeping the scratch arrays cache-resident; it matches the
// parallel router's batch granularity.
const runChunkSize = 256

// ProcessBatch consumes a pre-sorted batch — the one ingest path. The
// batch is the unit of execution, not just of transport: each
// 256-event chunk is order-validated and arrival-stamped in one
// prescan, split into equal-timestamp groups (one watermark pass
// each), and every group is bucketed by interned type id into runs. A
// run is resolved once into a struct-of-arrays view restricted to the
// attributes its subscribed plans read, and executed with one hoisted
// per-run prologue per engine (Engine.ProcessResolvedRun).
// Order-sensitive queries (pattern granularity, contiguous semantics)
// observe their events one by one in arrival order
// (Engine.ProcessResolved) — results are byte-identical however the
// stream is cut into batches. On an out-of-order event the in-order
// prefix is ingested and the error names the first offender.
func (rt *Runtime) ProcessBatch(events []*event.Event) error {
	if rt.closed {
		return fmt.Errorf("runtime: Process after Close: %w", core.ErrClosed)
	}
	rt.dispatching = true
	defer func() { rt.dispatching = false }()
	for start := 0; start < len(events); start += runChunkSize {
		end := start + runChunkSize
		if end > len(events) {
			end = len(events)
		}
		if err := rt.dispatchChunk(events[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// dispatchChunk runs one chunk through the batch kernels: prescan
// (order validation + arrival-order id assignment), then group-by-time
// dispatch of the in-order prefix.
func (rt *Runtime) dispatchChunk(chunk []*event.Event) error {
	good := len(chunk)
	last, saw := rt.lastTime, rt.sawEvent
	for i, ev := range chunk {
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
	prefix := chunk[:good]
	for i := 0; i < len(prefix); {
		j := i + 1
		t := prefix[i].Time
		for j < len(prefix) && prefix[j].Time == t {
			j++
		}
		if err := rt.dispatchGroup(prefix[i:j]); err != nil {
			return err
		}
		i = j
	}
	if good < len(chunk) {
		return rt.lateEventErr(chunk[good].Time)
	}
	return nil
}

// dispatchGroup executes one equal-timestamp group: one watermark pass
// across the fleet, then type-bucketed runs for the run-safe hosts and
// an arrival-order pass for the order-sensitive ones. Within one timestamp the staged-commit discipline makes the
// split order-invariant (see Plan.OrderSensitive).
func (rt *Runtime) dispatchGroup(group []*event.Event) error {
	t := group[0].Time
	if !rt.sawEvent || t != rt.lastTime {
		if err := rt.advanceAll(t); err != nil {
			return err
		}
	}
	rt.lastTime, rt.sawEvent = t, true

	// Bucket by type id, preserving arrival order within each run and
	// first-touch order across runs. The type-id probe is the only
	// per-event map lookup left on this path.
	if cap(rt.tids) < len(group) {
		rt.tids = make([]int32, len(group))
	}
	tids := rt.tids[:len(group)]
	needSeq := len(rt.wantsAll) > 0
	for i, ev := range group {
		tid := int32(-1)
		if id, ok := rt.cat.TypeID(ev.Type); ok {
			tid = id
		}
		tids[i] = tid
		if tid < 0 || int(tid) >= len(rt.runByType) {
			continue
		}
		if len(rt.seqByType[tid]) > 0 {
			needSeq = true
		}
		if len(rt.runByType[tid]) == 0 {
			continue
		}
		for len(rt.buckets) < len(rt.runByType) {
			rt.buckets = append(rt.buckets, nil)
		}
		if len(rt.buckets[tid]) == 0 {
			rt.touched = append(rt.touched, tid)
		}
		rt.buckets[tid] = append(rt.buckets[tid], ev)
	}

	// Run pass: resolve once per run, one hoisted prologue per engine.
	var firstErr error
	for _, tid := range rt.touched {
		bucket := rt.buckets[tid]
		if firstErr == nil {
			rt.res.ResolveRun(&rt.run, bucket, tid, rt.neededAttrs[tid])
			for _, h := range rt.runByType[tid] {
				if err := h.eng.ProcessResolvedRun(&rt.run); err != nil {
					firstErr = err
					break
				}
			}
		}
		// Scrub the bucket even on the error path so a later group
		// never inherits stale events (or retains their memory).
		for k := range bucket {
			bucket[k] = nil
		}
		rt.buckets[tid] = bucket[:0]
	}
	rt.touched = rt.touched[:0]
	rt.run.Events = nil
	if firstErr != nil {
		return firstErr
	}
	if !needSeq {
		return nil
	}

	// Arrival-order pass for pattern-grained and contiguous-semantics
	// queries, which are sensitive to equal-time arrival order.
	for i, ev := range group {
		var interested []*host
		if tid := tids[i]; tid >= 0 && int(tid) < len(rt.seqByType) {
			interested = rt.seqByType[tid]
		}
		if len(interested) == 0 && len(rt.wantsAll) == 0 {
			continue
		}
		tid := rt.res.Resolve(ev)
		for _, h := range interested {
			if err := h.eng.ProcessResolved(ev, rt.res, tid); err != nil {
				return err
			}
		}
		for _, h := range rt.wantsAll {
			if err := h.eng.ProcessResolved(ev, rt.res, tid); err != nil {
				return err
			}
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
// dispatchChunk.
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
