package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/agg"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/window"
)

// Result is one aggregation output: the aggregates of one group in one
// closed window.
type Result struct {
	// Wid identifies the window; Start/End are its half-open bounds.
	Wid   int64
	Start int64
	End   int64
	// Group holds the GROUP-BY values in clause order (nil when the
	// query has no GROUP-BY).
	Group []string
	// Values are the reported aggregates in RETURN-clause order.
	Values []agg.Value
}

// String renders "window [0,600) group=(p1): COUNT(*)=43".
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window [%d,%d)", r.Start, r.End)
	if len(r.Group) > 0 {
		fmt.Fprintf(&b, " group=(%s)", strings.Join(r.Group, ","))
	}
	fmt.Fprintf(&b, ": %s", agg.FormatValues(r.Values))
	return b.String()
}

// winState is the per-window execution state: one sub-aggregator per
// stream partition key (§7: windows, single-event predicates and
// grouping partition the stream into sub-streams).
type winState struct {
	wid   int64
	parts map[string]subAggregator
}

// Engine executes one compiled plan over an in-order event stream.
// It routes each event to the windows containing it and, within each
// window, to the sub-stream its partition key selects; closed windows
// emit Results. Engine is not safe for concurrent use — parallel
// execution partitions the stream upstream (internal/stream).
type Engine struct {
	plan *Plan
	acct accountant
	bnd  *bindings
	mgr  *window.Manager[*winState]

	// Per-event scratch, reused so the steady-state Process path does
	// not allocate: the resolved attribute view, the partition-key
	// bytes and the window-state slice. The window-state slice is
	// cached per time stamp: a run of equal-time events reuses the
	// states computed for the first of the run (the window set is a
	// function of time alone), skipping the watermark check and the
	// window-manager lookup for every follower.
	rv          resolvedVals
	keyBuf      []byte
	states      []*winState
	statesTime  int64
	statesValid bool

	// arenas backs the stored (Te) entries of every hosted
	// sub-aggregator (arena.go); untouched unless the plan stores events.
	arenas storeArenas
	// memo is the Tt predecessor-sum scratch shared by every hosted
	// skip-till-any-match sub-aggregator (runMemo); unused by
	// pattern-grained plans.
	memo runMemo
	// runParts is processRunSinglePart's reusable per-run view of the
	// open windows' "" partitions.
	runParts []subAggregator

	lastTime int64
	sawEvent bool
	seq      int64
	eventsIn int64
	skipped  int64
	evict    bool

	results  []Result
	onResult func(Result)
}

// Option configures an Engine.
type Option func(*Engine)

// WithAccountant wires logical memory accounting.
func WithAccountant(a *metrics.Accountant) Option {
	return func(e *Engine) { e.acct = a }
}

// WithResultCallback streams results to fn instead of collecting them.
func WithResultCallback(fn func(Result)) Option {
	return func(e *Engine) { e.onResult = fn }
}

// ResultCallbackOf returns the callback opts install (nil: results are
// collected). The multi-query runtime keeps a subscriber's callback to
// itself — its engines emit to their sharing group, which projects per
// member — so it has to read it out of the opaque option list.
func ResultCallbackOf(opts []Option) func(Result) {
	var probe Engine
	for _, opt := range opts {
		opt(&probe)
	}
	return probe.onResult
}

// WithInternEviction ties the engine's binding-intern tables to window
// expiry: intern entries are stamped with the epoch (Within-length
// frame) of the watermark they were last touched at, and entries whose
// referencing windows have all closed are reclaimed as the watermark
// advances (their ids are recycled). Results are identical to an
// unbounded engine; the difference is purely that InternBytes plateaus
// at roughly two epochs' worth of distinct slot values instead of
// growing with the stream's lifetime cardinality.
func WithInternEviction() Option {
	return func(e *Engine) { e.evict = true }
}

// NewEngine builds an engine for a plan.
func NewEngine(p *Plan, opts ...Option) *Engine {
	e := &Engine{plan: p, acct: nopAccountant{}}
	for _, opt := range opts {
		opt(e)
	}
	e.bnd = newBindings(p.Slots, e.acct, e.evict) // after opts: intern tables charge e.acct
	e.mgr = window.NewManager(p.Query.Window, func(wid int64) *winState {
		return &winState{wid: wid, parts: map[string]subAggregator{}}
	})
	return e
}

// Plan returns the executed plan.
func (e *Engine) Plan() *Plan { return e.plan }

// Process consumes the next event. Events must arrive in
// non-decreasing time-stamp order (the stream scheduler of §8
// guarantees this); an out-of-order event is rejected.
func (e *Engine) Process(ev *event.Event) error {
	if err := e.admitEvent(ev.Time); err != nil {
		return err
	}
	e.seq++
	if ev.ID == 0 {
		ev.ID = e.seq
	}
	// Resolve the event once: every predicate evaluation, binding-slot
	// read and partition-key byte below is array indexing on this view.
	e.plan.resolveInto(&e.rv, ev)
	return e.processResolved(ev)
}

// admitEvent is the shared admission prologue of Process and
// ProcessResolved: reject time regressions, advance the watermark on
// time change (hoisted out of equal-time runs — a repeated time stamp
// cannot close anything new), and record the new stream time. Error
// construction lives out of line (lateEventErr) so this stays within
// the inlining budget — it runs once per event on the hot path.
func (e *Engine) admitEvent(t int64) error {
	if e.sawEvent && t < e.lastTime {
		return e.lateEventErr(t)
	}
	if !e.sawEvent || t != e.lastTime {
		// The arrival of an event at time t is the watermark "every
		// event with time < t has been seen": close and emit those
		// windows.
		e.advanceTo(t)
	}
	e.lastTime, e.sawEvent = t, true
	return nil
}

// lateEventErr builds the out-of-order rejection — the cold path of
// admitEvent.
func (e *Engine) lateEventErr(t int64) error {
	return fmt.Errorf("core: out-of-order event at time %d after %d: %w", t, e.lastTime, ErrLateEvent)
}

// AdvanceWatermark closes and emits every window that is complete at
// watermark t (every event with time < t has been seen). Process does
// this implicitly per time-stamp change; a multi-query runtime calls
// it directly so one stream watermark drives all hosted engines in a
// single pass, including engines whose subscribed types the current
// event does not match. The watermark is recorded: a later event with
// time < t contradicts it and is rejected like any out-of-order event.
func (e *Engine) AdvanceWatermark(t int64) error {
	if e.sawEvent && t < e.lastTime {
		return e.staleWatermarkErr(t)
	}
	e.advanceTo(t)
	e.lastTime, e.sawEvent = t, true
	return nil
}

// staleWatermarkErr builds the watermark-regression rejection — the
// cold path of AdvanceWatermark.
func (e *Engine) staleWatermarkErr(t int64) error {
	return fmt.Errorf("core: watermark %d behind time %d: %w", t, e.lastTime, ErrLateEvent)
}

// ProcessResolved consumes an event resolved by a shared Resolver over
// the plan's catalog: the per-query continuation of the runtime's
// resolve-once path. tid is the event's catalog type id (-1 for types
// unknown to the catalog). The caller is responsible for watermark
// ordering across queries (AdvanceWatermark); like Process, the event
// must not be older than anything this engine has seen.
func (e *Engine) ProcessResolved(ev *event.Event, r *Resolver, tid int32) error {
	if err := e.admitEvent(ev.Time); err != nil {
		return err
	}
	// Borrow the resolver's union view (slice headers only): the
	// engine reads it strictly before the next Resolve, and stored
	// state copies out what it retains.
	e.rv.ev = ev
	e.rv.num, e.rv.sym, e.rv.has = r.rv.num, r.rv.sym, r.rv.has
	e.rv.tp = e.plan.typePlanAt(tid)
	e.rv.specIDs = e.plan.specIDs
	return e.processResolved(ev)
}

// processResolved runs the per-event path after resolution: partition
// key extraction, window-state lookup and sub-aggregator dispatch.
func (e *Engine) processResolved(ev *event.Event) error {
	keyBuf, ok := e.plan.appendStreamKey(e.keyBuf[:0], &e.rv)
	e.keyBuf = keyBuf
	if !ok {
		e.skipped++ // no partition attribute: belongs to no sub-stream
		return nil
	}
	e.eventsIn++
	if !e.statesValid || e.statesTime != ev.Time {
		e.states = e.mgr.AppendStatesFor(e.states[:0], ev.Time)
		e.statesTime, e.statesValid = ev.Time, true
	}
	for _, ws := range e.states {
		part, ok := ws.parts[string(keyBuf)]
		if !ok {
			part = newSubAggregator(e.plan, e.acct, e.bnd, &e.arenas, &e.memo)
			ws.parts[string(keyBuf)] = part
		}
		part.Process(&e.rv)
	}
	return nil
}

// advanceTo closes and emits the windows complete at watermark t and
// invalidates the cached window-state slice. With eviction enabled the
// binding-intern tables rotate afterwards: emission (which decodes
// binding keys of the closed windows) MUST precede the sweep.
func (e *Engine) advanceTo(t int64) {
	for _, closed := range e.mgr.AdvanceTo(t) {
		e.emit(closed.Wid, closed.State)
	}
	e.statesValid = false
	if e.evict {
		e.bnd.expire(e.mgr.Spec().EpochOf(t))
	}
}

// ProcessAll feeds a pre-sorted batch of events.
func (e *Engine) ProcessAll(events []*event.Event) error {
	for _, ev := range events {
		if err := e.Process(ev); err != nil {
			return err
		}
	}
	return nil
}

// AlignTo aligns a late-joining engine to a live stream at watermark
// t: the stream may already have emitted events up to and including
// time t that this engine never saw, so every window that covers time
// t or earlier is only partially observable and is suppressed. Results
// start from the first fully covered window (the one whose start lies
// strictly after t). Call once, before feeding the engine its first
// event; events at time t itself are still accepted afterwards (they
// fall only into suppressed windows).
func (e *Engine) AlignTo(t int64) {
	e.mgr.SkipBefore(e.mgr.Spec().FirstFullWindow(t))
	if !e.sawEvent || t > e.lastTime {
		e.lastTime, e.sawEvent = t, true
	}
}

// RetireFrom caps the engine at window boundary wid: windows >= wid
// are never created, so the engine drains as the watermark closes its
// remaining windows. A sharing-group handover retires the old host this
// way while the new one aligns to the same boundary — every window is
// owned by exactly one engine, so results are byte-identical across it.
func (e *Engine) RetireFrom(wid int64) {
	e.mgr.SkipFrom(wid)
	e.statesValid = false
}

// Drained reports whether the engine was retired and every window
// below its ceiling has closed: it owns nothing anymore and never will.
func (e *Engine) Drained() bool { return e.mgr.Drained() }

// Close flushes every open window and returns all collected results
// (nil when a result callback is installed).
func (e *Engine) Close() []Result {
	for _, closed := range e.mgr.Flush() {
		e.emit(closed.Wid, closed.State)
	}
	e.statesValid = false
	return e.results
}

// ReleaseIntern returns the engine's binding intern tables — the only
// engine state that outlives windows — to the accountant and drops
// them. Call after Close when the engine is being discarded
// (unsubscribe); the engine must not process events afterwards.
func (e *Engine) ReleaseIntern() {
	e.bnd.release()
}

// InternBytes returns the live logical bytes of the engine's binding
// intern tables. Without eviction they grow monotonically with
// distinct slot values over the engine's lifetime; with
// WithInternEviction they plateau — epoch rotation reclaims entries
// whose referencing windows have all closed, so the value also
// shrinks.
func (e *Engine) InternBytes() int64 { return e.bnd.footprint() }

// Results returns the results collected so far.
func (e *Engine) Results() []Result { return e.results }

// EventsProcessed returns how many events entered a sub-stream.
func (e *Engine) EventsProcessed() int64 { return e.eventsIn }

// EventsSkipped returns how many events carried no partition key.
func (e *Engine) EventsSkipped() int64 { return e.skipped }

// emit finalises one closed window: collects per-partition,
// per-binding aggregates, merges them into GROUP-BY groups, reports
// and releases the state.
func (e *Engine) emit(wid int64, ws *winState) {
	start, end := e.plan.Query.Window.Bounds(wid)
	type groupAgg struct {
		group []string
		node  agg.Node
	}
	groups := map[string]*groupAgg{}
	partKeys := make([]string, 0, len(ws.parts))
	for k := range ws.parts {
		partKeys = append(partKeys, k)
	}
	sort.Strings(partKeys)
	for _, pk := range partKeys {
		part := ws.parts[pk]
		for _, br := range part.Results() {
			group := e.plan.GroupOf(pk, br.vals)
			gk := strings.Join(group, "\x00")
			ga, ok := groups[gk]
			if !ok {
				ga = &groupAgg{group: group, node: e.plan.Specs.Zero()}
				groups[gk] = ga
			}
			e.plan.Specs.Merge(&ga.node, br.node)
		}
		part.Release()
	}
	gks := make([]string, 0, len(groups))
	for gk := range groups {
		gks = append(gks, gk)
	}
	sort.Strings(gks)
	for _, gk := range gks {
		ga := groups[gk]
		r := Result{
			Wid:    wid,
			Start:  start,
			End:    end,
			Group:  ga.group,
			Values: e.plan.Specs.Report(ga.node),
		}
		if e.onResult != nil {
			e.onResult(r)
		} else {
			e.results = append(e.results, r)
		}
	}
}
