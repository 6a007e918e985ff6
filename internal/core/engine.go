package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

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

// CompareResults is the order results are reported in: by window id,
// then by GROUP-BY tuple, value by value. An engine emits each window's
// groups in it and the worker merge gathers hosts' drains by it, so it
// is the one definition of result order.
func CompareResults(a, b Result) int {
	if c := cmp.Compare(a.Wid, b.Wid); c != 0 {
		return c
	}
	return slices.Compare(a.Group, b.Group)
}

// winState is the per-window execution state: one sub-aggregator per
// stream partition (§7: windows, single-event predicates and grouping
// partition the stream into sub-streams), in a slot array indexed by the
// engine's partition ids (partDict). States are recycled
// (Engine.openWindow) with every slot emptied, not dropped.
type winState struct {
	wid  int64
	sas  []subAggregator // by partition id; len == cap, unopened slots nil
	open int             // the slots set
}

// Engine executes one compiled plan over an in-order event stream.
// It routes each event to the windows containing it and, within each
// window, to the sub-stream its partition key selects; closed windows
// emit Results. Engine is not safe for concurrent use — parallel
// execution partitions the stream upstream (internal/stream).
type Engine struct {
	plan *Plan
	mgr  *window.Manager[*winState]

	// Per-event scratch, reused so the steady-state path does not
	// allocate: the resolved attribute view, the composite
	// partition-key bytes and the window-state slice, cached per time
	// stamp (statesAt).
	rv          resolvedVals
	keyBuf      []byte
	states      []*winState
	statesTime  int64
	statesValid bool

	// sh is what every hosted sub-aggregator shares (kernelShared: the
	// accountant, the bindings, the kernels' scratch), closing what a
	// window close works from (emit).
	sh      kernelShared
	closing emitScratch
	// parts numbers the partitions of the open windows: an event resolves
	// its key to an id once, whatever the number of windows it falls in.
	parts partDict
	// aggs and wins pool the sub-aggregators and window states of closed
	// windows: state per (window, group) is a constant-size aggregate, so
	// what one window released the next one reopens, and window turnover
	// on a warm engine allocates nothing. The pools are the engine's own
	// (engines are single-threaded), grow only by what closes, are at
	// their emptiest when the open windows are full and give back what a
	// whole window generation left untouched (pool.trim).
	aggs   pool[subAggregator]
	wins   pool[*winState]
	trimAt int64 // the window id whose close ends the pools' generation
	// runParts is processRunSinglePart's per-run list of the open
	// windows' partition-0 aggregators.
	runParts []subAggregator

	lastTime int64
	sawEvent bool
	seq      int64
	eventsIn int64
	skipped  int64

	engineConfig
	results []Result

	// solo resolves the lone events Process takes, each a run of one;
	// it is made at the first call, since the engines a runtime hosts
	// only ever take whole runs.
	solo *Resolver
}

// engineConfig is what the options set.
type engineConfig struct {
	acct     accountant
	onResult func(Result)
	evict    bool
}

// Option configures an Engine.
type Option func(*engineConfig)

// WithAccountant wires logical memory accounting.
func WithAccountant(a *metrics.Accountant) Option {
	return func(c *engineConfig) { c.acct = a }
}

// WithResultCallback streams results to fn instead of collecting them.
func WithResultCallback(fn func(Result)) Option {
	return func(c *engineConfig) { c.onResult = fn }
}

// ResultCallbackOf returns the callback opts install (nil: results are
// collected). The multi-query runtime keeps a subscriber's callback to
// itself — its engines emit to their sharing group, which projects per
// member — so it has to read it out of the opaque option list.
func ResultCallbackOf(opts []Option) func(Result) {
	var c engineConfig
	for _, opt := range opts {
		opt(&c)
	}
	return c.onResult
}

// WithInternEviction ties the engine's binding-intern tables to window
// expiry: intern entries are stamped with the epoch (Within-length
// frame) of the watermark they were last touched at, and entries whose
// referencing windows have all closed are reclaimed as the watermark
// advances (their ids are recycled). Results are identical to an
// unbounded engine; the difference is purely that InternBytes plateaus
// at roughly two epochs' worth of distinct slot values instead of
// growing with the stream's lifetime cardinality. Every engine a
// Session hosts evicts; an engine without this option is the unbounded
// reference the differential tests compare sessions against.
func WithInternEviction() Option {
	return func(c *engineConfig) { c.evict = true }
}

// NewEngine builds an engine for a plan.
func NewEngine(p *Plan, opts ...Option) *Engine {
	e := &Engine{plan: p}
	e.acct = nopAccountant{}
	for _, opt := range opts {
		opt(&e.engineConfig)
	}
	e.sh.acct = e.acct
	e.sh.bnd = newBindings(p.Slots, e.acct, e.evict) // after opts: intern tables charge the accountant
	e.mgr = window.NewManager(p.Query.Window, e.openWindow)
	return e
}

// openWindow is the one window-state constructor: a state a closed
// window left behind, or on a pool miss a new one.
func (e *Engine) openWindow(wid int64) *winState {
	ws, ok := e.wins.pop()
	if !ok {
		ws = &winState{}
	}
	ws.wid = wid
	return ws
}

// openSubAggregator is the one sub-aggregator constructor, for live
// partitions and decoded ones alike: an aggregator a closed window
// released, or on a pool miss a new one.
func (e *Engine) openSubAggregator() subAggregator {
	sa, ok := e.aggs.pop()
	if !ok {
		return newSubAggregator(e.plan, &e.sh)
	}
	sa.reopen()
	return sa
}

// pool is a free list bounded by use. low is the fewest objects it has
// held since the last trim: that many sat in it, reopened by nobody,
// through a whole window generation — one turnover of the open windows
// (emitAll) — and trim drops them. A cardinality spike therefore costs
// its memory for one more generation, not for the engine's lifetime,
// while a steady stream, which reopens what it releases, is not trimmed.
type pool[T any] struct {
	free []T
	low  int
}

func (p *pool[T]) push(v T) { p.free = append(p.free, v) }

// pop takes the last object off the list, leaving no reference behind.
func (p *pool[T]) pop() (v T, ok bool) {
	n := len(p.free) - 1
	if n < 0 {
		return v, false
	}
	var zero T
	v, p.free[n] = p.free[n], zero
	p.free = p.free[:n]
	p.low = min(p.low, n)
	return v, true
}

// trim ends a generation: called once the windows an advance closed have
// all been released into the pool.
func (p *pool[T]) trim() {
	if p.low > 0 {
		keep := copy(p.free, p.free[p.low:]) // the idle ones lie at the bottom
		clear(p.free[keep:])
		p.free = p.free[:keep]
		if cap(p.free) > 4*keep {
			p.free = slices.Clone(p.free) // the list itself was sized for the spike
		}
	}
	p.low = len(p.free)
}

// partID resolves the current event's partition key to its id, numbering
// a key the engine does not hold. A single-attribute key — the common
// case — is spelled by the event's own attribute value (strings are
// immutable, and bindings keep slot values the same way), so only a
// composite key is built, once per dictionary entry. ok is false when the
// event lacks a partition attribute.
func (e *Engine) partID() (pid int32, ok bool) {
	switch ids := e.plan.streamKeyIDs; len(ids) {
	case 0:
		return 0, true
	case 1:
		if e.rv.has[ids[0]]&hasSymVal == 0 {
			return 0, false
		}
		return e.parts.id(e.rv.sym[ids[0]]), true
	}
	keyBuf, ok := e.plan.appendStreamKey(e.keyBuf[:0], &e.rv)
	e.keyBuf = keyBuf
	if !ok {
		return 0, false
	}
	// The probe reads the scratch bytes in place; a new key is copied.
	key := unsafe.String(unsafe.SliceData(keyBuf), len(keyBuf))
	cell, pid := e.parts.find(key)
	if pid < 0 {
		pid = e.parts.add(strings.Clone(key), cell)
	}
	return pid, true
}

// statesAt returns the states of the windows containing t, creating
// missing ones. They are looked up once per time stamp: the window set
// is a function of time alone.
func (e *Engine) statesAt(t int64) []*winState {
	if !e.statesValid || e.statesTime != t {
		e.states = e.mgr.AppendStatesFor(e.states[:0], t)
		e.statesTime, e.statesValid = t, true
	}
	return e.states
}

// slot returns the sub-aggregator of partition pid in ws, opening the
// partition when the window has not seen it yet.
func (e *Engine) slot(ws *winState, pid int32) subAggregator {
	if int(pid) < len(ws.sas) {
		if sa := ws.sas[pid]; sa != nil {
			return sa
		}
	}
	sa := e.openSubAggregator()
	e.install(ws, pid, sa)
	return sa
}

// install sets the empty slot pid of ws. A slot array too short for pid
// grows to the dictionary's ids at once (dictStart of them at least,
// for a plan with partition attributes).
func (e *Engine) install(ws *winState, pid int32, sa subAggregator) {
	if int(pid) >= len(ws.sas) {
		need := max(int(pid)+1, len(e.parts.parts), min(cap(e.parts.parts), dictStart))
		ws.sas = slices.Grow(ws.sas, need-len(ws.sas))
		ws.sas = ws.sas[:cap(ws.sas)]
	}
	ws.sas[pid] = sa
	ws.open++
	e.parts.opened(pid, ws.wid)
}

// partitions returns the ids a window close visits, in key order: the
// dictionary's live ids, or the one sub-stream of a plan without
// partition attributes.
func (e *Engine) partitions() []int32 {
	if len(e.plan.StreamKeys) == 0 {
		return pidZero
	}
	e.parts.merge()
	return e.parts.order
}

// Plan returns the executed plan.
func (e *Engine) Plan() *Plan { return e.plan }

// Process consumes the next event. Events must arrive in
// non-decreasing time-stamp order (the stream scheduler of §8
// guarantees this); an out-of-order event is rejected, before it is
// stamped, so the stamp sequence a snapshot carries counts admitted
// events only. The event is a run of one: resolved over the plan's own
// attributes and executed by ProcessResolvedRun.
func (e *Engine) Process(ev *event.Event) error {
	if e.sawEvent && ev.Time < e.lastTime {
		return e.lateEventErr(ev.Time)
	}
	e.seq++
	if ev.ID == 0 {
		ev.ID = e.seq
	}
	if e.solo == nil {
		e.solo = NewResolver(e.plan.cat)
	}
	r := e.solo
	tid, _ := e.plan.cat.TypeID(ev.Type)
	r.one[0] = ev
	r.ResolveRun(&r.run, r.one[:], tid, e.plan.attrIDs)
	err := e.ProcessResolvedRun(&r.run)
	r.one[0] = nil
	return err
}

// admitEvent is the admission prologue of ProcessResolvedRun: reject
// time regressions, advance the watermark on time change (a repeated
// time stamp cannot close anything new), and record the new stream
// time. Error construction lives out of line (lateEventErr) so this
// stays within the inlining budget — it runs once per run on the hot
// path.
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

// ProcessResolved consumes an event resolved by Resolver.Resolve over
// the plan's catalog, as a run of one over the resolver's view. tid is
// the event's catalog type id (-1 for types unknown to the catalog).
// The caller is responsible for watermark ordering across queries
// (AdvanceWatermark), as with ProcessResolvedRun. No runtime calls it;
// it remains for benchmarks/cograperf until that harness moves to the
// run-shaped body.
func (e *Engine) ProcessResolved(ev *event.Event, r *Resolver, tid int32) error {
	r.one[0] = ev
	r.run.Time, r.run.Tid = ev.Time, tid
	err := e.ProcessResolvedRun(&r.run)
	r.one[0] = nil
	return err
}

// advanceTo closes and emits the windows complete at watermark t and
// invalidates the cached window-state slice. With eviction enabled the
// binding-intern tables rotate afterwards: emission (which decodes
// binding keys of the closed windows) MUST precede the sweep.
func (e *Engine) advanceTo(t int64) {
	e.emitAll(e.mgr.AdvanceTo(t))
	if e.evict {
		e.sh.bnd.expire(e.mgr.Spec().EpochOf(t))
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
	e.lastTime, e.sawEvent = t, true
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
	e.emitAll(e.mgr.Flush())
	return e.results
}

// ReleaseIntern returns the engine's binding intern tables — the only
// engine state that outlives windows — to the accountant and drops
// them. Call after Close when the engine is being discarded
// (unsubscribe); the engine must not process events afterwards.
func (e *Engine) ReleaseIntern() {
	e.sh.bnd.release()
}

// InternBytes returns the live logical bytes of the engine's binding
// intern tables. Without eviction they grow monotonically with
// distinct slot values over the engine's lifetime; with
// WithInternEviction they plateau — epoch rotation reclaims entries
// whose referencing windows have all closed, so the value also
// shrinks.
func (e *Engine) InternBytes() int64 { return e.sh.bnd.footprint() }

// EventsProcessed returns how many events entered a sub-stream.
func (e *Engine) EventsProcessed() int64 { return e.eventsIn }

// EventsSkipped returns how many events carried no partition key.
func (e *Engine) EventsSkipped() int64 { return e.skipped }

// emitAll reports and recycles the windows one advance closed and
// invalidates the cached window-state slice. The pools' generation ends
// once as many window ids have closed as are ever open together: trimmed
// at every close, a pool would shed at each dip of a fluctuating
// partition count and rebuild at the next rise (+0.7 allocations per
// event on cograperf's durable_disordered). The partition dictionary is
// swept at the same beat.
func (e *Engine) emitAll(closed []window.Closed[*winState]) {
	for _, c := range closed {
		e.emit(c.Wid, c.State)
	}
	if n := len(closed); n > 0 && closed[n-1].Wid >= e.trimAt {
		e.aggs.trim()
		e.wins.trim()
		e.trimAt = closed[n-1].Wid + e.mgr.Spec().MaxConcurrent()
		if e.parts.sweep(closed[n-1].Wid + 1) {
			e.compactPartitions()
		}
	}
	e.statesValid = false
}

// compactPartitions rebuilds a dictionary a sweep left sparse and moves
// the open windows' slots to the new ids; pooled states drop slot arrays
// sized for the old ones.
func (e *Engine) compactPartitions() {
	remap := e.parts.compact()
	for _, wid := range e.mgr.ActiveWids() {
		ws, _ := e.mgr.State(wid)
		sas := make([]subAggregator, len(e.parts.parts))
		for pid, sa := range ws.sas {
			if sa != nil {
				sas[remap[pid]] = sa
			}
		}
		ws.sas = sas
	}
	for _, ws := range e.wins.free {
		ws.sas = nil
	}
}

// emitScratch is what emit works from, so that closing a window
// allocates nothing but the result rows the receiver keeps.
type emitScratch struct {
	keyParts []string // the current partition key's attribute values
	rows     []groupRow
	groups   []string  // the rows' GROUP-BY tuples, back to back
	aux      []agg.Aux // the rows' auxiliaries, back to back
	acc      agg.Node  // the group being folded
}

// groupRow is one (partition, binding) aggregate of a closing window on
// its way into its GROUP-BY group; the offsets point into emitScratch.
type groupRow struct {
	group int32 // the tuple
	aux   int32 // the aggregate's auxiliaries
	count uint64
}

// emit finalises one closed window: collects per-partition,
// per-binding aggregates, merges them into GROUP-BY groups, reports
// them in tuple order (CompareResults) and recycles the state. Result
// rows belong to the receiver; the rows of one window share a backing
// array per column (cap-limited, so an append never reaches a
// neighbour).
func (e *Engine) emit(wid int64, ws *winState) {
	start, end := e.plan.Query.Window.Bounds(wid)
	specs, sc, width := e.plan.Specs, &e.closing, len(e.plan.groupRefs)

	// One row per (partition, binding), in partition-key then binding
	// order; the aggregates are copied out, so a partition is released
	// as soon as it has reported.
	rows, groups, aux := sc.rows[:0], sc.groups[:0], sc.aux[:0]
	for _, pid := range e.partitions() {
		if ws.open == 0 {
			break
		}
		if int(pid) >= len(ws.sas) || ws.sas[pid] == nil {
			continue
		}
		part := ws.sas[pid]
		ws.sas[pid] = nil
		ws.open--
		if width > 0 {
			sc.keyParts = e.plan.appendKeyParts(sc.keyParts[:0], e.parts.key(pid))
		}
		for _, br := range part.Results() {
			row := groupRow{group: int32(len(groups)), aux: int32(len(aux)), count: br.node.Count}
			groups = e.plan.appendGroup(groups, sc.keyParts, br.vals)
			aux = append(aux, br.node.Aux...)
			rows = append(rows, row)
		}
		e.release(part)
	}

	// Group: a stable sort by tuple keeps the rows of one group in the
	// order above, which is the order they merge in.
	tuple := func(r *groupRow) []string { return groups[r.group : int(r.group)+width] }
	slices.SortStableFunc(rows, func(a, b groupRow) int { return slices.Compare(tuple(&a), tuple(&b)) })
	ngroups := 0
	for i := range rows {
		if i == 0 || !slices.Equal(tuple(&rows[i]), tuple(&rows[i-1])) {
			ngroups++
		}
	}
	if ngroups > 0 {
		values := make([]agg.Value, ngroups*len(specs))
		var tuples []string
		if width > 0 {
			tuples = make([]string, ngroups*width)
		}
		for i := 0; i < len(rows); {
			first := &rows[i]
			specs.ZeroInto(&sc.acc)
			for ; i < len(rows) && slices.Equal(tuple(&rows[i]), tuple(first)); i++ {
				at := int(rows[i].aux)
				specs.Merge(&sc.acc, agg.Node{Count: rows[i].count, Aux: aux[at : at+len(specs)]})
			}
			r := Result{Wid: wid, Start: start, End: end, Values: values[:len(specs):len(specs)]}
			values = values[len(specs):]
			specs.ReportInto(r.Values, sc.acc)
			if width > 0 {
				r.Group, tuples = tuples[:width:width], tuples[width:]
				copy(r.Group, groups[first.group:])
			}
			if e.onResult != nil {
				e.onResult(r)
			} else {
				e.results = append(e.results, r)
			}
		}
	}
	// The scratch keeps the storage this window used and no string of it.
	clear(groups)
	sc.rows, sc.groups, sc.aux = Shed(rows), Shed(groups), Shed(aux)

	// The state is pooled with every slot emptied — unless its slot array
	// is sized for ids a compacted dictionary has since given back.
	if cap(ws.sas) > 4*max(len(e.parts.parts), dictStart) {
		return
	}
	poisonWindow(ws)
	e.wins.push(ws)
}

// release retires a sub-aggregator into the pool.
func (e *Engine) release(sa subAggregator) {
	sa.Release()
	poisonAggregator(sa)
	e.aggs.push(sa)
}
