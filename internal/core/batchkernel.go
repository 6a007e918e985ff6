package core

import (
	"repro/internal/event"
)

// Batch kernels: the execution-side counterpart of batch-first ingest,
// and the engine's only way in.
//
// The multi-query runtime splits each batch into equal-timestamp
// groups and every group into runs: maximal stretches of consecutive
// same-type events, in arrival order (the Hamlet report's bursts). It
// resolves each run once into a struct-of-arrays view (ResolvedRun)
// and hands it to every interested engine in one call
// (ProcessResolvedRun). The per-event costs of event-at-a-time
// execution — subscription-index lookup, dispatch-table (typePlan) and
// spec projection install, watermark check — collapse to once per run,
// and resolution probes only the attributes some hosted plan reads
// instead of the catalog's whole attribute space. Every engine sees its
// events in arrival order, which pattern-grained and contiguous plans
// need (their el chain keeps the last matched event); type- and
// mixed-grained plans stage the contributions of a time stamp and
// commit at the next time advance (§8, Definition 7), so for them
// equal-time order is invisible either way.
//
// The engine has one per-event loop, ProcessResolvedRun (for a plan
// without partition attributes it takes the processRunSinglePart
// branch), and events are resolved only by ResolveRun. A lone event is
// a run of one: Engine.Process resolves it over its plan's own
// attributes, and ProcessResolved borrows a Resolver's view of it. The kernels read
// each event as a resolvedVals slot view, a stride-wide slice of three
// contiguous columns (num/sym/has), so the inner aggregation loops walk
// linear memory instead of chasing one heap object per event.

// ResolvedRun is the resolved view of one run: same-time, same-type
// events in arrival order, slot values laid out struct-of-arrays. Row
// i (event i's view) is the half-open stride slice [i*stride,
// (i+1)*stride) of each column. Only the attribute ids requested at
// ResolveRun time hold live values; every other slot is stale — safe
// because the runtime requests the union of all attributes the plans
// it hands the run to reference.
type ResolvedRun struct {
	// Events is the run in arrival order — borrowed from the caller,
	// valid until the next ResolveRun.
	Events []*event.Event
	// Time is the shared time stamp, Tid the shared catalog type id.
	Time int64
	Tid  int32

	stride int
	num    []float64
	sym    []string
	has    []uint8
}

// Len returns the number of events in the run.
func (run *ResolvedRun) Len() int { return len(run.Events) }

// ResolveRun resolves a run of same-time, same-type events into run's
// struct-of-arrays view, probing only the attribute ids in attrs (the
// caller's union of every attribute its interested plans read). Each
// attribute probes the numeric map first. A hit on an attribute no
// plan reads symbolically (not symNeeded) ends there: every reader of
// such a slot — local and adjacent checks and aggregate specs — reads
// it numeric-first, so the symbolic map could change nothing it sees.
// Otherwise the symbolic map is probed too, with the numeric fallback
// materialised for a symNeeded attribute the event carries only as a
// number (partition keys and binding slots, which are always
// symNeeded, read that). The view is valid until the next ResolveRun
// call on the same run.
func (r *Resolver) ResolveRun(run *ResolvedRun, events []*event.Event, tid int32, attrs []int32) {
	v := r.cat.view.Load()
	stride := len(v.attrNames)
	need := len(events) * stride
	if cap(run.num) >= need {
		run.num, run.sym, run.has = run.num[:need], run.sym[:need], run.has[:need]
	} else {
		run.num = make([]float64, need)
		run.sym = make([]string, need)
		run.has = make([]uint8, need)
	}
	run.Events = events
	run.Tid = tid
	run.stride = stride
	if len(events) > 0 {
		run.Time = events[0].Time
	}
	// Attribute-outer: the name, liveness and symNeeded lookups are
	// hoisted per column, and the per-event map probes hash the same
	// key back to back.
	for _, a := range attrs {
		if int(a) >= stride || (v.attrDead != nil && v.attrDead[a]) {
			continue
		}
		name := v.attrNames[a]
		needSym := v.symNeeded[a]
		idx := int(a)
		for _, ev := range events {
			var h uint8
			var nv float64
			var sv string
			if val, ok := ev.Num[name]; ok {
				nv, h = val, hasNum
				if needSym {
					if s, ok := ev.Sym[name]; ok {
						sv = s
						h |= hasSymRaw | hasSymVal
					} else {
						sv = event.FormatNum(nv)
						h |= hasSymVal
					}
				}
			} else if s, ok := ev.Sym[name]; ok {
				sv = s
				h = hasSymRaw | hasSymVal
			}
			run.num[idx], run.sym[idx], run.has[idx] = nv, sv, h
			idx += stride
		}
	}
}

// ProcessResolvedRun consumes one resolved run; it is the engine's one
// way in. The admission check, the dispatch-table lookup (typePlanAt)
// and the spec projection install are hoisted out of the event loop,
// and each event's slot view is a stride slice into the run's
// contiguous columns. The caller is responsible for watermark ordering
// across queries (AdvanceWatermark).
func (e *Engine) ProcessResolvedRun(run *ResolvedRun) error {
	if len(run.Events) == 0 {
		return nil
	}
	if err := e.admitEvent(run.Time); err != nil {
		return err
	}
	e.rv.tp = e.plan.typePlanAt(run.Tid)
	e.rv.specIDs = e.plan.specIDs
	if len(e.plan.streamKeyIDs) == 0 {
		return e.processRunSinglePart(run)
	}
	stride, off := run.stride, 0
	for _, ev := range run.Events {
		e.rv.ev = ev
		e.rv.num = run.num[off : off+stride]
		e.rv.sym = run.sym[off : off+stride]
		e.rv.has = run.has[off : off+stride]
		off += stride
		pid, ok := e.partID()
		if !ok {
			e.skipped++ // no partition attribute: belongs to no sub-stream
			continue
		}
		e.eventsIn++
		// A keyless event opens no window, so the states are looked up
		// at the run's first keyed event.
		for _, ws := range e.statesAt(run.Time) {
			e.slot(ws, pid).Process(&e.rv)
		}
	}
	e.rv.ev = nil
	return nil
}

// processRunSinglePart is ProcessResolvedRun's branch for plans without
// partition attributes: their one sub-stream, id 0, has its slot in
// each window looked up once per run, not per event. Events stay outer,
// windows inner, as on the keyed path. Folded into the keyed loop,
// cograperf's burst_kernel read ≈ 6 % more CPU per event, and written
// inline in ProcessResolvedRun ≈ 0.5 % more (docs/perf-history.md).
func (e *Engine) processRunSinglePart(run *ResolvedRun) error {
	e.eventsIn += int64(len(run.Events))
	parts := e.runParts[:0]
	for _, ws := range e.statesAt(run.Time) {
		parts = append(parts, e.slot(ws, 0))
	}
	stride, off := run.stride, 0
	for _, ev := range run.Events {
		e.rv.ev = ev
		e.rv.num = run.num[off : off+stride]
		e.rv.sym = run.sym[off : off+stride]
		e.rv.has = run.has[off : off+stride]
		off += stride
		for _, sa := range parts {
			sa.Process(&e.rv)
		}
	}
	clear(parts) // a closed window's aggregators must not outlive it here
	e.runParts = parts[:0]
	e.rv.ev = nil
	return nil
}
