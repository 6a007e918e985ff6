package main

// The traced run: the layer ladder. Each rung is a pass over one
// prefix of the workload's own stream through a longer prefix of the
// real stack, assembled from the public functions of the modules under
// internal/ — the program itself carries no instrumentation. A rung is
// timed from outside; a layer's self time is its rung minus the rungs
// beneath it. Every pass is a root span and every group of timed calls
// a child span; spans are kept in memory and written when the run
// ends. End-to-end metrics are never taken here.
//
// Every rung runs on every workload, so every per-layer metric is a
// measurement on every workload; whether the rung is on the path of
// the workload's end-to-end lap is what onPath records and the README
// tabulates.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	cogra "repro"
	"repro/internal/core"
	"repro/internal/event"
	cograrun "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/window"
)

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Start  int64  `json:"start"`  // ns since the trace began
	End    int64  `json:"end"`
	Count  int    `json:"count"` // events inside
}

type tracer struct {
	t0    time.Time
	spans []span
	muted bool // repetitions beyond the recorded ones leave no spans
}

func (t *tracer) begin(name string, parent int) int {
	if t.muted {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id, count int) {
	if id > 0 {
		t.spans[id-1].End, t.spans[id-1].Count = int64(time.Since(t.t0)), count
	}
}

const (
	// A rung is repeated until it has run for ladderRungTime, at least
	// ladderMinReps and at most ladderMaxReps times; the fastest
	// repetition counts and the first ladderMinReps leave spans.
	ladderMinReps  = 2
	ladderMaxReps  = 24
	ladderRungTime = 400 * time.Millisecond
	spansPerPass   = 16 // child spans of a pass
	overheadPairs  = 4  // plain and traced laps compared for trace.overhead_share
	snapReps       = 9
	rttReps        = 200
)

// ladder is the state shared by the rungs of one traced run.
type ladder struct {
	in *input
	wl *workload
	tr *tracer
	s  *source // the stream the rungs read (a wire tenant when served)
	n  int     // events in the prefix

	sorted  []*cogra.Event   // the prefix in time order
	arrival []*cogra.Event   // the same events in arrival order
	batches [][]*cogra.Event // arrival order, wl.batch events each
	frames  [][]byte         // the batches as wire payloads
	bodies  [][]byte         // the batches as JSON request bodies

	rows []row // the ladder table, bottom rung first
	m    map[string]metric
}

// row is one line of the "where a microsecond goes" table.
type row struct {
	layer  string
	rung   float64 // ns/event of the whole pass
	self   float64 // ns/event attributed to this layer
	allocs float64 // allocations per event of the whole pass
	onPath bool
}

func newLadder(in *input, tr *tracer) (*ladder, error) {
	l := &ladder{in: in, wl: in.wl, tr: tr, s: in.streams[len(in.streams)-1], m: map[string]metric{}}
	l.n = min(in.wl.ladderEvents, len(l.s.recs))
	l.sorted, l.arrival = l.s.sorted(0, l.n), l.s.arrivals(0, l.n)
	if l.s.order != nil {
		// A prefix of the arrival order is not a prefix of the time
		// order; take the arrivals and sort them into the reference order.
		l.sorted = append([]*cogra.Event(nil), l.arrival...)
		event.Sort(l.sorted)
	}
	for lo := 0; lo < l.n; lo += l.wl.batch {
		batch := l.arrival[lo:min(lo+l.wl.batch, l.n)]
		l.batches = append(l.batches, batch)
		frame, err := server.AppendIngest(nil, "t", batch)
		if err != nil {
			return nil, err
		}
		l.frames = append(l.frames, frame)
		wire := make([]server.WireEvent, len(batch))
		for i, e := range batch {
			wire[i] = server.ToWireEvent(e)
		}
		body, err := json.Marshal(map[string]any{"events": wire})
		if err != nil {
			return nil, err
		}
		l.bodies = append(l.bodies, body)
	}
	return l, nil
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// pass is the measurement of one rung.
type pass struct {
	ns     float64 // wall ns per event, fastest repetition
	allocs float64 // allocations per event of that repetition
	cores  float64 // cpu time / wall time of that repetition
}

// run measures one rung: prep builds the fleet untimed and returns the
// timed body, which receives its root span.
func (l *ladder) run(name string, prep func() (body func(root int) error, err error)) (pass, error) {
	var best pass
	var spent time.Duration
	defer func() { l.tr.muted = false }()
	for r := 0; r < ladderMinReps || (r < ladderMaxReps && spent < ladderRungTime); r++ {
		l.tr.muted = r >= ladderMinReps
		body, err := prep()
		if err != nil {
			return best, fmt.Errorf("rung %s: %w", name, err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := l.tr.begin(name, 0)
		c0, t0 := cpuTime(), time.Now()
		err = body(root)
		wall, cpu := time.Since(t0), cpuTime()-c0
		l.tr.end(root, l.n)
		runtime.ReadMemStats(&m1)
		spent += wall
		if err != nil {
			return best, fmt.Errorf("rung %s: %w", name, err)
		}
		p := pass{ns: float64(wall) / float64(l.n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(l.n),
			cores: float64(cpu) / float64(wall)}
		if r == 0 || p.ns < best.ns {
			best = p
		}
	}
	return best, nil
}

// spans runs fn over [0, total) in steps, each step a child span of
// root named after the call it times; per is the events per unit.
func (l *ladder) spans(root int, call string, total, step, per int, fn func(lo, hi int) error) error {
	for lo := 0; lo < total; lo += step {
		hi := min(lo+step, total)
		id := l.tr.begin(call, root)
		err := fn(lo, hi)
		l.tr.end(id, min((hi-lo)*per, l.n))
		if err != nil {
			return err
		}
	}
	return nil
}

// eventsPerSpan and callsPerSpan are how many events, or wl.batch-sized
// calls, share a child span.
func (l *ladder) eventsPerSpan() int { return max(1, l.n/spansPerPass) }
func (l *ladder) callsPerSpan() int  { return max(1, len(l.batches)/spansPerPass) }

func (l *ladder) engineOpts(more ...core.Option) []core.Option {
	if l.wl.evict {
		more = append(more, core.WithInternEviction())
	}
	return more
}

// compile builds a fresh catalog with the portfolio compiled into it.
func (l *ladder) compile() (*core.Catalog, []*core.Plan, error) {
	cat := core.NewCatalog()
	plans := make([]*core.Plan, len(l.in.queries))
	for i, q := range l.in.queries {
		var err error
		if plans[i], err = core.NewPlanIn(cat, q); err != nil {
			return nil, nil, err
		}
	}
	return cat, plans, nil
}

func (l *ladder) rungDecode() error {
	p, err := l.run("server.decode", func() (func(int) error, error) {
		return func(root int) error {
			var dec server.Decoder
			return l.spans(root, "server.Decoder.DecodeIngest", len(l.frames), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, f := range l.frames[lo:hi] {
					if _, _, err := dec.DecodeIngest(f); err != nil {
						return err
					}
				}
				return nil
			})
		}, nil
	})
	l.set("server.decode_ns_per_event", p.ns, "ns")
	l.set("server.decode_allocs_per_event", p.allocs, "allocs/event")
	l.rows = append(l.rows, row{"server.decode", p.ns, p.ns, p.allocs, !l.wl.predecoded})
	return err
}

func (l *ladder) rungReorder() (float64, error) {
	peak := 0
	p, err := l.run("stream.reorder", func() (func(int) error, error) {
		return func(root int) error {
			ro := stream.NewReorderer(durableSlack)
			released := 0
			err := l.spans(root, "stream.Reorderer.Offer", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				for _, e := range l.arrival[lo:hi] {
					out, err := ro.Offer(e)
					if err != nil {
						return err
					}
					released += len(out)
					peak = max(peak, ro.Buffered())
				}
				return nil
			})
			if released += len(ro.Flush()); err == nil && released != l.n {
				err = fmt.Errorf("%d of %d events released", released, l.n)
			}
			return err
		}, nil
	})
	l.set("stream.reorder_ns_per_event", p.ns, "ns")
	l.set("stream.reorder_peak_depth", float64(peak), "count")
	l.rows = append(l.rows, row{"stream.reorder", p.ns, p.ns, p.allocs, l.wl.slack > 0})
	return p.ns, err
}

func (l *ladder) rungResolve() (float64, error) {
	p, err := l.run("core.resolve", func() (func(int) error, error) {
		cat, _, err := l.compile()
		if err != nil {
			return nil, err
		}
		res := core.NewResolver(cat)
		return func(root int) error {
			return l.spans(root, "core.Resolver.Resolve", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				for _, e := range l.sorted[lo:hi] {
					res.Resolve(e)
				}
				return nil
			})
		}, nil
	})
	l.set("core.resolve_ns_per_event", p.ns, "ns")
	l.rows = append(l.rows, row{"core.resolve", p.ns, p.ns, p.allocs, true})
	return p.ns, err
}

// soloFleet is the portfolio on solo engines behind one shared
// resolver: what runtime.Runtime assembles, spelled out, so that the
// engines can be priced without the runtime around them.
type soloFleet struct {
	res      *core.Resolver
	plans    []*core.Plan
	engines  []*core.Engine
	byType   [][]int // type id -> engines subscribed to it
	wantsAll []int
	needed   [][]int32 // type id -> attributes the run-safe engines read
	results  int64
	lastTime int64
	sawEvent bool

	// Window-close probe (instrumented pass only).
	probe    bool
	closeDur []time.Duration
	closeRes []int64
	closeMal []uint64
}

func (l *ladder) newSoloFleet() (*soloFleet, error) {
	cat, plans, err := l.compile()
	if err != nil {
		return nil, err
	}
	f := &soloFleet{res: core.NewResolver(cat), plans: plans}
	for i, plan := range plans {
		f.engines = append(f.engines, core.NewEngine(plan, l.engineOpts(core.WithResultCallback(func(core.Result) { f.results++ }))...))
		if plan.WantsAllEvents() {
			f.wantsAll = append(f.wantsAll, i)
			continue
		}
		for _, tid := range plan.SubscribedTypeIDs() {
			for int(tid) >= len(f.byType) {
				f.byType = append(f.byType, nil)
				f.needed = append(f.needed, nil)
			}
			f.byType[tid] = append(f.byType[tid], i)
			if !plan.OrderSensitive() {
				for _, a := range plan.ReferencedAttrIDs() {
					if !slices.Contains(f.needed[tid], a) {
						f.needed[tid] = append(f.needed[tid], a)
					}
				}
			}
		}
	}
	return f, nil
}

// advance drives the watermark through every engine when time moves.
// With the probe on, the calls that close a window are timed.
func (f *soloFleet) advance(t int64) error {
	if f.sawEvent && t == f.lastTime {
		return nil
	}
	for i, eng := range f.engines {
		spec := f.plans[i].Query.Window
		closes := f.probe && f.sawEvent && spec.ClosedBefore(t) > spec.ClosedBefore(f.lastTime)
		if !closes {
			if err := eng.AdvanceWatermark(t); err != nil {
				return err
			}
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before, t0 := f.results, time.Now()
		err := eng.AdvanceWatermark(t)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if f.results > before {
			f.closeDur = append(f.closeDur, d)
			f.closeRes = append(f.closeRes, f.results-before)
			f.closeMal = append(f.closeMal, m1.Mallocs-m0.Mallocs)
		}
	}
	f.lastTime, f.sawEvent = t, true
	return nil
}

func (f *soloFleet) interested(tid int32) []int {
	if tid < 0 || int(tid) >= len(f.byType) {
		return nil
	}
	return f.byType[tid]
}

// perEvent is the event-at-a-time path: resolve once, then
// Engine.ProcessResolved on every interested engine.
func (f *soloFleet) perEvent(events []*cogra.Event) error {
	for _, e := range events {
		if err := f.advance(e.Time); err != nil {
			return err
		}
		tid := f.res.Resolve(e)
		for _, i := range f.interested(tid) {
			if err := f.engines[i].ProcessResolved(e, f.res, tid); err != nil {
				return err
			}
		}
		for _, i := range f.wantsAll {
			if err := f.engines[i].ProcessResolved(e, f.res, tid); err != nil {
				return err
			}
		}
	}
	return nil
}

// perRun is the batch-kernel path: every maximal same-time, same-type
// stretch is resolved once (Resolver.ResolveRun) and handed to the
// run-safe engines whole (Engine.ProcessResolvedRun); order-sensitive
// engines keep the per-event path, as in the runtime.
func (f *soloFleet) perRun(events []*cogra.Event, run *core.ResolvedRun) error {
	cat := f.plans[0].Catalog()
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && events[hi].Time == events[lo].Time && events[hi].Type == events[lo].Type {
			hi++
		}
		if err := f.advance(events[lo].Time); err != nil {
			return err
		}
		tid := int32(-1)
		if id, ok := cat.TypeID(events[lo].Type); ok {
			tid = id
		}
		needSeq := len(f.wantsAll) > 0
		resolved := false
		for _, i := range f.interested(tid) {
			if f.plans[i].OrderSensitive() {
				needSeq = true
				continue
			}
			if !resolved {
				f.res.ResolveRun(run, events[lo:hi], tid, f.needed[tid])
				resolved = true
			}
			if err := f.engines[i].ProcessResolvedRun(run); err != nil {
				return err
			}
		}
		if needSeq {
			for _, e := range events[lo:hi] {
				etid := f.res.Resolve(e)
				for _, i := range f.interested(tid) {
					if f.plans[i].OrderSensitive() {
						if err := f.engines[i].ProcessResolved(e, f.res, etid); err != nil {
							return err
						}
					}
				}
				for _, i := range f.wantsAll {
					if err := f.engines[i].ProcessResolved(e, f.res, etid); err != nil {
						return err
					}
				}
			}
		}
		lo = hi
	}
	return nil
}

func (f *soloFleet) close() {
	for _, eng := range f.engines {
		eng.Close()
	}
}

// rungEngine prices the engines twice — per event and per run — and
// probes window closes in one extra, untimed pass.
func (l *ladder) rungEngine(resolveNS float64) (runNS float64, err error) {
	var fanout float64
	p, err := l.run("core.engine", func() (func(int) error, error) {
		f, err := l.newSoloFleet()
		if err != nil {
			return nil, err
		}
		reached := 0
		for _, e := range l.sorted {
			tid, _ := f.plans[0].Catalog().TypeID(e.Type)
			reached += len(f.interested(tid)) + len(f.wantsAll)
		}
		fanout = float64(reached) / float64(l.n)
		return func(root int) error {
			defer f.close()
			return l.spans(root, "core.Engine.ProcessResolved", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				return f.perEvent(l.sorted[lo:hi])
			})
		}, nil
	})
	if err != nil {
		return 0, err
	}
	l.set("core.engine_ns_per_event", p.ns-resolveNS, "ns")
	l.set("runtime.fanout", fanout, "count")
	l.rows = append(l.rows, row{"core.engine (per event)", p.ns, p.ns - resolveNS, p.allocs, l.wl.kind == durable})

	pr, err := l.run("core.engine_run", func() (func(int) error, error) {
		f, err := l.newSoloFleet()
		if err != nil {
			return nil, err
		}
		var run core.ResolvedRun
		return func(root int) error {
			defer f.close()
			return l.spans(root, "core.Engine.ProcessResolvedRun", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				return f.perRun(l.sorted[lo:hi], &run)
			})
		}, nil
	})
	if err != nil {
		return 0, err
	}
	l.set("core.engine_run_ns_per_event", pr.ns, "ns")
	l.rows = append(l.rows, row{"core.engine (per run, with its resolve)", pr.ns, pr.ns, pr.allocs, l.wl.kind != durable})

	f, err := l.newSoloFleet()
	if err != nil {
		return 0, err
	}
	f.probe = true
	root := l.tr.begin("core.window_close", 0)
	err = f.perEvent(l.sorted)
	f.close()
	l.tr.end(root, l.n)
	if err != nil {
		return 0, err
	}
	if len(f.closeDur) == 0 {
		return 0, fmt.Errorf("rung core.engine: no window closed in %d events", l.n)
	}
	var results int64
	var mallocs uint64
	for i := range f.closeRes {
		results += f.closeRes[i]
		mallocs += f.closeMal[i]
	}
	l.set("core.window_close_us_p50", micros(quantile(sortedCopy(f.closeDur), 0.5)), "us")
	l.set("core.window_close_allocs", float64(mallocs)/float64(len(f.closeDur)), "allocs")
	l.set("core.results_per_window", float64(results)/float64(len(f.closeDur)), "count")
	return pr.ns, nil
}

func (l *ladder) rungRuntime(engineRunNS float64) (float64, error) {
	p, err := l.run("runtime.batch", func() (func(int) error, error) {
		cat, plans, err := l.compile()
		if err != nil {
			return nil, err
		}
		rt := cograrun.NewOn(cat)
		for _, plan := range plans {
			if _, err := rt.SubscribePlan(plan, l.engineOpts(core.WithResultCallback(func(core.Result) {}))...); err != nil {
				return nil, err
			}
		}
		return func(root int) error {
			defer rt.Close()
			return l.spans(root, "runtime.Runtime.ProcessBatch", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				for ; lo < hi; lo += l.wl.batch {
					if err := rt.ProcessBatch(l.sorted[lo:min(lo+l.wl.batch, hi)]); err != nil {
						return err
					}
				}
				return nil
			})
		}, nil
	})
	l.set("runtime.batch_ns_per_event", p.ns, "ns")
	l.set("runtime.dispatch_ns_per_event", p.ns-engineRunNS, "ns")
	l.rows = append(l.rows, row{"runtime.batch", p.ns, p.ns - engineRunNS, p.allocs, true})
	return p.ns, err
}

// push feeds one batch the way the workload's lap does.
func (l *ladder) push(sess *cogra.Session, batch []*cogra.Event) error {
	if l.wl.kind != durable {
		return sess.PushBatch(batch)
	}
	for _, e := range batch {
		if err := sess.Push(e); err != nil {
			return err
		}
	}
	return nil
}

// rungSession prices the Session twice: with a sink that discards and
// with the observer's digesting sink, the second time call by call.
func (l *ladder) rungSession(batchNS, reorderNS float64) (float64, error) {
	session := func(emit func(qi int, r *cogra.Result)) (*cogra.Session, error) {
		sess := cogra.NewSession(l.wl.options(true)...)
		for qi, q := range l.in.queries {
			if _, err := sess.Subscribe(q, cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) { emit(qi, &r) }))); err != nil {
				return nil, err
			}
		}
		return sess, nil
	}
	p, err := l.run("session.push", func() (func(int) error, error) {
		sess, err := session(func(int, *cogra.Result) {})
		if err != nil {
			return nil, err
		}
		return func(root int) error {
			defer sess.Close()
			return l.spans(root, "cogra.Session.PushBatch", len(l.batches), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, b := range l.batches[lo:hi] {
					if err := l.push(sess, b); err != nil {
						return err
					}
				}
				return nil
			})
		}, nil
	})
	if err != nil {
		return 0, err
	}
	beneath := batchNS
	if l.wl.slack > 0 {
		beneath += reorderNS
	}
	l.set("session.push_ns_per_event", p.ns, "ns")
	l.set("session.overhead_ns_per_event", p.ns-beneath, "ns")
	l.rows = append(l.rows, row{"session.push", p.ns, p.ns - beneath, p.allocs, true})

	var obs *observer
	var emitting, quiet []time.Duration
	ps, err := l.run("session.sink", func() (func(int) error, error) {
		obs = newObserver(l.in)
		emitting, quiet = emitting[:0], quiet[:0]
		sess, err := session(func(qi int, r *cogra.Result) { obs.see(0, qi, r, time.Time{}) })
		if err != nil {
			return nil, err
		}
		return func(root int) error {
			defer sess.Close()
			return l.spans(root, "cogra.Session.PushBatch+Sink.Emit", len(l.batches), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, b := range l.batches[lo:hi] {
					before, t0 := obs.total, time.Now()
					if err := l.push(sess, b); err != nil {
						return err
					}
					if d := time.Since(t0); obs.total > before {
						emitting = append(emitting, d)
					} else {
						quiet = append(quiet, d)
					}
				}
				return nil
			})
		}, nil
	})
	if err != nil {
		return 0, err
	}
	if len(emitting) == 0 {
		return 0, fmt.Errorf("rung session.sink: no call made a result available")
	}
	if len(quiet) == 0 {
		// Every call closes a window (batches longer than the windows):
		// there is no quiet call to compare with, so nothing is in excess.
		quiet = emitting
	}
	quietP50 := quantile(sortedCopy(quiet), 0.5)
	var excess, total time.Duration
	for _, d := range emitting {
		excess += max(0, d-quietP50)
		total += d
	}
	for _, d := range quiet {
		total += d
	}
	l.set("session.sink_ns_per_result", (ps.ns-p.ns)*float64(l.n)/float64(obs.total), "ns")
	l.set("session.emit_batch_us_p50", micros(quantile(sortedCopy(emitting), 0.5)), "us")
	l.set("session.quiet_batch_us_p50", micros(quietP50), "us")
	l.set("session.emit_excess_share", 100*float64(excess)/float64(total), "%")
	l.set("session.results_total", float64(obs.total), "count")
	l.rows = append(l.rows, row{"session.sink", ps.ns, ps.ns - p.ns, ps.allocs, l.wl.kind == embedded})
	return p.ns, nil
}

func (l *ladder) rungExecutor(batchNS float64) error {
	p, err := l.run("stream.executor", func() (func(int) error, error) {
		cat, plans, err := l.compile()
		if err != nil {
			return nil, err
		}
		mx := stream.NewMultiExecutorOn(cat, 2, l.engineOpts()...)
		for _, plan := range plans {
			if _, err := mx.SubscribePlan(plan); err != nil {
				mx.Close()
				return nil, err
			}
		}
		return func(root int) error {
			err := l.spans(root, "stream.MultiExecutor.ProcessBatch", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				for ; lo < hi; lo += l.wl.batch {
					if err := mx.ProcessBatch(l.sorted[lo:min(lo+l.wl.batch, hi)]); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				id := l.tr.begin("stream.MultiExecutor.Sync", root)
				err = mx.Sync()
				l.tr.end(id, 0)
			}
			if _, cerr := mx.Close(); err == nil {
				err = cerr
			}
			return err
		}, nil
	})
	l.set("stream.executor_ns_per_event", p.ns-batchNS, "ns")
	l.set("stream.executor_cores_used", p.cores, "cores")
	l.rows = append(l.rows, row{"stream.executor (2 workers)", p.ns, p.ns - batchNS, p.allocs, l.wl.workers > 1})
	return err
}

// rungSnap checkpoints and restores the workload's real session
// configuration, warmed with half the prefix.
func (l *ladder) rungSnap() error {
	sess := cogra.NewSession(l.wl.options(false)...)
	defer sess.Close()
	for _, q := range l.in.queries {
		if _, err := sess.Subscribe(q); err != nil {
			return err
		}
	}
	for _, b := range l.batches[:len(l.batches)/2] {
		if err := l.push(sess, b); err != nil {
			return err
		}
	}
	root := l.tr.begin("snap", 0)
	defer func() { l.tr.end(root, 0) }()
	var buf bytes.Buffer
	snaps, restores := make([]time.Duration, snapReps), make([]time.Duration, snapReps)
	for i := range snaps {
		buf.Reset()
		id, t0 := l.tr.begin("cogra.Session.Snapshot", root), time.Now()
		err := sess.Snapshot(&buf)
		snaps[i] = time.Since(t0)
		l.tr.end(id, 0)
		if err != nil {
			return err
		}
		id, t0 = l.tr.begin("cogra.Restore", root), time.Now()
		restored, err := cogra.Restore(bytes.NewReader(buf.Bytes()))
		restores[i] = time.Since(t0)
		l.tr.end(id, 0)
		if err != nil {
			return err
		}
		restored.Close()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l.set("snap.snapshot_ms_p50", ms(quantile(sortedCopy(snaps), 0.5)), "ms")
	l.set("snap.restore_ms_p50", ms(quantile(sortedCopy(restores), 0.5)), "ms")
	l.set("snap.frame_bytes", float64(buf.Len()), "B")
	return nil
}

// rungServer prices the serving layer three ways over one tenant:
// Server.Ingest in process (the shard hop), a pipelined IngestConn on
// loopback, and the JSON ingest route of Server.Handler on a recorder.
func (l *ladder) rungServer(pushNS float64) error {
	start := func() (*server.Server, error) {
		srv, err := server.New(server.Config{Shards: servedShards, SessionOptions: l.wl.options(true)})
		if err != nil {
			return nil, err
		}
		for _, text := range l.wl.queries {
			if _, werr := srv.Subscribe("t", text, false); werr != nil {
				srv.Drain()
				return nil, werr
			}
		}
		return srv, nil
	}
	onPath := l.wl.kind == served

	p, err := l.run("server.ingest", func() (func(int) error, error) {
		srv, err := start()
		if err != nil {
			return nil, err
		}
		return func(root int) error {
			defer srv.Drain()
			return l.spans(root, "server.Server.Ingest", len(l.batches), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, b := range l.batches[lo:hi] {
					if n, werr := srv.Ingest("t", b); werr != nil || n != len(b) {
						return fmt.Errorf("ingest accepted %d of %d: %v", n, len(b), werr)
					}
				}
				return nil
			})
		}, nil
	})
	if err != nil {
		return err
	}
	l.set("server.shard_hop_ns_per_event", p.ns-pushNS, "ns")
	l.rows = append(l.rows, row{"server.ingest (shard hop)", p.ns, p.ns - pushNS, p.allocs, onPath})

	var rtt []time.Duration
	pt, err := l.run("server.tcp", func() (func(int) error, error) {
		srv, err := start()
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Drain()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.ServeTCP(ln) }()
		conn, err := server.DialIngest(ln.Addr().String())
		if err != nil {
			ln.Close()
			srv.Drain()
			<-served
			return nil, err
		}
		collect := func(want int) error {
			if n, err := conn.Collect(); err != nil || n != want {
				return fmt.Errorf("tcp ingest accepted %d of %d: %v", n, want, err)
			}
			return nil
		}
		return func(root int) error {
			defer func() {
				conn.Close()
				ln.Close()
				srv.Drain()
				<-served
			}()
			err := l.spans(root, "server.IngestConn.PushAsync", len(l.batches), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, b := range l.batches[lo:hi] {
					if err := conn.PushAsync("t", b); err != nil {
						return err
					}
					if err := conn.Flush(); err != nil {
						return err
					}
					if conn.Inflight() >= pipelineDepth {
						if err := collect(len(b)); err != nil {
							return err
						}
					}
				}
				return nil
			})
			for i := len(l.batches) - conn.Inflight(); err == nil && conn.Inflight() > 0; i++ {
				err = collect(len(l.batches[i]))
			}
			if err != nil {
				return err
			}
			// Round trip of a frame that costs the engine nothing: one
			// event for a tenant without queries, lock step.
			id := l.tr.begin("server.IngestConn.Push", root)
			rtt = rtt[:0]
			for i := 0; i < rttReps && err == nil; i++ {
				e := cogra.NewEvent("ping", int64(i))
				e.ID = int64(i + 1)
				t0 := time.Now()
				_, err = conn.Push("rtt", []*cogra.Event{e})
				rtt = append(rtt, time.Since(t0))
			}
			l.tr.end(id, 0)
			return err
		}, nil
	})
	if err != nil {
		return err
	}
	l.set("server.tcp_ns_per_event", pt.ns-p.ns, "ns")
	l.set("server.ack_rtt_us_p50", micros(quantile(sortedCopy(rtt), 0.5)), "us")
	l.rows = append(l.rows, row{"server.tcp (loopback, pipelined)", pt.ns, pt.ns - p.ns, pt.allocs, onPath})

	ph, err := l.run("server.http", func() (func(int) error, error) {
		srv, err := start()
		if err != nil {
			return nil, err
		}
		handler := srv.Handler()
		return func(root int) error {
			defer srv.Drain()
			return l.spans(root, "server.Server.Handler POST events", len(l.bodies), l.callsPerSpan(), l.wl.batch, func(lo, hi int) error {
				for _, body := range l.bodies[lo:hi] {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/t/events", bytes.NewReader(body)))
					if rec.Code != 200 {
						return fmt.Errorf("http ingest: status %d: %s", rec.Code, rec.Body)
					}
				}
				return nil
			})
		}, nil
	})
	if err != nil {
		return err
	}
	l.set("server.json_ns_per_event", ph.ns-p.ns, "ns")
	l.rows = append(l.rows, row{"server.http (JSON route, recorder)", ph.ns, ph.ns - p.ns, ph.allocs, onPath})
	return nil
}

// small prices what has no rung of its own: plan compilation,
// subscription, and the window manager under a trivial state.
func (l *ladder) small() error {
	const reps = 20
	compile, subscribe := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, _, err := l.compile(); err != nil {
			return err
		}
		compile = min(compile, time.Since(t0))
		sess := cogra.NewSession(l.wl.options(true)...)
		t0 = time.Now()
		for _, q := range l.in.queries {
			if _, err := sess.Subscribe(q); err != nil {
				return err
			}
		}
		subscribe = min(subscribe, time.Since(t0))
		sess.Close()
	}
	nq := float64(len(l.in.queries))
	l.set("core.compile_us_per_query", micros(compile)/nq, "us")
	l.set("session.subscribe_us_per_query", micros(subscribe)/nq, "us")

	spec := l.in.queries[0].Window
	var states int64
	for _, e := range l.sorted {
		first, last := spec.WindowsOf(e.Time)
		states += last - first + 1
	}
	l.set("window.states_per_event", float64(states)/float64(l.n), "count")
	p, err := l.run("window.manager", func() (func(int) error, error) {
		mgr := window.NewManager(spec, func(wid int64) int64 { return wid })
		var scratch []int64
		return func(root int) error {
			last := int64(-1)
			return l.spans(root, "window.Manager.AppendStatesFor", l.n, l.eventsPerSpan(), 1, func(lo, hi int) error {
				for _, e := range l.sorted[lo:hi] {
					if e.Time != last {
						mgr.AdvanceTo(e.Time)
						last = e.Time
					}
					scratch = mgr.AppendStatesFor(scratch[:0], e.Time)
				}
				return nil
			})
		}, nil
	})
	l.set("window.manager_ns_per_event", p.ns, "ns")
	return err
}

// traced is the traced run; it reports every per-layer metric.
func traced(wl *workload, seed uint64, seconds float64, outDir string, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	in, err := generate(wl, seed, wl.lapEvents)
	if err != nil {
		return res, err
	}
	tr := &tracer{t0: time.Now()}
	l, err := newLadder(in, tr)
	if err != nil {
		return res, err
	}
	l.set("gen.build_s", in.buildS, "s")
	l.set("gen.input_bytes_per_event", float64(in.bytes)/float64(in.nEvents), "B/event")

	// A warm-up lap, then overheadPairs pairs of laps: one as the
	// end-to-end run makes it and one with a span around every group of
	// ingest calls. The difference between the fastest of either kind is
	// what tracing costs; single laps differ by more than that.
	var t tally
	if err := t.lapChecked(in, lapOpts{}); err != nil {
		return res, err
	}
	warm := t.info
	perSpan := max(1, in.batches()/spansPerPass)
	var m0, m1 runtime.MemStats
	var plain, withSpans time.Duration
	for pair := 0; pair < overheadPairs; pair++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := t.lapChecked(in, lapOpts{}); err != nil {
			return res, err
		}
		if d := time.Since(t0); pair == 0 || d < plain {
			plain = d
		}
		runtime.ReadMemStats(&m1)

		tr.muted = pair > 0
		runtime.GC()
		root := tr.begin("lap", 0)
		group, calls, events := 0, 0, 0
		t0 = time.Now()
		err := t.lapChecked(in, lapOpts{onCall: func(n int) {
			if calls == 0 {
				group = tr.begin("ingest calls", root)
			}
			calls, events = calls+1, events+n
			if calls == perSpan {
				tr.end(group, events)
				calls, events = 0, 0
			}
		}})
		if d := time.Since(t0); pair == 0 || d < withSpans {
			withSpans = d
		}
		if calls > 0 {
			tr.end(group, events)
		}
		tr.end(root, in.nEvents)
		tr.muted = false
		if err != nil {
			return res, err
		}
	}
	lapNS := float64(plain) / float64(in.nEvents)
	l.set("trace.lap_ns_per_event", lapNS, "ns")
	l.set("trace.overhead_share", 100*(withSpans.Seconds()-plain.Seconds())/plain.Seconds(), "%")
	l.set("go.gc_cycles_per_mevent", float64(m1.NumGC-m0.NumGC)/float64(in.nEvents)*1e6, "count")
	l.set("go.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	l.set("core.intern_bytes", float64(warm.internBytes), "B")
	l.set("runtime.shared_saved_ops", float64(warm.savedOps), "count")
	l.set("runtime.share_flips", float64(warm.shareFlips), "count")

	// The open loop: per-result latency at the workload's frozen rate,
	// its tail, and the health of the generator.
	obs, pace, err := openLoop(in, openShare*seconds, &t)
	if err != nil {
		return res, err
	}
	lat, lag := sortedCopy(obs.lat), sortedCopy(pace.lag)
	fmt.Fprintf(w, "open loop  %d batches at %.0f events/s, %d results, p50 %.1f µs over all of them; generator late by p50 %.1f µs, p99 %.1f µs\n",
		pace.n, wl.rate, len(lat), micros(quantile(lat, 0.5)), micros(quantile(lag, 0.5)), micros(quantile(lag, 0.99)))
	l.set("session.emit_latency_p50_us", micros(calmP50(obs.lat)), "us")
	l.set("session.emit_latency_p99_us", micros(quantile(lat, 0.99)), "us")
	l.set("session.emit_latency_max_us", micros(lat[len(lat)-1]), "us")
	l.set("session.sched_lag_us_p99", micros(quantile(lag, 0.99)), "us")
	l.set("session.backlog_max_batches", float64(lag[len(lag)-1]/pace.period), "count")

	reorderNS, err := l.rungReorder()
	if err != nil {
		return res, err
	}
	if err := l.rungDecode(); err != nil {
		return res, err
	}
	resolveNS, err := l.rungResolve()
	if err != nil {
		return res, err
	}
	engineRunNS, err := l.rungEngine(resolveNS)
	if err != nil {
		return res, err
	}
	batchNS, err := l.rungRuntime(engineRunNS)
	if err != nil {
		return res, err
	}
	pushNS, err := l.rungSession(batchNS, reorderNS)
	if err != nil {
		return res, err
	}
	if err := l.rungExecutor(batchNS); err != nil {
		return res, err
	}
	if err := l.rungSnap(); err != nil {
		return res, err
	}
	if err := l.rungServer(pushNS); err != nil {
		return res, err
	}
	if err := l.small(); err != nil {
		return res, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return res, err
	}
	l.set("go.peak_rss_bytes", float64(ru.Maxrss)*1024, "B")

	fmt.Fprintf(w, "\nwhere a microsecond goes: %s, %d-event prefix of seed %d (lap: %.0f ns/event end to end)\n", wl.name, l.n, seed, lapNS)
	fmt.Fprintf(w, "%-42s %12s %12s %8s %13s  %s\n", "layer", "rung ns/ev", "self ns/ev", "share", "allocs/event", "on the lap's path")
	for _, r := range l.rows {
		path := "no"
		if r.onPath {
			path = "yes"
		}
		fmt.Fprintf(w, "%-42s %12.1f %12.1f %7.1f%% %13.3f  %s\n", r.layer, r.rung, r.self, 100*r.self/lapNS, r.allocs, path)
	}
	fmt.Fprintln(w)

	fails := vacuity(in, warm)
	switch excess := l.m["session.emit_excess_share"].Value; {
	case wl.name == "steady_fleet" && excess < 30:
		fails = append(fails, fmt.Sprintf("emitting calls cost %.1f%% of push time beyond quiet ones; window close should cost at least 30%%", excess))
	case wl.name == "burst_kernel" && excess > 5:
		fails = append(fails, fmt.Sprintf("emitting calls cost %.1f%% of push time beyond quiet ones; window close should cost at most 5%%", excess))
	}
	for _, f := range fails {
		fmt.Fprintln(w, "GUARD FAILED:", f)
	}
	t.failed += int64(len(fails))

	if err := writeSpans(filepath.Join(outDir, "trace-"+wl.name+".json"), wl, seed, tr); err != nil {
		return res, err
	}
	for _, pm := range perLayer {
		m, ok := l.m[pm.name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
		res.Metrics[pm.name] = m
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	return res, nil
}

func writeSpans(path string, wl *workload, seed uint64, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"workload\": %q, \"seed\": %d, \"unit\": \"ns since the trace began\", \"spans\": [\n", wl.name, seed)
	for i, s := range tr.spans {
		line, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(line)
		if i < len(tr.spans)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
