// Package stream provides the stream-processing substrate of §8
// ("Parallel Processing"): bounded-disorder repair in front of the
// watermark (Reorderer) and a partition-parallel executor that runs
// one COGRA engine per sub-stream (simultaneous events reach it as
// Runtime.ProcessBatch's equal-time groups), since equivalence
// predicates and the GROUP-BY clause partition the stream into
// sub-streams that are processed independently.
package stream

import (
	"fmt"
	"sync"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// routeBatchSize is how many events the router accumulates per worker
// before handing the batch over; it amortises channel synchronisation
// over bursts while keeping per-worker latency bounded.
const routeBatchSize = 256

// MultiExecutor exploits the stream partitioning of §7/§8 for a whole
// set of queries at once: every worker goroutine hosts one shared
// multi-query runtime (internal/runtime) executing the fleet, and
// events are routed by hashing the partition attributes the hosted
// plans have in common. Because the routing attributes are a subset of
// every plan's partition key, all events of any plan's sub-stream land
// on the same worker in order — no cross-worker coordination is
// needed, and each hosted engine sees exactly the sub-streams a solo
// run would. Per-query results are merged from the workers' ordered
// drains (mergeResults).
//
// The query population is dynamic. SubscribePlan and Sub.Unsubscribe
// may be called at any stream position; a membership change parks its
// workers with a sync sent over the same channels as the events
// (ordered after every event routed so far) and applies the change in
// place, so all workers apply it at one consistent stream prefix. A
// mid-stream subscriber is aligned to the executor's watermark and
// reports results from the first fully covered window.
//
// Routing attributes are recomputed freely while no event has been
// routed. Once the stream is running the routing function is frozen
// (worker state depends on it); a late plan whose partition keys still
// cover the routing attributes joins every partition worker, and a
// late plan that breaks worker-locality (its key set does not cover
// the routing attributes) joins the fallback worker (the executor
// group Stats counts): one lazily started extra worker that receives
// every event in order and hosts every locality-breaking subscriber.
// The fallback preserves correctness for everyone at the cost of
// streaming each event twice, once to its partition worker and once to
// the fallback. The fallback retires with its last subscriber, at the
// next membership change or Sync barrier, so a shrunk fleet stops
// paying duplicate event delivery.
//
// Routing degenerates to a single worker when the hosted plans share
// no partition attribute (some plan has an unpartitioned stream, or
// the intersection is empty): the stream then has sub-streams that
// only a single in-order pass preserves for every plan.
//
// The routing hot path is allocation-free: the routing key is appended
// into a reused buffer, hashed with an inlined FNV-1a loop, and events
// travel in pooled batches instead of one channel send per event.
//
// One worker is the in-thread case — the inline session. It is the
// same worker running the same runtime and the same control plane, but
// on the caller's goroutine, so it is always parked: there is nothing
// to route to, so no routing attributes are computed, no event is
// skipped or re-batched (the caller's slice is the worker's batch), no
// fallback worker is ever needed, and a subscription's callback is
// installed in its engine, so results stream inside the ProcessBatch
// that closes their window.
//
// Every worker runtime owns its own sharing groups (internal/runtime).
//
// The control plane rests on one rule: a worker that has replied and
// been sent nothing since is parked, and stands at the executor's
// watermark. Its reply — a receive on its own reply channel — orders
// everything the worker wrote before everything the caller reads next,
// and the caller's next send orders the caller's writes before the
// worker's next reads. So membership changes, drains and statistics
// first park the workers they touch (see park) and then act on those
// workers' runtimes in place, on the caller's goroutine; a worker
// already parked costs nothing. A drain thus holds exactly what the
// inline session's drain holds at the same stream position. The
// executor is driven from one goroutine at a time (the session's
// lock), so each worker needs only the one reply channel.
type MultiExecutor struct {
	cat        *core.Catalog
	engOpts    []core.Option // applied to every hosted engine (e.g. intern eviction)
	inThread   bool          // one worker, run on the caller's goroutine
	routeAttrs []string
	workers    []*mworker
	// fallback is the full-stream worker hosting the locality-breaking
	// subscribers (nil while none runs), fallbackPend its batch under
	// construction; it retires at a membership change or Sync barrier
	// once its last subscriber left.
	fallback     *mworker
	fallbackPend *[]*event.Event
	pending      []*[]*event.Event // per-worker batch under construction
	keyBuf       []byte
	// pool is allocated apart from the executor: a sync.Pool stays
	// registered with the Go runtime for up to two GC cycles after its
	// last use, and an embedded one would keep a closed executor — its
	// engines, plans and results — alive with it.
	pool        *sync.Pool
	subs        []*Sub // every subscription ever, indexed by id
	seq         int64
	lastTime    int64
	sawEvent    bool
	skipped     int64
	retiredPeak int64 // summed peaks of retired fallback workers
	// retiredFlips and retiredSaved keep the sharing counters of retired
	// fallback workers, mirroring retiredPeak.
	retiredFlips int64
	retiredSaved int64
	closed       bool
}

// Sub is one query hosted by a MultiExecutor: the executor-level
// subscription handle, spanning the per-worker runtime subscriptions.
type Sub struct {
	m      *MultiExecutor
	id     int
	plan   *core.Plan
	cb     func(core.Result)
	active bool
	hosts  []*mworker
	wsubs  []*runtime.Subscription // parallel to hosts
	parts  [][]core.Result         // the hosts' results on their way to deliver
	heads  []int                   // mergeResults' cursors, kept like parts
}

// ID returns the subscription's id: 0-based, in subscribe order.
func (s *Sub) ID() int { return s.id }

// Plan returns the hosted plan.
func (s *Sub) Plan() *core.Plan { return s.plan }

// Active reports whether the subscription still receives events.
func (s *Sub) Active() bool { return s.active }

// Unsubscribe detaches the query at the current stream position: every
// hosting worker flushes its remaining open windows, the merged
// results are returned (or delivered to the subscription's callback),
// and the query's engines and binding intern memory are released.
func (s *Sub) Unsubscribe() ([]core.Result, error) { return s.m.unsubscribe(s) }

// Drain returns the results whose windows have closed since the last
// Drain, merged across workers and ordered by window then group, and
// clears them from the workers (delivered to the callback instead when
// one is installed). Drain is a barrier: each hosting worker is parked
// at the executor's watermark (see the MultiExecutor comment) and its
// buffered results are taken in place, so a drain returns what the
// inline drain returns at the same stream position, and a second Drain
// there costs no round trip.
func (s *Sub) Drain() ([]core.Result, error) { return s.m.drain(s) }

type mworker struct {
	// in carries event batches; a nil batch is a sync, which the worker
	// answers on reply. in is nil for the in-thread worker: it is always
	// parked, and stop acts on the caller's goroutine.
	in    chan *[]*event.Event
	reply chan struct{}
	done  chan struct{}
	// sent counts the messages sent on in, acked what sent read at the
	// worker's last reply: while they are equal the worker is parked.
	sent, acked int64
	pool        *sync.Pool
	rt          *runtime.Runtime
	engOpts     []core.Option
	// acct is shared by every query the worker hosts (they run on one
	// goroutine), so the worker peak is a true simultaneous footprint.
	acct    metrics.Accountant
	results [][]core.Result
	err     error
}

// NewMultiExecutorOn starts an EMPTY executor with n workers (n >= 1)
// over an existing catalog — the execution core behind the public
// Session API, where the query population is entirely dynamic. n <= 1
// builds the in-thread worker (see the type comment). The worker count
// is kept as requested even while the (changing) fleet shares no
// routing attribute: routing then sends every event to worker 0 and
// the others idle, so a membership change arriving before the first
// event can still spread the stream over all n. (Once an event has
// flowed the routing function is frozen — see the type comment — so a
// collapsed stream stays on worker 0 for its lifetime.)
//
// engOpts are applied to every engine the executor's workers create
// (each worker adds its own accountant after them), so session-wide
// engine policies like core.WithInternEviction reach every worker.
func NewMultiExecutorOn(cat *core.Catalog, n int, engOpts ...core.Option) *MultiExecutor {
	m := &MultiExecutor{cat: cat, engOpts: engOpts}
	m.start(max(n, 1))
	return m
}

// start builds the n partition workers of an executor that has its
// catalog and engine options — the tail of construction, shared with
// snapshot restore, which learns n from the frame.
func (m *MultiExecutor) start(n int) {
	m.inThread = n == 1
	if !m.inThread {
		m.pool = &sync.Pool{New: func() any {
			b := make([]*event.Event, 0, routeBatchSize)
			return &b
		}}
	}
	m.pending = make([]*[]*event.Event, n)
	for i := 0; i < n; i++ {
		m.workers = append(m.workers, m.newWorker())
	}
}

// newWorker builds one worker and, unless the executor runs in-thread,
// starts its goroutine.
func (m *MultiExecutor) newWorker() *mworker {
	w := &mworker{pool: m.pool, rt: runtime.NewOn(m.cat), engOpts: m.engOpts}
	if !m.inThread {
		w.start()
	}
	return w
}

// start moves the worker onto its own goroutine; the go statement
// publishes everything installed on it so far.
func (w *mworker) start() {
	// 16 batches in flight let the router run ahead of a worker busy
	// closing windows without growing the backlog past ~4K events.
	w.in = make(chan *[]*event.Event, 16)
	w.reply = make(chan struct{}, 1)
	w.done = make(chan struct{})
	go w.run()
}

// send hands the worker one message: a batch, or a sync (nil).
func (w *mworker) send(batch *[]*event.Event) {
	w.in <- batch
	w.sent++
}

// park brings every worker in ws to rest after everything sent to it
// so far — one sync to each worker that received anything since its
// last reply, all sends first, so the workers catch up side by side,
// then all receives — and advances each runtime to the executor's
// watermark. Afterwards their state is the caller's to read and write
// until the next send. A worker already parked there costs nothing.
func (m *MultiExecutor) park(ws []*mworker) {
	for _, w := range ws {
		if w.sent != w.acked {
			w.send(nil)
		}
	}
	for _, w := range ws {
		if w.sent != w.acked {
			w.await()
		}
		if m.sawEvent && w.err == nil {
			w.err = w.rt.AdvanceTo(m.lastTime)
		}
	}
}

// await takes the worker's reply to the sync sent last: the worker is
// parked from here on.
func (w *mworker) await() {
	<-w.reply
	w.acked = w.sent
}

// stop ends the worker's input: it flushes its open windows — on its
// own goroutine, side by side with the other workers; join waits.
func (w *mworker) stop() {
	if w.in == nil {
		w.finish()
		return
	}
	close(w.in)
}

// join waits until a stopped worker has flushed and exited.
func (w *mworker) join() {
	if w.in != nil {
		<-w.done
	}
}

// hostOpts returns the engine options of every engine the worker's
// runtime builds: the executor-wide policies plus the worker's
// accountant.
func (w *mworker) hostOpts() []core.Option {
	opts := make([]core.Option, 0, len(w.engOpts)+2) // room for a subscriber's callback
	return append(append(opts, w.engOpts...), core.WithAccountant(&w.acct))
}

// shutdown stops every worker and waits; used when a restore fails
// before any event flowed.
func (m *MultiExecutor) shutdown() {
	m.closed = true
	for _, w := range m.allWorkers() {
		w.stop()
	}
	for _, w := range m.allWorkers() {
		w.join()
	}
}

// allWorkers returns the partition workers plus the fallback worker.
func (m *MultiExecutor) allWorkers() []*mworker {
	if m.fallback == nil {
		return m.workers
	}
	return append(append([]*mworker(nil), m.workers...), m.fallback)
}

// activePlans returns the plans of the active subscriptions.
func (m *MultiExecutor) activePlans() []*core.Plan {
	var out []*core.Plan
	for _, s := range m.subs {
		if s.active {
			out = append(out, s.plan)
		}
	}
	return out
}

// SubscribeOpt configures one executor-level subscription.
type SubscribeOpt func(*subOpts)

type subOpts struct {
	strict bool
	cb     func(core.Result)
}

// WithCallback delivers the subscription's results to fn instead of
// returning them from Unsubscribe, Drain and Close: merged and
// re-ordered at those calls when worker goroutines produce them, or
// straight from the engine, as each window closes, when the executor
// runs in-thread.
func WithCallback(fn func(core.Result)) SubscribeOpt {
	return func(o *subOpts) { o.cb = fn }
}

// StrictRouting rejects the subscription with ErrFrozenRouting instead
// of hosting it on the fallback worker when the routing is frozen and
// the plan's partition keys do not cover the routing attributes. The
// fallback preserves correctness but streams every event to the
// fallback worker in addition to its partition worker; strict callers
// prefer the explicit error.
func StrictRouting() SubscribeOpt {
	return func(o *subOpts) { o.strict = true }
}

// SubscribePlan hosts an additional compiled plan, at any stream
// position. The plan must share the executor's catalog (compile with
// core.NewPlanIn against it). Before the first event the routing
// attributes are recomputed over the new fleet; mid-stream the routing
// is frozen, and the plan either joins every partition worker (its
// partition keys cover the routing attributes — sub-streams stay
// worker-local) or joins the fallback worker, starting it if none runs
// (rejected with ErrFrozenRouting under StrictRouting). The
// subscription takes effect at one consistent stream position on every
// worker: after every event routed so far, before any event routed
// later.
func (m *MultiExecutor) SubscribePlan(plan *core.Plan, opts ...SubscribeOpt) (*Sub, error) {
	if m.closed {
		return nil, fmt.Errorf("stream: Subscribe after Close: %w", core.ErrClosed)
	}
	if plan.Catalog() != m.cat {
		return nil, fmt.Errorf("stream: plan compiled against a different catalog (use core.NewPlanIn with the executor's catalog): %w", core.ErrNotHosted)
	}
	var o subOpts
	for _, opt := range opts {
		opt(&o)
	}
	var hosts []*mworker
	switch {
	case !m.sawEvent:
		m.reroute(plan)
		hosts = m.workers
	case attrsCovered(m.routeAttrs, plan.StreamKeys):
		hosts = m.workers
	default:
		if o.strict {
			return nil, fmt.Errorf("stream: partition keys %v do not cover the frozen routing attributes %v: %w",
				plan.StreamKeys, m.routeAttrs, core.ErrFrozenRouting)
		}
		if m.fallback == nil {
			m.fallback = m.newWorker()
		}
		hosts = []*mworker{m.fallback}
	}
	m.flushPending()
	m.park(hosts)
	sub := &Sub{m: m, id: len(m.subs), plan: plan, cb: o.cb, active: true, hosts: hosts}
	for _, w := range hosts {
		wsub, err := w.subscribe(plan, o.cb)
		if err != nil {
			// Roll back the workers that already subscribed.
			for _, prev := range sub.wsubs {
				prev.Unsubscribe()
			}
			return nil, err
		}
		sub.wsubs = append(sub.wsubs, wsub)
	}
	m.subs = append(m.subs, sub)
	return sub, nil
}

// subscribe hosts plan on the parked worker's runtime, aligned to its
// watermark — the executor's, once events have flowed. A worker in
// error state refuses: the stream is already broken and Close will
// surface the error.
func (w *mworker) subscribe(plan *core.Plan, cb func(core.Result)) (*runtime.Subscription, error) {
	if w.err != nil {
		return nil, w.err
	}
	opts := w.hostOpts()
	if cb != nil && w.in == nil {
		// In-thread engines run on the caller's goroutine, so they stream
		// straight into the callback; a worker goroutine's results wait
		// for the executor to gather them.
		opts = append(opts, core.WithResultCallback(cb))
	}
	return w.rt.SubscribePlan(plan, opts...)
}

// reroute recomputes the routing attributes over the active fleet plus
// a joining plan (nil: none) — legal only while no event has been
// routed; an empty fleet keeps what it had. The in-thread executor has
// nowhere to route to: its attributes stay empty, so it never skips an
// event for lacking one.
func (m *MultiExecutor) reroute(joining *core.Plan) {
	if m.inThread {
		return
	}
	plans := m.activePlans()
	if joining != nil {
		plans = append(plans, joining)
	}
	if len(plans) > 0 {
		m.routeAttrs = sharedRouteAttrs(plans)
	}
}

// attrsCovered reports whether every routing attribute appears in the
// plan's partition keys — the condition under which the frozen routing
// function keeps the plan's sub-streams worker-local.
func attrsCovered(route, keys []string) bool {
	for _, attr := range route {
		found := false
		for _, k := range keys {
			if k == attr {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// unsubscribe implements Sub.Unsubscribe.
func (m *MultiExecutor) unsubscribe(sub *Sub) ([]core.Result, error) {
	if m.closed {
		return nil, fmt.Errorf("stream: Unsubscribe after Close: %w", core.ErrClosed)
	}
	if !sub.active {
		return nil, fmt.Errorf("stream: query %d already unsubscribed: %w", sub.id, core.ErrNotHosted)
	}
	sub.active = false
	m.flushPending()
	m.park(sub.hosts)
	parts := sub.parts[:0]
	var firstErr error
	for i, w := range sub.hosts {
		// A worker in error state refuses, as subscribe does.
		err := w.err
		var results []core.Result
		if err == nil {
			results, err = sub.wsubs[i].Unsubscribe()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		parts = append(parts, results)
	}
	if !m.sawEvent {
		// No event routed yet: the routing attributes may re-expand now
		// that the intersection spans fewer plans.
		m.reroute(nil)
	}
	if err := m.retireIdleFallback(); err != nil && firstErr == nil {
		firstErr = err
	}
	// Even on a partial failure the healthy workers' engines have been
	// flushed and released; return what they reported alongside the
	// error rather than destroying it.
	return sub.deliver(parts, nil), firstErr
}

// deliver merges one subscription's per-host results — handed over for
// good — into the order a single engine emits them and hands them to the
// callback when one is installed, else back to the caller. A lone list
// is delivered as is. Lists the merge copied out of go back to the
// hosts' subscriptions in back (parallel to parts; nil when the hosts
// are not parked or not staying) to collect the next results. parts'
// own storage is kept for the next gather.
func (s *Sub) deliver(parts [][]core.Result, back []*runtime.Subscription) []core.Result {
	if len(parts) > 1 && len(s.heads) < len(parts) {
		s.heads = make([]int, len(parts)) // a lone host never merges
	}
	merged, copied := mergeResults(parts, s.heads)
	if copied && back != nil {
		for i, p := range parts {
			back[i].Recycle(p)
		}
	}
	clear(parts)
	s.parts = parts[:0]
	if s.cb == nil {
		return merged
	}
	for _, r := range merged {
		s.cb(r)
	}
	return nil
}

// retireIdleFallback shuts the fallback worker down once no active
// subscription is left on it — run at membership changes and Sync
// barriers — so a long-lived stream stops paying the duplicate event
// delivery after its last subscriber leaves. A later locality-breaking
// subscribe starts a fresh fallback, which the park before its first
// subscriber advances to the watermark. The caller must have flushed
// pending batches (any partial fallback batch was handed over).
func (m *MultiExecutor) retireIdleFallback() error {
	fb := m.fallback
	if fb == nil {
		return nil
	}
	for _, s := range m.subs {
		if s.active && s.hosts[0] == fb {
			return nil
		}
	}
	m.fallback = nil
	fb.stop()
	fb.join()
	// Peak memory is a high-water mark over the whole run: keep the
	// retired worker's contribution so the reported fleet peak stays
	// monotone. The sharing counters are lifetime totals too.
	m.retiredPeak += fb.acct.Peak()
	rs := fb.rt.Stats()
	m.retiredFlips += rs.ShareFlips
	m.retiredSaved += rs.SharedSavedOps
	return fb.err
}

// drain implements Sub.Drain.
func (m *MultiExecutor) drain(sub *Sub) ([]core.Result, error) {
	if m.closed {
		return nil, fmt.Errorf("stream: Drain after Close: %w", core.ErrClosed)
	}
	if !sub.active {
		return nil, fmt.Errorf("stream: query %d already unsubscribed: %w", sub.id, core.ErrNotHosted)
	}
	// Drained results are destructively taken from the worker engines;
	// hand them over even when one worker reported an error.
	parts, err := m.drainHosts(sub)
	return sub.deliver(parts, sub.wsubs), err
}

// drainHosts parks sub's hosts at the executor's watermark and takes
// each one's closed results, in host order (nil for a worker in error
// state), and leaves the hosts parked.
func (m *MultiExecutor) drainHosts(sub *Sub) ([][]core.Result, error) {
	m.flushPending()
	m.park(sub.hosts)
	parts := sub.parts[:0]
	var firstErr error
	for i, w := range sub.hosts {
		if w.err != nil {
			if firstErr == nil {
				firstErr = w.err
			}
			parts = append(parts, nil)
			continue
		}
		parts = append(parts, sub.wsubs[i].Drain())
	}
	return parts, firstErr
}

// Stats is the executor's aggregate hosted state, gathered from every
// worker at the current stream position.
type Stats struct {
	// Queries is the number of active subscriptions; Workers counts the
	// running workers (including the fallback worker); Groups is 1
	// while the fallback worker runs, else 0.
	Queries int
	Workers int
	Groups  int
	// Events is the number of events routed; Skipped counts events that
	// lacked a routing attribute (not delivered to partition workers).
	Events  int64
	Skipped int64
	// InternedTypes/InternedAttrs are the catalog id-space sizes.
	InternedTypes int
	InternedAttrs int
	// RoutingAttrs are the partition attributes events are routed by;
	// empty means every event goes to worker 0 (no shared attribute).
	RoutingAttrs []string
	// BindingInternBytes sums the live binding intern tables across all
	// workers' engines; PeakBytes sums the workers' logical peaks.
	BindingInternBytes int64
	PeakBytes          int64
	// SharedGroups counts the groups whose engines serve more than one
	// subscription, summed across workers; ShareFlips and SharedSavedOps
	// sum the workers' handover and saved-operations counters (retired
	// fallback workers keep their lifetime contributions, like
	// PeakBytes).
	SharedGroups   int
	ShareFlips     int64
	SharedSavedOps int64
}

// Stats gathers the executor-wide statistics: each worker reports at
// its current position after receiving everything routed so far.
func (m *MultiExecutor) Stats() (Stats, error) {
	workers := m.allWorkers()
	st := Stats{
		Queries:        len(m.activePlans()),
		Workers:        len(workers),
		Groups:         len(workers) - len(m.workers),
		Events:         m.seq,
		Skipped:        m.skipped,
		InternedTypes:  m.cat.NumTypes(),
		InternedAttrs:  m.cat.NumAttrs(),
		RoutingAttrs:   m.routeAttrs,
		PeakBytes:      m.retiredPeak,
		ShareFlips:     m.retiredFlips,
		SharedSavedOps: m.retiredSaved,
	}
	// After Close the workers have exited (Close waited on them), so
	// their state is safe to read as is; the engines still hold their
	// intern tables, so the footprint stays comparable to a live run.
	// A worker in error state still reports: a caller polling PeakBytes
	// after a failure gets the accumulated peak, not a silent zero.
	if !m.closed {
		m.flushPending()
		m.park(workers)
	}
	for _, w := range workers {
		rs := w.rt.Stats()
		st.BindingInternBytes += rs.BindingInternBytes
		st.PeakBytes += w.acct.Peak()
		st.SharedGroups += rs.SharedGroups
		st.ShareFlips += rs.ShareFlips
		st.SharedSavedOps += rs.SharedSavedOps
	}
	return st, nil
}

// sharedRouteAttrs returns the partition attributes common to every
// plan, in the first plan's declaration order. The routing key is a
// function of every plan's full partition key (the routing attributes
// are a subset of each plan's StreamKeys), so all events of any one
// sub-stream hash identically and stay worker-local; one routing value
// may still fan out into several sub-streams of a plan with extra
// partition attributes, which is harmless.
func sharedRouteAttrs(plans []*core.Plan) []string {
	if len(plans) == 0 {
		return nil
	}
	var out []string
	for _, attr := range plans[0].StreamKeys {
		inAll := true
		for _, plan := range plans[1:] {
			if !attrsCovered([]string{attr}, plan.StreamKeys) {
				inAll = false
				break
			}
		}
		if inAll {
			out = append(out, attr)
		}
	}
	return out
}

func (w *mworker) run() {
	defer close(w.done)
	for batch := range w.in {
		if batch == nil {
			// A sync: reply, and touch nothing until the next message.
			w.reply <- struct{}{}
			continue
		}
		w.process(batch)
	}
	w.finish()
}

// process applies one pooled event batch.
func (w *mworker) process(batch *[]*event.Event) {
	if w.err == nil {
		// The batch is the unit of execution, not just of transport:
		// the runtime chunks it into equal-time, type-partitioned runs
		// for the columnar kernels (Runtime.ProcessBatch). On failure
		// the remaining input is drained without processing.
		w.err = w.rt.ProcessBatch(*batch)
	}
	clear(*batch) // a pooled batch pins no event
	*batch = (*batch)[:0]
	w.pool.Put(batch)
}

// finish flushes every open window once the input has ended.
func (w *mworker) finish() {
	if w.err == nil {
		w.results = w.rt.Close()
	}
}

// fnv1a is the 32-bit FNV-1a hash, inlined so routing does not
// allocate a hasher per event (it matches hash/fnv exactly).
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// ProcessBatch ingests a pre-sorted batch — the one ingest path (a
// single event is a batch of one). Every event goes to its partition's
// worker and additionally to the fallback worker when one runs. Events
// missing a shared routing attribute are counted and skipped for the
// partition workers — such an event lacks part of every routed plan's
// partition key, so no routed engine would admit it to a sub-stream —
// but they still reach the fallback worker, whose queries route on
// nothing. Events travel in pooled batches; control-plane calls and
// Close flush any partial one, and a worker's failure surfaces there.
// The in-thread worker takes the caller's slice as is and reports its
// error at once.
func (p *MultiExecutor) ProcessBatch(events []*event.Event) error {
	if p.closed {
		return fmt.Errorf("stream: Process after Close: %w", core.ErrClosed)
	}
	if p.inThread {
		if n := len(events); n > 0 {
			p.seq += int64(n)
			p.lastTime, p.sawEvent = events[n-1].Time, true
		}
		return p.workers[0].rt.ProcessBatch(events)
	}
	for _, e := range events {
		p.route(e)
	}
	return nil
}

// route sends one event to its partition worker and the fallback.
func (p *MultiExecutor) route(e *event.Event) {
	p.seq++
	if e.ID == 0 {
		// Assign the stream sequence here, before fan-out: two workers
		// may observe the same event concurrently.
		e.ID = p.seq
	}
	if !p.sawEvent || e.Time > p.lastTime {
		p.lastTime = e.Time
	}
	p.sawEvent = true
	routed := true
	wi := 0
	if len(p.routeAttrs) > 0 {
		keyBuf, ok := core.AppendEventKey(p.keyBuf[:0], e, p.routeAttrs)
		p.keyBuf = keyBuf
		if !ok {
			p.skipped++
			routed = false
		} else {
			wi = int(fnv1a(keyBuf) % uint32(len(p.workers)))
		}
	}
	if routed {
		p.append(p.workers[wi], &p.pending[wi], e)
	}
	if p.fallback != nil {
		p.append(p.fallback, &p.fallbackPend, e)
	}
}

// append adds an event to a worker's batch under construction, handing
// the batch over when it is full.
func (p *MultiExecutor) append(w *mworker, slot **[]*event.Event, e *event.Event) {
	batch := *slot
	if batch == nil {
		batch = p.pool.Get().(*[]*event.Event)
		*slot = batch
	}
	*batch = append(*batch, e)
	if len(*batch) >= routeBatchSize {
		w.send(batch)
		*slot = nil
	}
}

// flushPending hands every partial batch to its worker, so a sync
// sent next is ordered after every event routed so far.
func (p *MultiExecutor) flushPending() {
	for i, w := range p.workers {
		if batch := p.pending[i]; batch != nil && len(*batch) > 0 {
			w.send(batch)
			p.pending[i] = nil
		}
	}
	if batch := p.fallbackPend; batch != nil && len(*batch) > 0 {
		p.fallback.send(batch)
		p.fallbackPend = nil
	}
}

// Sync flushes every partial batch to its worker and waits until all
// workers have consumed everything routed so far — a control-plane
// barrier. Session.Snapshot takes it before encoding, so the workers'
// state reflects exactly the pushed prefix (a consistent cut).
// The barrier is also a retirement point: a fallback worker whose last
// subscriber left since the previous barrier is retired here, so a
// shrunk fleet stops paying its duplicate event delivery.
func (p *MultiExecutor) Sync() error {
	if p.closed {
		return fmt.Errorf("stream: Sync after Close: %w", core.ErrClosed)
	}
	p.flushPending()
	if err := p.retireIdleFallback(); err != nil {
		return err
	}
	p.park(p.allWorkers())
	return nil
}

// Close flushes pending batches, drains the workers and returns each
// query's results ordered by window then group, exactly like a single
// engine would emit them — indexed by subscription id. Slots of
// queries with a callback (delivered through it) and of queries that
// already unsubscribed (returned at Unsubscribe time) are nil.
func (p *MultiExecutor) Close() ([][]core.Result, error) {
	if p.closed {
		return nil, fmt.Errorf("stream: double Close: %w", core.ErrClosed)
	}
	p.flushPending()
	p.closed = true
	workers := p.allWorkers()
	for _, w := range workers {
		w.stop()
	}
	for _, w := range workers {
		w.join()
	}
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
	}
	out := make([][]core.Result, len(p.subs))
	for _, sub := range p.subs {
		if !sub.active {
			continue
		}
		sub.active = false
		parts := sub.parts[:0]
		for i, w := range sub.hosts {
			parts = append(parts, w.results[sub.wsubs[i].ID()])
		}
		out[sub.id] = sub.deliver(parts, nil)
	}
	return out, nil
}

// mergeResults merges per-host results into the order a single engine
// emits — core.CompareResults: by window, then group tuple — and coalesces duplicates: when a
// window's partition classes were routed to different workers, each
// worker reports its own partial aggregate for the same (window, group);
// those are disjoint trend sets, folded back into the single result a
// solo engine would have emitted (agg.MergeValues). Each host's results
// are in that order already — an engine emits so, and
// TestWorkerDrainsAreOrdered holds every worker's drain to it — so this
// is a k-way merge of the hosts' heads, with head (one cursor per
// list, len(head) >= len(parts)) as scratch; a lone non-empty list is
// returned as is, uncopied. copied reports whether the result is a
// merge, which leaves the lists free for reuse. parts is not modified.
func mergeResults(parts [][]core.Result, head []int) (out []core.Result, copied bool) {
	total, lists := 0, 0
	var only []core.Result
	for _, p := range parts {
		if len(p) > 0 {
			total, lists, only = total+len(p), lists+1, p
		}
	}
	if lists < 2 {
		return only, false
	}
	head = head[:len(parts)]
	clear(head)
	out = make([]core.Result, 0, total)
	for {
		best := -1
		for i, p := range parts {
			if head[i] < len(p) && (best < 0 || core.CompareResults(p[head[i]], parts[best][head[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out, true
		}
		r := parts[best][head[best]]
		head[best]++
		if n := len(out); n > 0 && core.CompareResults(out[n-1], r) == 0 {
			agg.MergeValues(out[n-1].Values, r.Values)
			continue
		}
		out = append(out, r)
	}
}
