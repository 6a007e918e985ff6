package cogra

// Session is the serving-shaped public API: one long-lived object over
// one live event stream, hosting a dynamic population of queries.
// Queries subscribe and unsubscribe at any stream position — before,
// between, or after events — so the engine behaves like a service a
// fleet of users attaches queries to, not a batch artifact frozen at
// compile time.
//
//	sess := cogra.NewSession()                   // or cogra.WithWorkers(4)
//	sub, _ := sess.Subscribe(q1)                 // before the stream
//	for i, batch := range batches {
//	    if err := sess.PushBatch(batch); err != nil { ... }
//	    for r := range sub.Results() { ... }     // pull what has closed
//	    if i == 7 {
//	        late, _ = sess.Subscribe(q2)         // mid-stream
//	    }
//	}
//	for _, r := range late.Unsubscribe() { ... } // detach, flush windows
//	sess.Close()
//	for r := range sub.Results() { ... }         // remaining windows
//
// Ingest is batch-first: Push and PushBatch are the entry points, a
// single event is a batch of one, and batches flow natively down the
// stack (the multi-query runtime pays its dispatch prologue once per
// batch; the router appends straight into the per-worker batches in
// flight). Sources with bounded disorder are accepted with WithSlack(k): a
// K-slack buffer (stream.Reorderer) re-sorts events in front of the
// watermark, and events later than the slack allows follow the
// session's late policy — counted and dropped (DropLate, default) or
// rejected with ErrLateEvent (RejectLate). With no WithSlack the
// stream must be in non-decreasing time-stamp order, as the paper
// assumes (§2.1).
//
// Egress is push or pull, per subscription: WithSink streams results
// as windows close; otherwise results buffer and Subscription.Results()
// returns a pull-based iterator over what has become available
// (stopping early keeps the rest buffered).
//
// Partial-first-window semantics: a query subscribed mid-stream at
// watermark t (the time stamp of the last event the session saw) may
// have missed events of every window that covers t, so those windows
// are suppressed and the query's results start from the first FULLY
// covered window — the first window whose start lies strictly after
// t. From that window on, its results are byte-identical to a query
// that had been subscribed all along.
//
// Under the hood, subscription compiles the query against the
// session's shared catalog, which interns symbols copy-on-write
// (epochs), so running engines and resolvers are never invalidated by
// mid-stream compilation. Every session runs on one executor
// (stream.MultiExecutor): by default a single worker on the caller's
// own goroutine, and with WithWorkers(n > 1) n partition workers the
// session routes events to, where membership changes travel to every
// worker on the event channels themselves, taking effect at one
// consistent stream position; a late query whose partition keys do
// not cover the frozen routing attributes is hosted on a dedicated
// full-stream fallback worker instead (see MultiExecutor), or
// rejected with ErrFrozenRouting when subscribed with StrictRouting.
//
// Memory is bounded end to end on a long-lived session: WithSlack's
// reorder buffer can be capped (WithMaxReorderDepth, shedding or
// rejecting at the cap), the binding intern tables of hosted engines
// rotate in window-expiry epochs (entries are reclaimed once no open
// window can reference them), and the catalog retires type/attr ids no
// hosted query references anymore (at unsubscribe), so
// subscribe/unsubscribe churn and high-cardinality keys do not grow
// state without bound.
//
// Queries that differ only in what they report — same PATTERN,
// SEMANTICS, WHERE, GROUP BY and WITHIN clause — share one host engine
// computing the union of their RETURN lists, and each query's results
// are projected out of the union at emission (whole-query sharing in
// the direction of the Hamlet report, "To Share, or not to Share" in
// PAPERS.md). Equivalence is a compile-time property and one union
// engine is never more work than one engine per query, so there is no
// runtime decision to make: a later subscriber the host already covers
// attaches from its first full window on, and one that adds an
// aggregate hands the group over to a host over the grown union at that
// window boundary. Results are byte-identical to one engine per query;
// Stats reports the live groups, the handovers and the saved work
// (SharedGroups, ShareFlips, SharedSavedOps).
//
// A Session is single-threaded like the engines it hosts: all methods
// (including Subscribe/Unsubscribe) must be called from the event
// feeding goroutine — except Stats, which may be called from any
// goroutine concurrently with Push/PushBatch (it synchronises with
// ingest internally). Parallelism happens inside, behind WithWorkers.
// Sink callbacks may fire inside Push; session calls from within a
// callback are not allowed — membership changes are rejected with an
// error, and Stats would deadlock — note what should change and apply
// it after Push returns.

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
	"repro/internal/stream"
)

// SessionOption configures a Session.
type SessionOption func(*sessionCfg)

type sessionCfg struct {
	workers  int
	slack    int64
	reorder  bool
	late     LatePolicy
	maxDepth int
	depth    DepthPolicy
}

// WithWorkers runs the session partition-parallel on n workers (n > 1;
// n <= 1 keeps the one worker on the caller's goroutine). Events
// are routed by the partition attributes the subscribed queries share;
// see MultiExecutor for the routing and fallback rules.
func WithWorkers(n int) SessionOption {
	return func(c *sessionCfg) { c.workers = n }
}

// WithSlack accepts bounded-disorder sources: a K-slack buffer in
// front of the watermark re-emits events in (time, ID) order as long
// as no event arrives more than slack time units later than the
// maximum time stamp already seen. Events beyond the slack follow the
// session's late policy (WithLatePolicy). Slack 0 still admits only
// in-order streams but applies the late policy to stragglers instead
// of failing the whole stream. Buffered events are released when the
// watermark passes them, and flushed at Close.
func WithSlack(slack int64) SessionOption {
	if slack < 0 {
		slack = 0
	}
	return func(c *sessionCfg) { c.slack, c.reorder = slack, true }
}

// LatePolicy selects what a session with WithSlack does with an event
// that arrives later than the slack allows.
type LatePolicy int

const (
	// DropLate drops the event and counts it (Stats.LateDropped) — the
	// serving default: one straggling source does not fail the stream.
	DropLate LatePolicy = iota
	// RejectLate makes Push/PushBatch return an error wrapping
	// ErrLateEvent; the event is not ingested and the session remains
	// usable.
	RejectLate
)

// WithLatePolicy sets the late-event policy of a WithSlack session
// (default DropLate). Without WithSlack the policy is moot: any
// out-of-order event fails Push with ErrLateEvent, as in-order input
// is the stream contract.
func WithLatePolicy(p LatePolicy) SessionOption {
	return func(c *sessionCfg) { c.late = p }
}

// DepthPolicy selects what a depth-capped slack buffer
// (WithMaxReorderDepth) does when it is full.
type DepthPolicy = stream.DepthPolicy

const (
	// ShedOldest force-drains the oldest buffered events to make room —
	// the serving default: they are dispatched immediately (early, but
	// in order) and counted in Stats.ReorderShed; later arrivals older
	// than a shed event are dropped as late.
	ShedOldest = stream.ShedOldest
	// Reject makes Push/PushBatch return an error wrapping
	// ErrBackpressure when the buffer is full and the offered event
	// would not release any buffered one; the event is not ingested and
	// the session remains usable.
	Reject = stream.Reject
)

// WithMaxReorderDepth caps the WithSlack reorder buffer at n events
// (n <= 0: unbounded, the default), so one misbehaving source — a
// stalled watermark under a firehose of in-window events — cannot
// balloon it. Overflow follows the session's depth policy
// (WithDepthPolicy, default ShedOldest). Without WithSlack there is
// no buffer and the option has no effect.
func WithMaxReorderDepth(n int) SessionOption {
	return func(c *sessionCfg) { c.maxDepth = n }
}

// WithDepthPolicy sets the overflow policy of a depth-capped slack
// buffer (default ShedOldest).
func WithDepthPolicy(p DepthPolicy) SessionOption {
	return func(c *sessionCfg) { c.depth = p }
}

// Deprecated: every session evicts binding interns; this does nothing.
func WithInternEviction() SessionOption { return func(*sessionCfg) {} }

// Deprecated: every session shares aggregation; this does nothing.
func WithSharedAggregation() SessionOption { return func(*sessionCfg) {} }

// Session hosts a dynamic fleet of queries over one event stream.
type Session struct {
	// mu guards the ingest and stats state so Stats may be called from
	// any goroutine concurrently with Push/PushBatch. Every other
	// method still belongs to the feeding goroutine; they take the lock
	// too, so a misuse fails loudly under -race instead of corrupting
	// state silently.
	mu sync.Mutex
	// dispatching marks that an event is being dispatched (sinks may be
	// running). Only the feeding goroutine reads or writes it: it is
	// the reentrancy guard that rejects membership changes from inside
	// a sink BEFORE they would deadlock on mu.
	dispatching bool

	cfg    sessionCfg // resolved construction options, for Snapshot
	cat    *core.Catalog
	mx     *stream.MultiExecutor // in-thread worker, or workers on goroutines
	ro     *stream.Reorderer     // nil without WithSlack
	roPeak int
	roSeq  int64 // arrival order stamped onto ID-0 events before buffering
	// last/saw are the stream-order guard and the watermark Stats
	// reports: the time stamp of the last event handed to the executor.
	last   int64
	saw    bool
	one    [1]*Event // Push's batch of one
	subs   []*Subscription
	closed bool
	// snapLen is the payload length of the last Snapshot, which the next
	// one reserves up front.
	snapLen int
}

// NewSession returns an empty session over a fresh catalog.
func NewSession(opts ...SessionOption) *Session {
	var cfg sessionCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Session{cfg: cfg, cat: core.NewCatalog(), ro: newReorderer(cfg)}
	s.mx = stream.NewMultiExecutorOn(s.cat, cfg.workers, engineOpts()...)
	return s
}

// newReorderer builds the slack buffer a configuration asks for (nil
// without WithSlack).
func newReorderer(cfg sessionCfg) *stream.Reorderer {
	if !cfg.reorder {
		return nil
	}
	ro := stream.NewReorderer(cfg.slack)
	if cfg.maxDepth > 0 {
		ro.SetMaxDepth(cfg.maxDepth, cfg.depth)
	}
	return ro
}

// engineOpts are the policies every hosted engine runs with: binding
// interns rotate in window-expiry epochs, so their memory is bounded by
// the open windows, not by the stream's lifetime cardinality. Results
// are byte-identical to an unbounded engine's.
func engineOpts() []core.Option { return []core.Option{core.WithInternEviction()} }

// Catalog returns the session's shared catalog, for compiling plans
// with CompileIn ahead of SubscribePlan.
func (s *Session) Catalog() *Catalog { return s.cat }

// Sink receives a subscription's results as they become available —
// the push half of the egress surface (Subscription.Results is the
// pull half). The default in-thread session emits as each window
// closes; sessions whose workers run on goroutines emit when results
// are gathered from them (Results, Drain, Unsubscribe, Close).
type Sink interface {
	Emit(Result)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Result)

// Emit implements Sink.
func (f SinkFunc) Emit(r Result) { f(r) }

// SubscribeOption configures one subscription.
type SubscribeOption func(*subCfg)

type subCfg struct {
	cb     func(Result)
	strict bool
}

// WithSink streams the subscription's results to sink instead of
// buffering them for Results/Drain/Unsubscribe.
func WithSink(sink Sink) SubscribeOption {
	return func(c *subCfg) { c.cb = sink.Emit }
}

// StrictRouting rejects a mid-stream subscription with
// ErrFrozenRouting when hosting it would break worker-locality: the
// parallel session's routing is frozen (events have flowed) and the
// query's partition keys do not cover the routing attributes. Without
// this option such a query is hosted on a dedicated full-stream
// fallback worker, which preserves correctness but streams every
// event twice. The in-thread session routes nothing, so the option
// has no effect there.
func StrictRouting() SubscribeOption {
	return func(c *subCfg) { c.strict = true }
}

// Subscribe compiles a query against the session's catalog and
// attaches it to the stream at the current position. Callable at any
// point; a mid-stream subscriber reports results from its first fully
// covered window (see the type comment).
func (s *Session) Subscribe(q *Query, opts ...SubscribeOption) (*Subscription, error) {
	if s.dispatching {
		return nil, fmt.Errorf("cogra: Subscribe from within a result sink; defer it until Push returns")
	}
	if s.closed {
		return nil, fmt.Errorf("cogra: Subscribe after Close: %w", ErrClosed)
	}
	plan, err := core.NewPlanIn(s.cat, q)
	if err != nil {
		return nil, err
	}
	sub, err := s.SubscribePlan(plan, opts...)
	if err != nil {
		// The plan was compiled here and will never be hosted: retire
		// the symbols it interned (where nothing else references them)
		// so failed subscribes do not leak catalog id space.
		s.cat.DiscardPlan(plan)
		return nil, err
	}
	return sub, nil
}

// SubscribePlan attaches an already-compiled plan; it must have been
// compiled against the session's catalog (CompileIn). A plan compiled
// long ago can be rejected with ErrNotHosted when an intervening
// unsubscribe compacted its symbols out of the catalog — recompile the
// query in that case.
func (s *Session) SubscribePlan(plan *Plan, opts ...SubscribeOption) (*Subscription, error) {
	if s.dispatching {
		return nil, fmt.Errorf("cogra: Subscribe from within a result sink; defer it until Push returns")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("cogra: Subscribe after Close: %w", ErrClosed)
	}
	var cfg subCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	sub := &Subscription{sess: s, id: len(s.subs), plan: plan, active: true}
	var mopts []stream.SubscribeOpt
	if cfg.strict {
		mopts = append(mopts, stream.StrictRouting())
	}
	if cfg.cb != nil {
		mopts = append(mopts, stream.WithCallback(guardSink(sub, cfg.cb)))
	}
	var err error
	if sub.msub, err = s.mx.SubscribePlan(plan, mopts...); err != nil {
		return nil, err
	}
	s.subs = append(s.subs, sub)
	return sub, nil
}

// guardSink wraps a subscription's sink so a panic inside user code
// fails the subscription instead of tearing down the goroutine that
// happened to deliver the result (the feeding goroutine under Push or
// a lifecycle call). The first panic is recorded on
// Subscription.Err wrapping ErrSinkPanic; the sink is never called
// again, and later results for the failed subscription are discarded —
// the stream and every other subscription keep running. Sinks only
// fire with the session lock held, so reading and writing sub.err here
// is race-free.
func guardSink(sub *Subscription, fn func(Result)) func(Result) {
	return func(r Result) {
		if sub.err != nil && errors.Is(sub.err, ErrSinkPanic) {
			return
		}
		defer func() {
			if p := recover(); p != nil {
				sub.err = fmt.Errorf("cogra: sink for query %d panicked: %v: %w", sub.id, p, ErrSinkPanic)
			}
		}()
		fn(r)
	}
}

// Push ingests the next stream event for every subscribed query — the
// primary single-event entry point, a PushBatch of one. Without
// WithSlack, events must arrive in non-decreasing time-stamp order and
// an out-of-order event fails with ErrLateEvent; with WithSlack, events
// are re-ordered within the slack and stragglers beyond it follow the
// late policy.
func (s *Session) Push(e *Event) error {
	// Checked before s.one is written: a Push from inside a sink must
	// not overwrite the outer Push's batch.
	if s.dispatching {
		return errPushInSink
	}
	s.one[0] = e
	err := s.PushBatch(s.one[:])
	s.one[0] = nil
	return err
}

var errPushInSink = errors.New("cogra: Push from within a result sink; defer it until the outer Push returns")

// PushBatch ingests a batch of events in arrival order — the primary
// bulk entry point; the batch flows natively down the stack (one
// dispatch prologue on the in-thread worker, direct appends into the
// in-flight batches of worker goroutines). The same ordering and
// slack rules as Push apply; an error for an event of the batch is a
// *BatchError: it reports the first offending event, and that
// everything before it, Ingested events, has been ingested.
func (s *Session) PushBatch(events []*Event) error {
	if s.dispatching {
		return errPushInSink
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cogra: Push after Close: %w", ErrClosed)
	}
	s.dispatching = true
	defer func() { s.dispatching = false }()
	if s.ro == nil {
		if n, err := s.dispatchBatch(events); err != nil {
			return &BatchError{Ingested: n, Err: err}
		}
		return nil
	}
	for i, e := range events {
		if err := s.offer(e); err != nil {
			return &BatchError{Ingested: i, Err: err}
		}
	}
	return nil
}

// offer feeds one event through the slack buffer, applying the late
// and depth policies, and dispatches whatever the advancing watermark
// (or a shedding overflow) released.
func (s *Session) offer(e *Event) error {
	// The buffer re-emits in (time, ID) order and heap order among
	// equal keys is arbitrary, so source-less IDs must be stamped with
	// the arrival order HERE, before buffering — downstream (which
	// normally assigns them) only sees the re-sorted stream. Ties then
	// re-emit exactly in arrival order, matching a slack-less session.
	s.roSeq++
	assigned := false
	if e.ID == 0 {
		e.ID = s.roSeq
		assigned = true
	}
	dropped := s.ro.Dropped()
	out, err := s.ro.Offer(e)
	if err != nil {
		// Backpressure (WithMaxReorderDepth + Reject): the event was not
		// ingested, so undo the arrival-order stamp — a later retry must
		// take its ID from its NEW arrival position or ties would emit
		// out of arrival order. The error names the offending event so a
		// PushBatch caller can resume after the ingested prefix.
		if assigned {
			e.ID = 0
		}
		s.roSeq--
		return fmt.Errorf("cogra: event at time %d refused: %w", e.Time, err)
	}
	if s.ro.Dropped() != dropped && s.cfg.late == RejectLate {
		// Cite the actual drop boundary: after shedding it can sit well
		// above maxSeen-slack, and a message naming only the watermark
		// would describe an event as legal that was correctly dropped.
		return fmt.Errorf("cogra: event at time %d older than the stream's drop boundary %d (watermark minus slack, raised by shedding): %w",
			e.Time, s.ro.DropBoundary(), ErrLateEvent)
	}
	if depth := s.ro.Buffered(); depth > s.roPeak {
		s.roPeak = depth
	}
	if len(out) == 0 {
		return nil
	}
	_, err = s.dispatchBatch(out)
	return err
}

// dispatchBatch hands an in-order batch to the executor and returns how
// many of its events it handed over. Worker goroutines would only
// surface an ordering violation at Close, so the session validates the
// batch HERE, in one scan, to keep Push's synchronous ErrLateEvent
// contract: on a violation the good prefix is ingested, the error names
// the first offender, the bad event never reaches a worker and the
// session stays usable.
func (s *Session) dispatchBatch(events []*Event) (int, error) {
	last, saw := s.last, s.saw
	for i, e := range events {
		if saw && e.Time < last {
			s.last, s.saw = last, saw
			if err := s.mx.ProcessBatch(events[:i]); err != nil {
				return i, err
			}
			return i, fmt.Errorf("cogra: out-of-order event at time %d after %d: %w", e.Time, last, ErrLateEvent)
		}
		last, saw = e.Time, true
	}
	s.last, s.saw = last, saw
	return len(events), s.mx.ProcessBatch(events)
}

// Close ends the stream: the slack buffer (if any) is flushed, and
// every still-subscribed query flushes its open windows. Results go
// to the subscription's sink when one is installed, and are otherwise
// retrievable with Results or Drain after Close.
func (s *Session) Close() error {
	if s.dispatching {
		return fmt.Errorf("cogra: Close from within a result sink; defer it until Push returns")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cogra: double Close: %w", ErrClosed)
	}
	s.dispatching = true
	defer func() { s.dispatching = false }()
	if s.ro != nil {
		if tail := s.ro.Flush(); len(tail) > 0 {
			if _, err := s.dispatchBatch(tail); err != nil {
				return err
			}
		}
	}
	s.closed = true
	results, err := s.mx.Close()
	for _, sub := range s.subs {
		if sub.active {
			sub.active = false
			if err == nil {
				sub.pending = append(sub.pending, results[sub.msub.ID()]...)
			} else {
				sub.err = err
			}
		}
	}
	return err
}

// SessionStats summarises a session's hosted state.
type SessionStats struct {
	// Queries is the number of active subscriptions; Workers the
	// worker count (1 for the default in-thread session; a running
	// fallback worker counts too). ExecutorGroups is 1 while the
	// fallback worker runs and 0 while none hosts a subscriber.
	Queries        int
	Workers        int
	ExecutorGroups int
	// Events is the number of events the session accepted; Skipped
	// counts events a routing session could not route (missing a
	// routing attribute; the in-thread session never routes).
	Events  int64
	Skipped int64
	// LateDropped counts events that arrived later than the slack
	// allowed and were not ingested (WithSlack sessions; under
	// RejectLate they additionally failed the Push that carried them).
	// ReorderDepth is the current number of events held back by the
	// slack buffer awaiting the watermark; ReorderPeakDepth its
	// high-water mark over the session's lifetime. ReorderShed counts
	// buffered events force-drained early by a full depth-capped buffer
	// (WithMaxReorderDepth under ShedOldest).
	LateDropped      int64
	ReorderDepth     int
	ReorderPeakDepth int
	ReorderShed      int64
	// InternedTypes and InternedAttrs are the live id-space sizes of
	// the session's shared symbol catalog. They grow as queries
	// subscribe; unsubscribing releases symbols no remaining query
	// references, so churn no longer ratchets them up (ids of hosted
	// queries stay stable throughout). CatalogCompactions counts the
	// compacted snapshots published so far. InternedTypeSlots and
	// InternedAttrSlots are the physical id-space sizes including
	// tombstoned slots awaiting recycling; compaction truncates
	// trailing tombstones, so churn that retires the highest ids
	// shrinks the slot counts back toward the live counts.
	InternedTypes      int
	InternedAttrs      int
	InternedTypeSlots  int
	InternedAttrSlots  int
	CatalogCompactions uint64
	// RoutingAttrs are the partition attributes a parallel session
	// routes events by; empty with Workers > 1 means the subscribed
	// queries share no partition attribute, so every event goes to one
	// worker (nil for the in-thread session).
	RoutingAttrs []string
	// BindingInternBytes is the live footprint of the hosted engines'
	// binding intern tables; unsubscribing a query releases its share.
	BindingInternBytes int64
	// PeakBytes is the peak logical memory across the session's
	// engines (summed across workers).
	PeakBytes int64
	// SharedGroups counts the sharing groups whose host engine serves
	// more than one query (summed across workers). ShareFlips counts host handovers over the session's
	// lifetime — a group's engine replaced, at a window boundary, by one
	// over a grown RETURN union — and SharedSavedOps estimates the
	// per-event aggregation passes sharing saved: host events times the
	// members served beyond the first.
	SharedGroups   int
	ShareFlips     int64
	SharedSavedOps int64
	// Watermark is the stream position: the time stamp of the last
	// event dispatched to the execution layer (events still held by a
	// WithSlack reorder buffer have not been dispatched yet).
	// WatermarkValid is false before the first dispatched event. Both
	// survive Snapshot/Restore, like every other counter here.
	Watermark      int64
	WatermarkValid bool
}

// Stats reports the session's hosted-query, interning, disorder and
// memory state at the current stream position. Unlike the rest of the
// Session surface, Stats is safe to call from any goroutine while the
// feeding goroutine keeps working — not just Push/PushBatch but the
// whole feeding-goroutine surface (Subscribe, Unsubscribe, Close,
// Snapshot): it synchronises on the session's lock, which every one of
// those methods holds for its critical section. That makes it the
// shard-safe stats snapshot a serving layer scrapes from a metrics
// goroutine while a shard goroutine owns the session (cograd does
// exactly this). Stats keeps working after Close — it reports the
// final stream position. Do not call it from inside a result sink —
// the lock is already held there.
func (s *Session) Stats() (SessionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms, err := s.mx.Stats()
	if err != nil {
		return SessionStats{}, err
	}
	st := SessionStats{
		Queries:            ms.Queries,
		Workers:            ms.Workers,
		ExecutorGroups:     ms.Groups,
		Events:             ms.Events,
		Skipped:            ms.Skipped,
		InternedTypes:      ms.InternedTypes,
		InternedAttrs:      ms.InternedAttrs,
		RoutingAttrs:       ms.RoutingAttrs,
		BindingInternBytes: ms.BindingInternBytes,
		PeakBytes:          ms.PeakBytes,
		SharedGroups:       ms.SharedGroups,
		ShareFlips:         ms.ShareFlips,
		SharedSavedOps:     ms.SharedSavedOps,
		Watermark:          s.last,
		WatermarkValid:     s.saw,
	}
	if s.ro != nil {
		st.LateDropped = s.ro.Dropped()
		st.ReorderDepth = s.ro.Buffered()
		st.ReorderPeakDepth = s.roPeak
		st.ReorderShed = s.ro.Shed()
	}
	st.InternedTypeSlots = s.cat.NumTypeSlots()
	st.InternedAttrSlots = s.cat.NumAttrSlots()
	st.CatalogCompactions = s.cat.Compactions()
	return st, nil
}

// Subscription is one query hosted by a Session: the handle for its
// results and lifecycle.
type Subscription struct {
	sess    *Session
	id      int
	plan    *Plan
	msub    *stream.Sub // the executor-side handle
	active  bool
	pending []Result
	err     error
}

// ID returns the subscription's id: 0-based, in Subscribe order,
// stable across membership changes.
func (sub *Subscription) ID() int { return sub.id }

// Plan returns the compiled plan of the hosted query.
func (sub *Subscription) Plan() *Plan { return sub.plan }

// Active reports whether the subscription still receives events.
func (sub *Subscription) Active() bool { return sub.active }

// Err returns the subscription's error state: the first error a
// lifecycle call (Unsubscribe, Drain, Close) recorded for it.
func (sub *Subscription) Err() error { return sub.err }

// Results returns a pull-based iterator over the results that have
// become available (windows closed by the advancing watermark, plus
// everything remaining once the session is closed). Consumed results
// are gone; breaking out of the loop early keeps the unconsumed rest
// buffered for the next Results or Drain call. Each call returns a
// fresh single-use iterator:
//
//	for r := range sub.Results() {
//	    if overloaded { break } // the rest stays buffered
//	    handle(r)
//	}
//
// Empty when a sink streams the results instead. Each iterator's
// results are ordered by window then group, exactly like Drain.
func (sub *Subscription) Results() iter.Seq[Result] {
	return func(yield func(Result) bool) {
		buf := sub.Drain()
		for i, r := range buf {
			if !yield(r) {
				rest := make([]Result, 0, len(buf)-i-1+len(sub.pending))
				rest = append(rest, buf[i+1:]...)
				sub.pending = append(rest, sub.pending...)
				return
			}
		}
	}
}

// Unsubscribe detaches the query from the stream at the current
// position. Its open windows are flushed and returned (or delivered
// to the sink), its engines are released, and its binding intern
// memory is returned. The rest of the fleet is untouched. Failures
// are recorded on Err; a rejected unsubscribe (e.g. called from
// inside a result sink) leaves the subscription active, so it can
// be retried once Push returns.
func (sub *Subscription) Unsubscribe() []Result {
	s := sub.sess
	if s.dispatching {
		sub.err = fmt.Errorf("cogra: Unsubscribe from within a result sink; defer it until Push returns")
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sub.err = fmt.Errorf("cogra: Unsubscribe after Close: %w", ErrClosed)
		return nil
	}
	if !sub.active {
		sub.err = fmt.Errorf("cogra: query %d already unsubscribed: %w", sub.id, ErrNotHosted)
		return nil
	}
	s.dispatching = true
	defer func() { s.dispatching = false }()
	// The executor only errors after detaching, so the partial results
	// of its healthy workers still count.
	out, err := sub.msub.Unsubscribe()
	if err != nil {
		sub.err = err
	}
	sub.active = false
	return sub.withPending(out)
}

// Drain returns the results whose windows have closed since the last
// Drain (all remaining results once the session is closed) and clears
// them; nil when a sink streams results instead. On a partial
// worker failure it returns what the healthy workers reported and
// records the error (Err). Each Drain is ordered by window then group,
// and with worker goroutines it holds exactly what an inline session's
// Drain holds at the same stream position.
func (sub *Subscription) Drain() []Result {
	s := sub.sess
	if s.dispatching {
		// Called from inside a result sink: the session lock is held by
		// the Push that fired the sink, so only the already-buffered
		// pending results are reachable without deadlocking.
		return sub.takePending()
	}
	// The drain reaches shared ingest state (the router's pending
	// batches, the in-thread engines' result buffers), which a
	// concurrent Stats call also walks — serialise on the session lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sub.active {
		return sub.takePending()
	}
	// Drains deliver gathered results to sinks synchronously: mark the
	// dispatch so a sink calling back into the session hits the
	// reentrancy rejections above instead of deadlocking on mu.
	s.dispatching = true
	defer func() { s.dispatching = false }()
	out, err := sub.msub.Drain()
	if err != nil {
		// Drained results were destructively taken from the workers;
		// hand over what the healthy ones reported and record the error.
		sub.err = err
	}
	return sub.withPending(out)
}

func (sub *Subscription) takePending() []Result {
	out := sub.pending
	sub.pending = nil
	return out
}

// withPending prepends the pending results to out, which the executor
// has handed over: with nothing pending, out is returned as is.
func (sub *Subscription) withPending(out []Result) []Result {
	if len(sub.pending) == 0 {
		return out
	}
	return append(sub.takePending(), out...)
}
