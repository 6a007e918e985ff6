package stream

// Checkpoint codec for the stream layer: events, the K-slack reorder
// buffer, and the multi-query executor topology. A MultiExecutor
// snapshot must be taken at a consistent cut — after Sync() returns,
// every worker goroutine is parked on its input channel with all
// routed events applied, and the reply-channel receive gives the
// snapshotting goroutine a happens-before edge to read worker state
// directly (the in-thread worker shares the caller's goroutine, so
// the caller's quiescence is the cut). Restore is the mirror image:
// worker state is decoded before any message is sent, so the first
// channel send publishes it.

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/snap"
)

// MaxSnapshotWorkers bounds the worker count read from a snapshot, so
// a corrupt header cannot spawn an absurd goroutine fleet.
const MaxSnapshotWorkers = 4096

// CodeEvent lists one event's fields in wire order, attributes by
// ascending key.
func CodeEvent(c *snap.Coder, e *event.Event) {
	c.I64(&e.Time)
	c.Str(&e.Type)
	c.I64(&e.ID)
	keys, n := snap.MapKeys(c, &e.Num, 16)
	for i := 0; i < n; i++ {
		var k string
		var v float64
		if !c.Decoding() {
			k, v = keys[i], e.Num[keys[i]]
		}
		c.Str(&k)
		c.F64(&v)
		if c.Decoding() {
			e.Num[k] = v
		}
	}
	keys, n = snap.MapKeys(c, &e.Sym, 8)
	for i := 0; i < n; i++ {
		var k, v string
		if !c.Decoding() {
			k, v = keys[i], e.Sym[keys[i]]
		}
		c.Str(&k)
		c.Str(&v)
		if c.Decoding() {
			e.Sym[k] = v
		}
	}
}

func codeEventPtr(c *snap.Coder, e **event.Event) {
	if c.Decoding() {
		*e = new(event.Event)
	}
	CodeEvent(c, *e)
}

// Code lists the reorder buffer in wire order: slack, watermark
// bookkeeping, drop/shed counters and the buffered events. The depth
// cap is session configuration, not stream state, and is re-applied by
// the restoring session. Decoded events are re-heapified; since IDs
// are unique before events are offered, the heap pops in the same
// (time, ID) order as the original buffer regardless of internal
// layout.
func (r *Reorderer) Code(c *snap.Coder) {
	c.I64(&r.slack)
	c.Check(r.slack >= 0, "negative reorder slack %d", r.slack)
	c.I64(&r.maxSeen)
	c.Bool(&r.sawAny)
	c.I64(&r.dropped)
	c.I64(&r.shed)
	c.I64(&r.floor)
	c.Bool(&r.hasFloor)
	snap.Slice(c, &r.h, 28, codeEventPtr)
	if c.Decoding() {
		heap.Init(&r.h)
	}
}

// Code lists the executor's routing state, every worker's hosted
// runtime and the subscription topology in wire order. Encoding — after
// Sync() with no concurrent Process, so the workers are parked and
// their state is safe to read from this goroutine — idx maps every plan
// the topology runs to its index in the session's plan table. Decoding
// fills an executor that has only its catalog and engine options
// (RestoreMultiExecutor): plans holds the table's compiled entries, the
// worker fleet starts once the header is validated, and each worker's
// runtime is loaded before any message is sent on its channel, so the
// handoff is race-free.
func (m *MultiExecutor) Code(c *snap.Coder, idx map[*core.Plan]int32, plans []*core.Plan) {
	if m.closed {
		c.Fail(fmt.Errorf("stream: Snapshot after Close: %w", core.ErrClosed))
		return
	}
	nw, fallback, ns := uint32(len(m.workers)), m.fallback != nil, len(m.subs)
	c.U32(&nw)
	c.Bool(&fallback)
	snap.Slice(c, &m.routeAttrs, 4, (*snap.Coder).Str)
	c.I64(&m.seq)
	c.I64(&m.lastTime)
	c.Bool(&m.sawEvent)
	c.I64(&m.skipped)
	c.I64(&m.retiredPeak)
	c.I64(&m.retiredFlips)
	c.I64(&m.retiredSaved)
	c.Len(&ns, 1)
	if c.Decoding() {
		c.Check(nw >= 1 && nw <= MaxSnapshotWorkers, "executor worker count %d", nw)
		// The in-thread worker routes nothing and never needs a fallback.
		c.Check(nw > 1 || (len(m.routeAttrs) == 0 && !fallback), "routing state beside a single in-thread worker")
		if c.Err() != nil {
			return
		}
		m.start(int(nw))
		if fallback {
			m.fallback = m.newWorker()
		}
	}
	ceil := int64(math.MinInt64)
	if m.sawEvent {
		ceil = m.lastTime
	}
	for _, wk := range m.allWorkers() {
		if wk.err != nil {
			c.Fail(fmt.Errorf("stream: Snapshot with failed worker: %w", wk.err))
		}
		// A park advances each worker to the executor's watermark, which
		// a worker standing past it would refuse.
		wk.rt.Code(c, idx, plans, ns, ceil, wk.hostOpts())
		cur, peak := wk.acct.Current(), wk.acct.Peak()
		c.I64(&cur)
		c.I64(&peak)
		if c.Decoding() {
			wk.acct.Restore(cur, peak)
		}
	}
	for id := 0; id < ns && c.Err() == nil; id++ {
		if c.Decoding() {
			m.subs = append(m.subs, &Sub{m: m, id: id})
		}
		s := m.subs[id]
		c.Bool(&s.active)
		if !s.active {
			continue
		}
		wsubIDs := make([]int, len(s.wsubs))
		for i, ws := range s.wsubs {
			wsubIDs[i] = ws.ID()
		}
		snap.Slice(c, &wsubIDs, 8, (*snap.Coder).Int)
		if c.Decoding() {
			m.relink(c, s, wsubIDs)
		}
	}
}

// relink resolves a decoded subscription's hosts and per-worker
// subscriptions against the restored workers. A subscription lists one
// worker subscription per host: one on every partition worker, or,
// when the partition workers are at least two, a single one on the
// fallback worker.
func (m *MultiExecutor) relink(c *snap.Coder, s *Sub, wsubIDs []int) {
	s.hosts = m.workers
	if len(wsubIDs) == 1 && m.fallback != nil {
		s.hosts = []*mworker{m.fallback}
	}
	c.Check(len(wsubIDs) == len(s.hosts), "subscription %d lists %d worker subscriptions for %d hosts", s.id, len(wsubIDs), len(s.hosts))
	if c.Err() != nil {
		return
	}
	for i, h := range s.hosts {
		ws := h.rt.Lookup(wsubIDs[i])
		c.Check(ws != nil && (s.plan == nil || s.plan == ws.Plan()),
			"subscription %d references an unknown worker subscription or spans workers hosting different plans", s.id)
		if c.Err() != nil {
			return
		}
		s.plan = ws.Plan()
		s.wsubs = append(s.wsubs, ws)
	}
}

// HostPlans returns the plan of every host on every worker — with the
// subscriptions' plans, what a snapshot's plan table must hold.
func (m *MultiExecutor) HostPlans() []*core.Plan {
	var out []*core.Plan
	for _, wk := range m.allWorkers() {
		out = append(out, wk.rt.HostPlans()...)
	}
	return out
}

// RestoreMultiExecutor rebuilds an executor from c on a restored
// catalog. plans holds the plan table's compiled entries;
// engOpts are the session-wide engine options (each worker adds its own
// accountant, as in live subscribe). A failure is the Coder's Err; no
// worker is left running.
func RestoreMultiExecutor(cat *core.Catalog, c *snap.Coder, plans []*core.Plan, engOpts ...core.Option) *MultiExecutor {
	m := &MultiExecutor{cat: cat, engOpts: engOpts}
	if m.Code(c, nil, plans); c.Err() != nil {
		m.shutdown()
		return nil
	}
	return m
}

// Subs returns every subscription the executor ever hosted, indexed
// by id — after a restore, the way back to the rebuilt handles.
func (m *MultiExecutor) Subs() []*Sub { return m.subs }
