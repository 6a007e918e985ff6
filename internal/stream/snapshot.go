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
// their state is safe to read from this goroutine — planIdx maps an
// executor subscription id to the index of its plan in the session-
// level plan table (active subscriptions only). Decoding fills an
// executor that has only its catalog and engine options
// (RestoreMultiExecutor): plans holds the recompiled plans under those
// indexes, the worker fleet starts once the header is validated, and
// each worker's runtime is loaded before any message is sent on its
// channel, so the handoff is race-free.
//
// The group cap and the group list are layout left from builds that ran
// several fallback workers: written as a cap of 1 and zero or one empty
// signature, range-checked and otherwise ignored when read. A frame
// listing more than one group, or a group beside a single partition
// worker, came from such a build and is refused.
func (m *MultiExecutor) Code(c *snap.Coder, planIdx map[int]int32, plans []*core.Plan) {
	if m.closed {
		c.Fail(fmt.Errorf("stream: Snapshot after Close: %w", core.ErrClosed))
		return
	}
	nw, groupCap := uint32(len(m.workers)), uint32(1)
	var groupSigs []string
	if m.fallback != nil {
		groupSigs = []string{""}
	}
	c.U32(&nw)
	snap.Slice(c, &m.routeAttrs, 4, (*snap.Coder).Str)
	c.I64(&m.seq)
	c.I64(&m.lastTime)
	c.Bool(&m.sawEvent)
	c.I64(&m.skipped)
	c.I64(&m.retiredPeak)
	c.U32(&groupCap)
	snap.Slice(c, &groupSigs, 4, (*snap.Coder).Str)
	if c.Decoding() {
		c.Check(nw >= 1 && nw <= MaxSnapshotWorkers, "executor worker count %d", nw)
		c.Check(groupCap >= 1 && groupCap <= MaxSnapshotWorkers, "executor group cap %d", groupCap)
		c.Check(len(groupSigs) <= 1, "%d executor groups, this build runs at most one", len(groupSigs))
		c.Check(len(groupSigs) == 0 || nw > 1, "%d executor groups beside a single partition worker", len(groupSigs))
		if c.Err() != nil {
			return
		}
		m.start(int(nw))
		if m.inThread {
			// A one-worker frame written under a group cap above one ran
			// its worker on a goroutine and routed; in-thread routes nothing.
			m.routeAttrs = nil
		}
		if len(groupSigs) == 1 {
			m.fallback = m.newWorker()
		}
	}
	for _, wk := range m.allWorkers() {
		if wk.err != nil {
			c.Fail(fmt.Errorf("stream: Snapshot with failed worker: %w", wk.err))
		}
		wk.rt.Code(c, m.planIdxOn(c, wk, planIdx), plans, wk.hostOpts())
		cur, peak := wk.acct.Current(), wk.acct.Peak()
		c.I64(&cur)
		c.I64(&peak)
		if c.Decoding() {
			wk.acct.Restore(cur, peak)
		}
	}
	ns := len(m.subs)
	c.Len(&ns, 1)
	for id := 0; id < ns && c.Err() == nil; id++ {
		if c.Decoding() {
			m.subs = append(m.subs, &Sub{m: m, id: id})
		}
		s := m.subs[id]
		c.Bool(&s.active)
		if !s.active {
			continue
		}
		// Hosted on every partition worker (1) or on the fallback worker
		// (2, always executor group 0).
		kind, gi := uint8(1), uint32(0)
		if !c.Decoding() && m.fallback != nil && s.hosts[0] == m.fallback {
			kind = 2
		}
		if c.U8(&kind); kind == 2 {
			c.U32(&gi)
		}
		wsubIDs := make([]int, len(s.wsubs))
		for i, ws := range s.wsubs {
			wsubIDs[i] = ws.ID()
		}
		snap.Slice(c, &wsubIDs, 8, (*snap.Coder).Int)
		if c.Decoding() {
			m.relink(c, s, kind, gi, wsubIDs)
		}
	}
}

// relink resolves a decoded subscription's hosts and per-worker
// subscriptions against the restored workers.
func (m *MultiExecutor) relink(c *snap.Coder, s *Sub, kind uint8, gi uint32, wsubIDs []int) {
	switch {
	case kind == 1:
		s.hosts = m.workers
	case kind == 2 && gi == 0 && m.fallback != nil:
		s.hosts = []*mworker{m.fallback}
	default:
		c.Check(false, "subscription %d host kind %d, executor group %d", s.id, kind, gi)
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

// planIdxOn re-keys the plan index table for one worker's runtime: by
// the worker-local subscription ids, which diverge from executor ids on
// a full-stream worker. Nil while decoding.
func (m *MultiExecutor) planIdxOn(c *snap.Coder, wk *mworker, planIdx map[int]int32) map[int]int32 {
	if c.Decoding() {
		return nil
	}
	byWsub := map[int]int32{}
	for _, s := range m.subs {
		if !s.active {
			continue
		}
		pi, ok := planIdx[s.id]
		if !ok {
			c.Fail(fmt.Errorf("stream: snapshot: subscription %d has no plan index", s.id))
		}
		for i, h := range s.hosts {
			if h == wk {
				byWsub[s.wsubs[i].ID()] = pi
			}
		}
	}
	return byWsub
}

// RestoreMultiExecutor rebuilds an executor from c on a restored
// catalog. plans holds the recompiled plans indexed as when encoding;
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
