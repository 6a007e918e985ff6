package stream

// Checkpoint codec for the stream layer: events, the K-slack reorder
// buffer, and the multi-query executor topology. A MultiExecutor
// snapshot must be taken at a consistent cut — after Sync() returns,
// every worker goroutine is parked on its input channel with all
// routed events applied, and the reply-channel receive gives the
// snapshotting goroutine a happens-before edge to read worker state
// directly (the in-thread worker shares the caller's goroutine, so
// the caller's quiescence is the cut). Restore is the mirror image:
// worker runtimes are installed before any message is sent, so the
// first channel send publishes them.

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/runtime"
	"repro/internal/snap"
)

// maxSnapWorkers bounds the worker count read from a snapshot, so a
// corrupt header cannot spawn an absurd goroutine fleet.
const maxSnapWorkers = 4096

// SnapshotEvent writes one event with attribute keys in sorted order,
// so the snapshot bytes do not depend on map iteration order.
func SnapshotEvent(w *snap.Writer, e *event.Event) {
	w.I64(e.Time)
	w.Str(e.Type)
	w.I64(e.ID)
	numKeys := make([]string, 0, len(e.Num))
	for k := range e.Num {
		numKeys = append(numKeys, k)
	}
	sort.Strings(numKeys)
	w.U32(uint32(len(numKeys)))
	for _, k := range numKeys {
		w.Str(k)
		w.F64(e.Num[k])
	}
	symKeys := make([]string, 0, len(e.Sym))
	for k := range e.Sym {
		symKeys = append(symKeys, k)
	}
	sort.Strings(symKeys)
	w.U32(uint32(len(symKeys)))
	for _, k := range symKeys {
		w.Str(k)
		w.Str(e.Sym[k])
	}
}

// RestoreEvent reads one event written by SnapshotEvent.
func RestoreEvent(r *snap.Reader) (*event.Event, error) {
	e := &event.Event{Time: r.I64(), Type: r.Str(), ID: r.I64()}
	n := r.Count(16)
	for i := 0; i < n; i++ {
		e.WithNum(r.Str(), r.F64())
	}
	n = r.Count(8)
	for i := 0; i < n; i++ {
		e.WithSym(r.Str(), r.Str())
	}
	return e, r.Err()
}

// Snapshot writes the reorder buffer: slack, watermark bookkeeping,
// drop/shed counters and the buffered events. The depth cap is session
// configuration, not stream state, and is re-applied by the restoring
// session.
func (r *Reorderer) Snapshot(w *snap.Writer) {
	w.I64(r.slack)
	w.I64(r.maxSeen)
	w.Bool(r.sawAny)
	w.I64(r.dropped)
	w.I64(r.shed)
	w.I64(r.floor)
	w.Bool(r.hasFloor)
	w.U32(uint32(len(r.h)))
	for _, e := range r.h {
		SnapshotEvent(w, e)
	}
}

// RestoreState loads a snapshot written by Snapshot. The buffered
// events are re-heapified; since IDs are unique before events are
// offered, the heap pops in the same (time, ID) order as the original
// buffer regardless of internal layout.
func (r *Reorderer) RestoreState(rd *snap.Reader) error {
	r.slack = rd.I64()
	if rd.Err() == nil && r.slack < 0 {
		return fmt.Errorf("%w: negative reorder slack %d", snap.ErrBadSnapshot, r.slack)
	}
	r.maxSeen = rd.I64()
	r.sawAny = rd.Bool()
	r.dropped = rd.I64()
	r.shed = rd.I64()
	r.floor = rd.I64()
	r.hasFloor = rd.Bool()
	n := rd.Count(28)
	r.h = r.h[:0]
	for i := 0; i < n; i++ {
		e, err := RestoreEvent(rd)
		if err != nil {
			return err
		}
		r.h = append(r.h, e)
	}
	heap.Init(&r.h)
	return rd.Err()
}

// Snapshot writes the executor's routing state and every worker's
// hosted runtime, then the subscription topology. planIdxBySubID maps
// an executor subscription id to the index of its plan in the
// session-level plan table (active subscriptions only). Must be called
// after Sync() with no concurrent Process — the workers are then
// parked on their input channels and their state is safe to read from
// this goroutine.
func (m *MultiExecutor) Snapshot(w *snap.Writer, planIdxBySubID map[int]int32) error {
	if m.closed {
		return fmt.Errorf("stream: Snapshot after Close: %w", core.ErrClosed)
	}
	w.U32(uint32(len(m.workers)))
	w.U32(uint32(len(m.routeAttrs)))
	for _, a := range m.routeAttrs {
		w.Str(a)
	}
	w.I64(m.seq)
	w.I64(m.lastTime)
	w.Bool(m.sawEvent)
	w.I64(m.skipped)
	w.I64(m.retiredPeak)
	w.U32(uint32(m.maxGroups))
	w.U32(uint32(len(m.groups)))
	for _, sig := range m.groupSigs {
		w.Str(sig)
	}
	for _, wk := range m.allWorkers() {
		if wk.err != nil {
			return fmt.Errorf("stream: Snapshot with failed worker: %w", wk.err)
		}
		// Per-worker plan index table, keyed by the worker-local
		// subscription ids (they diverge from executor ids on the
		// full-stream worker).
		byWsub := map[int]int32{}
		for _, s := range m.subs {
			if !s.active {
				continue
			}
			pi, ok := planIdxBySubID[s.id]
			if !ok {
				return fmt.Errorf("stream: snapshot: subscription %d has no plan index", s.id)
			}
			for i, h := range s.hosts {
				if h == wk {
					byWsub[s.wsubs[i].ID()] = pi
				}
			}
		}
		if err := wk.rt.Snapshot(w, byWsub); err != nil {
			return err
		}
		w.I64(wk.acct.Current())
		w.I64(wk.acct.Peak())
	}
	w.U32(uint32(len(m.subs)))
	for _, s := range m.subs {
		w.Bool(s.active)
		if !s.active {
			continue
		}
		if gi := m.groupIndex(s.hosts); gi >= 0 {
			w.U8(2) // hosted on one executor group
			w.U32(uint32(gi))
		} else {
			w.U8(1) // hosted on every partition worker
		}
		w.U32(uint32(len(s.wsubs)))
		for _, ws := range s.wsubs {
			w.Int(ws.ID())
		}
	}
	return nil
}

// RestoreMultiExecutor rebuilds an executor from Snapshot on a
// restored catalog. plans holds the recompiled plans indexed as during
// Snapshot; engOpts are the session-wide engine options (each worker
// adds its own accountant, as in live subscribe). The worker fleet is
// started first and each worker's runtime is installed before any
// message is sent on its channel, so the handoff is race-free.
func RestoreMultiExecutor(cat *core.Catalog, r *snap.Reader, plans []*core.Plan, engOpts ...core.Option) (*MultiExecutor, error) {
	nw := int(r.U32())
	if r.Err() == nil && (nw < 1 || nw > maxSnapWorkers) {
		return nil, fmt.Errorf("%w: executor worker count %d", snap.ErrBadSnapshot, nw)
	}
	na := r.Count(4)
	var routeAttrs []string
	for i := 0; i < na; i++ {
		routeAttrs = append(routeAttrs, r.Str())
	}
	seq := r.I64()
	lastTime := r.I64()
	sawEvent := r.Bool()
	skipped := r.I64()
	retiredPeak := r.I64()
	maxGroups := int(r.U32())
	if r.Err() == nil && (maxGroups < 1 || maxGroups > maxSnapWorkers) {
		return nil, fmt.Errorf("%w: executor group cap %d", snap.ErrBadSnapshot, maxGroups)
	}
	ng := r.Count(1)
	if r.Err() == nil && ng > maxGroups {
		return nil, fmt.Errorf("%w: %d executor groups over a cap of %d", snap.ErrBadSnapshot, ng, maxGroups)
	}
	groupSigs := make([]string, 0, ng)
	for i := 0; i < ng; i++ {
		groupSigs = append(groupSigs, r.Str())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := NewMultiExecutorOn(cat, nw, engOpts...)
	m.SetExecutorGroups(maxGroups)
	if m.inThread && ng > 0 {
		return nil, fmt.Errorf("%w: %d executor groups beside an in-thread worker", snap.ErrBadSnapshot, ng)
	}
	ok := false
	defer func() {
		if !ok {
			m.shutdown()
		}
	}()
	m.routeAttrs = routeAttrs
	m.seq, m.lastTime, m.sawEvent = seq, lastTime, sawEvent
	m.skipped, m.retiredPeak = skipped, retiredPeak
	for _, sig := range groupSigs {
		m.groups = append(m.groups, m.newWorker())
		m.groupSigs = append(m.groupSigs, sig)
		m.groupPend = append(m.groupPend, nil)
	}
	for _, wk := range m.allWorkers() {
		rt, err := runtime.RestoreRuntime(cat, r, plans, func(int) []core.Option { return wk.hostOpts() })
		if err != nil {
			return nil, err
		}
		wk.rt = rt
		cur, peak := r.I64(), r.I64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		wk.acct.Restore(cur, peak)
	}
	ns := r.Count(1)
	for id := 0; id < ns; id++ {
		if !r.Bool() {
			m.subs = append(m.subs, &Sub{m: m, id: id})
			continue
		}
		kind := r.U8()
		gi := -1
		if kind == 2 {
			gi = int(r.U32())
		}
		nh := r.Count(8)
		wsubIDs := make([]int, 0, nh)
		for i := 0; i < nh; i++ {
			wsubIDs = append(wsubIDs, r.Int())
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		var hosts []*mworker
		switch kind {
		case 1:
			hosts = m.workers
		case 2:
			if gi < 0 || gi >= len(m.groups) {
				return nil, fmt.Errorf("%w: subscription %d hosted on absent executor group %d", snap.ErrBadSnapshot, id, gi)
			}
			hosts = []*mworker{m.groups[gi]}
		default:
			return nil, fmt.Errorf("%w: subscription %d host kind %d", snap.ErrBadSnapshot, id, kind)
		}
		if nh != len(hosts) {
			return nil, fmt.Errorf("%w: subscription %d lists %d worker subscriptions for %d hosts", snap.ErrBadSnapshot, id, nh, len(hosts))
		}
		sub := &Sub{m: m, id: id, active: true, hosts: hosts}
		for i, h := range hosts {
			ws := h.rt.Lookup(wsubIDs[i])
			if ws == nil {
				return nil, fmt.Errorf("%w: subscription %d references unknown worker subscription %d", snap.ErrBadSnapshot, id, wsubIDs[i])
			}
			if sub.plan == nil {
				sub.plan = ws.Plan()
			} else if sub.plan != ws.Plan() {
				return nil, fmt.Errorf("%w: subscription %d spans workers hosting different plans", snap.ErrBadSnapshot, id)
			}
			sub.wsubs = append(sub.wsubs, ws)
		}
		m.subs = append(m.subs, sub)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	ok = true
	return m, nil
}

// groupIndex returns the index of the executor group a single-host
// subscription is hosted on, or -1 when the hosts are the partition
// workers.
func (m *MultiExecutor) groupIndex(hosts []*mworker) int {
	if len(hosts) != 1 {
		return -1
	}
	for gi, g := range m.groups {
		if g == hosts[0] {
			return gi
		}
	}
	return -1
}

// Subs returns every subscription the executor ever hosted, indexed
// by id — after a restore, the way back to the rebuilt handles.
func (m *MultiExecutor) Subs() []*Sub { return m.subs }
