package cogra

// Checkpoint/restore: a Session can serialize its complete hosted
// state at a consistent cut and be rebuilt from those bytes such that
// the restored session is indistinguishable going forward — pushing
// the same suffix of the stream into the restored session produces
// byte-identical results and continuous Stats counters, under every
// granularity, worker configuration, slack buffer and eviction policy.
//
// The cut is consistent by construction. Snapshot first runs the
// executor's control-plane barrier (Sync): when it returns, every
// worker has applied every event routed so far; worker goroutines are
// parked on their input channels, and the barrier's reply handshake
// gives the snapshotting goroutine a happens-before edge to read their
// runtimes directly (the in-thread worker shares the caller's
// goroutine, so the caller's quiescence IS the cut). Restore installs
// each worker's rebuilt runtime before any message is sent on its
// channel, which publishes it to the worker goroutine the same way.
//
// The snapshot serializes live state VERBATIM rather than draining it:
// the catalog's id spaces including tombstones and free lists (so
// recompiled queries re-intern to their original ids), the binding
// intern tables with their eviction stamps, every open window's
// sub-aggregators including the staged, uncommitted contributions of
// the current time stamp, the reorder buffer, and every counter a
// Stats call reports. Draining any of it would make the restored run
// observably different from the undisturbed one.
//
// What does NOT survive: sinks and callbacks (code is not data —
// restored subscriptions buffer their results for Results/Drain until
// the caller re-reads them), subscription error states, and the
// session's position in any external input source (the caller owns
// replaying the suffix).

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/stream"
)

// maxRestoreWorkers bounds the worker count accepted from a snapshot,
// so a corrupt header cannot spawn an absurd goroutine fleet.
const maxRestoreWorkers = 4096

// Snapshot writes a consistent checkpoint of the session to w in the
// versioned, CRC-protected snapshot format. The session must be
// quiescent from the caller's side (no concurrent Push); worker
// goroutines are synchronized internally. The session remains fully
// usable afterwards — snapshotting is a read-only barrier, and its
// cost is paid entirely inside this call, never on the ingest path.
func (s *Session) Snapshot(w io.Writer) error {
	if s.dispatching {
		return fmt.Errorf("cogra: Snapshot from within a result sink; defer it until Push returns")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cogra: Snapshot after Close: %w", ErrClosed)
	}
	if err := s.mx.Sync(); err != nil {
		return err
	}
	var sw snap.Writer
	sw.Int(s.cfg.workers)
	sw.Int(s.cfg.groups)
	sw.I64(s.cfg.slack)
	sw.Bool(s.cfg.reorder)
	sw.U8(uint8(s.cfg.late))
	sw.Int(s.cfg.maxDepth)
	sw.U8(uint8(s.cfg.depth))
	sw.Bool(s.cfg.evict)
	sw.Bool(s.cfg.shared)
	sw.Int(s.roPeak)
	sw.I64(s.roSeq)
	// Whether any event reached the executor (saw) also gates restore:
	// the worker count may only change while it is false, since routing
	// and worker-local state are frozen by the first dispatched event.
	sw.I64(s.last)
	sw.Bool(s.saw)
	if s.cfg.reorder {
		s.ro.Snapshot(&sw)
	}
	s.cat.Snapshot(&sw)
	sw.U32(uint32(len(s.subs)))
	// The session's plan table is indexed by its own subscription ids;
	// the executor numbers only the plans it hosts (the two diverge once
	// a restore re-subscribed a fleet with detached members).
	planIdx := map[int]int32{}
	for _, sub := range s.subs {
		sw.Bool(sub.active)
		if sub.active {
			if err := sub.plan.Query.Snapshot(&sw); err != nil {
				return err
			}
			planIdx[sub.msub.ID()] = int32(sub.id)
		}
		sw.U32(uint32(len(sub.pending)))
		for _, r := range sub.pending {
			core.SnapshotResult(&sw, r)
		}
	}
	// The execution topology is nested as one length-prefixed blob, so
	// a restore that rebuilds a fresh topology (worker-count change on
	// an event-free snapshot) can skip it wholesale.
	var tw snap.Writer
	if err := s.mx.Snapshot(&tw, planIdx); err != nil {
		return err
	}
	sw.Bytes(tw.Raw())
	return sw.Frame(w)
}

// Restore rebuilds a session from a Snapshot. The restored session
// continues exactly where the snapshot was taken: pushing the
// remaining stream suffix yields byte-identical results, and Stats
// counters are continuous. Options are applied ON TOP of the
// snapshot's own configuration; the worker count may only differ from
// the snapshot's while no event had been ingested yet (the routing
// function freezes with the first event) — otherwise Restore fails
// with an error wrapping ErrFrozenRouting.
//
// Sinks are not serializable, so restored subscriptions always buffer:
// re-read results with Subscription.Results or Drain (Session.
// Subscriptions returns the restored handles, indexed by their
// original ids).
func Restore(r io.Reader, opts ...SessionOption) (*Session, error) {
	rd, err := snap.Open(r)
	if err != nil {
		return nil, err
	}
	var orig sessionCfg
	orig.workers = rd.Int()
	orig.groups = rd.Int()
	orig.slack = rd.I64()
	orig.reorder = rd.Bool()
	late := rd.U8()
	orig.maxDepth = rd.Int()
	depth := rd.U8()
	orig.evict = rd.Bool()
	orig.shared = rd.Bool()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if late > uint8(RejectLate) || depth > uint8(Reject) {
		return nil, fmt.Errorf("%w: session policy out of range (late %d, depth %d)", ErrBadSnapshot, late, depth)
	}
	if orig.workers > maxRestoreWorkers || orig.workers < 0 {
		return nil, fmt.Errorf("%w: session worker count %d", ErrBadSnapshot, orig.workers)
	}
	if orig.groups > maxRestoreWorkers || orig.groups < 0 {
		return nil, fmt.Errorf("%w: session executor group count %d", ErrBadSnapshot, orig.groups)
	}
	orig.late, orig.depth = LatePolicy(late), DepthPolicy(depth)
	cfg := orig
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Session{cfg: cfg, ro: newReorderer(cfg)}
	s.roPeak = rd.Int()
	s.roSeq = rd.I64()
	s.last = rd.I64()
	s.saw = rd.Bool()
	if orig.reorder { // options only ever add WithSlack, so s.ro exists
		if err := s.ro.RestoreState(rd); err != nil {
			return nil, err
		}
	}
	cat, err := core.RestoreCatalog(rd)
	if err != nil {
		return nil, err
	}
	s.cat = cat
	// Recompiling the surviving queries below re-interns their symbols
	// (hitting the restored ids) but also republishes the catalog,
	// advancing the epoch; remember the snapshot's marks and re-pin
	// them once the topology is rebuilt, so diagnostics stay continuous.
	epochMark, compMark := cat.Epoch(), cat.Compactions()
	nsubs := rd.Count(5)
	plans := make([]*Plan, nsubs)
	actives := make([]bool, nsubs)
	pendings := make([][]Result, nsubs)
	for id := 0; id < nsubs; id++ {
		actives[id] = rd.Bool()
		if actives[id] {
			q, err := query.RestoreQuery(rd)
			if err != nil {
				return nil, err
			}
			plan, err := core.NewPlanIn(cat, q)
			if err != nil {
				return nil, fmt.Errorf("%w: recompiling query %d: %v", ErrBadSnapshot, id, err)
			}
			plans[id] = plan
		}
		np := rd.Count(32)
		for i := 0; i < np; i++ {
			res, err := core.RestoreResult(rd)
			if err != nil {
				return nil, err
			}
			pendings[id] = append(pendings[id], res)
		}
	}
	blob := rd.RawBytes()
	if err := rd.Close(); err != nil {
		return nil, err
	}

	normalize := func(n int) int {
		if n > 1 {
			return n
		}
		return 1
	}
	msubs := make([]*stream.Sub, nsubs)
	if normalize(cfg.workers) != normalize(orig.workers) || normalize(cfg.groups) != normalize(orig.groups) {
		if s.saw {
			return nil, fmt.Errorf("cogra: restore with %d workers / %d groups from a %d-worker / %d-group snapshot after events flowed (routing is frozen): %w",
				normalize(cfg.workers), normalize(cfg.groups), normalize(orig.workers), normalize(orig.groups), ErrFrozenRouting)
		}
		// Event-free snapshot: the topology blob holds only fresh
		// construction state, so skip it and re-subscribe the surviving
		// plans against a fresh executor of the requested width.
		s.mx = newExecutor(cat, cfg)
		for id, plan := range plans {
			if plan == nil {
				continue
			}
			if msubs[id], err = s.mx.SubscribePlan(plan); err != nil {
				s.mx.Close()
				return nil, err
			}
		}
	} else {
		brd := snap.NewReader(blob)
		mx, err := stream.RestoreMultiExecutor(cat, brd, plans, cfg.engineOpts()...)
		if err != nil {
			return nil, err
		}
		s.mx = mx
		if err := brd.Close(); err != nil {
			mx.Close()
			return nil, err
		}
		if cfg.shared {
			// Re-arm the executor-level flag so lazily started executor
			// groups inherit sharing (and future subscribers may share when
			// WithSharedAggregation was added at restore time); worker
			// runtimes restored with sharing already on are left untouched.
			mx.EnableSharedAggregation()
		}
		// Each surviving plan was recompiled into its own *Plan above, so
		// the pointer identifies the executor subscription hosting it.
		byPlan := map[*Plan]*stream.Sub{}
		for _, msub := range mx.Subs() {
			if msub.Active() {
				byPlan[msub.Plan()] = msub
			}
		}
		for id := range plans {
			if !actives[id] {
				continue
			}
			if msubs[id] = byPlan[plans[id]]; msubs[id] == nil {
				mx.Close()
				return nil, fmt.Errorf("%w: subscription %d missing from the executor topology", ErrBadSnapshot, id)
			}
		}
	}
	for id := 0; id < nsubs; id++ {
		s.subs = append(s.subs, &Subscription{
			sess:    s,
			id:      id,
			plan:    plans[id],
			msub:    msubs[id],
			active:  actives[id],
			pending: pendings[id],
		})
	}
	cat.ResetEpoch(epochMark, compMark)
	return s, nil
}

// Subscriptions returns the session's subscription handles, active and
// detached, indexed by their ids — the way back to a restored
// session's queries and their buffered results.
func (s *Session) Subscriptions() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Subscription(nil), s.subs...)
}
