package cogra

// Checkpoint/restore: a Session can serialize its complete hosted
// state at a consistent cut and be rebuilt from those bytes such that
// the restored session is indistinguishable going forward — pushing
// the same suffix of the stream into the restored session produces
// byte-identical results and continuous Stats counters, under every
// granularity, worker configuration and slack buffer.
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
	sw.Grow(s.snapLen)
	c := snap.Encoder(&sw)
	s.code(c)
	if err := c.Err(); err != nil {
		return err
	}
	s.snapLen = sw.Len()
	return sw.Frame(w)
}

// Restore rebuilds a session from a Snapshot. A frame is the whole
// session: the restored one runs under the configuration the snapshot
// was taken under — worker count, slack, late policy, reorder depth cap
// and depth policy — and continues exactly where the snapshot was
// taken: pushing the remaining stream suffix yields byte-identical
// results, and Stats counters are continuous.
//
// Sinks are not serializable, so restored subscriptions always buffer:
// re-read results with Subscription.Results or Drain (Session.
// Subscriptions returns the restored handles, indexed by their
// original ids).
func Restore(r io.Reader) (*Session, error) {
	rd, err := snap.Open(r)
	if err != nil {
		return nil, err
	}
	// The restored frame is the session's previous one: its next
	// Snapshot reserves that much.
	s, c := &Session{snapLen: rd.Rem()}, snap.Decoder(rd)
	s.code(c)
	if err = rd.Close(); err != nil { // the sticky decode error, or trailing bytes
		if s.mx != nil {
			s.mx.Close()
		}
		return nil, err
	}
	return s, nil
}

// code lists the session's fields in wire order: configuration, ingest
// position, the reorder buffer, the catalog, the plan table, every
// subscription (its executor subscription and plan when active, its
// undelivered results either way) and the execution topology. Decoding
// fills an empty Session; a decode error stays in c.
func (s *Session) code(c *snap.Coder) {
	s.cfg.code(c)
	if c.Decoding() {
		if c.Err() != nil {
			return
		}
		s.ro, s.cat = newReorderer(s.cfg), core.NewCatalog()
	}
	c.Int(&s.roPeak)
	c.I64(&s.roSeq)
	c.I64(&s.last)
	c.Bool(&s.saw)
	if s.cfg.reorder {
		s.ro.Code(c)
	}
	s.cat.Code(c)
	// Compiling the plan table below re-interns its symbols (hitting the
	// restored ids) but also republishes the catalog, advancing the
	// epoch; remember the snapshot's marks and re-pin them once the
	// topology is rebuilt, so diagnostics stay continuous.
	epochMark, compMark := s.cat.Epoch(), s.cat.Compactions()
	plans, idx := s.codePlans(c)
	n := len(s.subs)
	c.Len(&n, 5)
	eids := make([]int, n)
	for id := 0; id < n && c.Err() == nil; id++ {
		if c.Decoding() {
			s.subs = append(s.subs, &Subscription{sess: s, id: id})
		}
		sub := s.subs[id]
		if c.Bool(&sub.active); sub.active {
			// The executor id relinks it to the restored topology, which
			// must run it on the plan its index names.
			var pi int32
			if !c.Decoding() {
				eids[id], pi = sub.msub.ID(), idx[sub.plan]
			}
			c.Int(&eids[id])
			c.I32(&pi)
			if c.Check(pi >= 0 && int(pi) < len(plans), "subscription %d runs plan %d of %d", id, pi, len(plans)); c.Err() == nil {
				sub.plan = plans[pi]
			}
		}
		snap.Slice(c, &sub.pending, 32, core.CodeResult)
	}
	// The execution topology is one length-prefixed section, which
	// decoding must consume exactly.
	topology := c.Begin()
	if !c.Decoding() {
		s.mx.Code(c, idx, plans)
		c.End(topology)
		return
	}
	if c.Err() != nil {
		return
	}
	if s.mx = stream.RestoreMultiExecutor(s.cat, c, plans, engineOpts()...); s.mx == nil {
		return
	}
	c.End(topology)
	// The session and its executor number subscriptions in one order,
	// so the active ones pair up at increasing executor ids.
	msubs, prev := s.mx.Subs(), -1
	for id, sub := range s.subs {
		if eid := eids[id]; sub.active && c.Err() == nil {
			ok := eid > prev && eid < len(msubs) && msubs[eid].Active() && msubs[eid].Plan() == sub.plan
			if c.Check(ok, "subscription %d names executor subscription %d: out of order, unknown, detached or running another plan", id, eid); ok {
				sub.msub, prev = msubs[eid], eid
			}
		}
	}
	s.cat.ResetEpoch(epochMark, compMark)
}

// codePlans lists the plan table: every distinct plan the topology runs
// — the active subscriptions' and every host's — once, ahead of the
// subscriptions and hosts that index into it. Encoding returns the
// table with its index. Each entry is the plan's query text; decoding
// parses and compiles it once against the restored catalog, the path
// Subscribe takes.
func (s *Session) codePlans(c *snap.Coder) ([]*Plan, map[*Plan]int32) {
	var plans []*Plan
	idx := map[*Plan]int32{}
	if !c.Decoding() {
		add := func(p *Plan) {
			if _, ok := idx[p]; !ok {
				idx[p] = int32(len(plans))
				plans = append(plans, p)
			}
		}
		for _, sub := range s.subs {
			if sub.active {
				add(sub.plan)
			}
		}
		for _, p := range s.mx.HostPlans() {
			add(p)
		}
	}
	snap.Slice(c, &plans, 40, func(c *snap.Coder, p **Plan) {
		var text string
		if !c.Decoding() {
			text = (*p).Text()
		}
		if c.Str(&text); c.Decoding() && c.Err() == nil {
			q, err := query.Parse(text)
			if err == nil {
				*p, err = core.NewPlanIn(s.cat, q)
			}
			c.Check(err == nil, "compiling plan table entry: %v", err)
		}
	})
	return plans, idx
}

// code lists the construction options in wire order.
func (cfg *sessionCfg) code(c *snap.Coder) {
	c.Int(&cfg.workers)
	c.I64(&cfg.slack)
	c.Bool(&cfg.reorder)
	snap.Enum(c, &cfg.late, RejectLate, "session late policy")
	c.Int(&cfg.maxDepth)
	snap.Enum(c, &cfg.depth, Reject, "session depth policy")
	c.Check(cfg.workers >= 0 && cfg.workers <= stream.MaxSnapshotWorkers, "session worker count %d", cfg.workers)
}

// Subscriptions returns the session's subscription handles, active and
// detached, indexed by their ids — the way back to a restored
// session's queries and their buffered results.
func (s *Session) Subscriptions() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Subscription(nil), s.subs...)
}
