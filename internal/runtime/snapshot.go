package runtime

// Checkpoint codec for the single-threaded runtime: stream position
// plus every subscription's engine state. Plans are NOT serialized
// here — the session layer snapshots queries and recompiles them
// against the restored catalog; this codec records only which plan
// index each subscription uses.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/snap"
)

// Code lists the runtime's execution state in wire order. The two
// directions bring different context. Encoding, planIdx maps a
// subscription id to the index of its plan in the session-level plan
// table (keyed by id rather than plan pointer because one plan can
// legitimately host several subscriptions). Decoding — into a fresh
// runtime on the restored catalog — plans holds the recompiled plans
// under those indexes and opts are the engine options of every engine
// the runtime rebuilds, subscribers' and sharing-group hosts' alike
// (session-wide accounting and eviction; no result callback: sinks are
// not data, and a host's callback is its group's fan-out). The catalog
// reference counts are rebuilt by re-retaining each hosted plan,
// mirroring live subscribe.
func (rt *Runtime) Code(c *snap.Coder, planIdx map[int]int32, plans []*core.Plan, opts []core.Option) {
	c.I64(&rt.lastTime)
	c.Bool(&rt.sawEvent)
	c.I64(&rt.seq)
	c.Int(&rt.nextID)
	if c.Decoding() && (c.Err() != nil || rt.nextID < 0 || rt.nextID > len(plans)) {
		// Every id the runtime ever handed out belongs to a subscription
		// the session ever made, and Close sizes its result table by it.
		c.Check(false, "runtime numbered %d subscriptions of the %d ever made", rt.nextID, len(plans))
		rt.nextID = 0
		return
	}
	n := len(rt.subs)
	c.Len(&n, 20)
	for i := 0; i < n && c.Err() == nil; i++ {
		var s *Subscription
		var pi int32
		if c.Decoding() {
			s = &Subscription{rt: rt, active: true}
		} else {
			s = rt.subs[i]
			idx, ok := planIdx[s.id]
			if pi = idx; !ok {
				c.Fail(fmt.Errorf("runtime snapshot: subscription %d has no plan index", s.id))
			}
		}
		c.Int(&s.id)
		c.I32(&pi)
		if c.Decoding() {
			c.Check(s.id >= 0 && s.id < rt.nextID && rt.Lookup(s.id) == nil, "runtime subscription id %d out of range or repeated", s.id)
			c.Check(pi >= 0 && int(pi) < len(plans) && plans[pi] != nil, "runtime subscription %d references plan %d of %d", s.id, pi, len(plans))
			if c.Err() != nil {
				return
			}
			// The plan was recompiled against this very catalog moments
			// ago; a failed retain means the snapshot is inconsistent.
			s.plan = plans[pi]
			err := rt.cat.Retain(s.plan)
			c.Check(err == nil, "retaining plan for subscription %d: %v", s.id, err)
			s.eng = core.NewEngine(s.plan, opts...)
			rt.subs = append(rt.subs, s)
		}
		s.eng.Code(c)
	}
	// Sharing-group section: membership, flip state, the per-epoch
	// monitor, and — when a host exists — its union query (restore
	// recompiles it; the union is not in the session plan table) and
	// engine state, in groupList order so restored decision replay stays
	// deterministic.
	shared := rt.sharedOn
	c.Bool(&shared)
	if shared {
		if c.Decoding() {
			rt.EnableSharedAggregation(opts...)
		}
		ng := len(rt.groupList)
		c.Len(&ng, 16)
		for i := 0; i < ng && c.Err() == nil; i++ {
			var g *shareGroup
			if c.Decoding() {
				g = &shareGroup{rt: rt}
			} else {
				g = rt.groupList[i]
			}
			g.code(c)
			if c.Decoding() && c.Err() == nil {
				c.Check(rt.groups[g.key] == nil, "two sharing groups share a fingerprint")
				rt.groups[g.key] = g
				rt.groupList = append(rt.groupList, g)
			}
		}
		c.I64(&rt.shareFlips)
		c.I64(&rt.sharedSavedOps)
	}
	if c.Decoding() && c.Err() == nil {
		rt.rebuildIndex()
	}
}

// code lists one sharing group in wire order. Decoding re-links the
// members to the restored subscriptions and recompiles the host from
// its serialized union query; member projections are recomputed from
// the union rather than serialized — the union's column order is the
// host query's RETURN order, which the snapshot pins.
func (g *shareGroup) code(c *snap.Coder) {
	rt := g.rt
	c.U8((*uint8)(&g.mode))
	c.Check(g.mode <= groupUnsharing, "sharing group mode %d", g.mode)
	c.Bool(&g.wantRefresh)
	c.Bool(&g.poisoned)
	c.I64(&g.lastEpoch)
	c.Bool(&g.epochValid)
	c.I64(&g.probeBase)
	c.I64(&g.hostBase)
	nm := len(g.members)
	c.Len(&nm, 11)
	c.Check(nm > 0, "sharing group has no members")
	for j := 0; j < nm && c.Err() == nil; j++ {
		var m *groupMember
		var id int
		if c.Decoding() {
			m = &groupMember{}
		} else {
			m, id = g.members[j], g.members[j].sub.id
		}
		c.Int(&id)
		c.U8((*uint8)(&m.mode))
		c.Bool(&m.served)
		c.I64(&m.from)
		if c.Decoding() {
			m.sub = rt.Lookup(id)
			c.Check(m.mode <= memberShared && m.sub != nil && m.sub.gm == nil,
				"sharing group member %d is in a bad mode, unknown, or in two groups", id)
			if c.Err() != nil {
				return
			}
			g.members = append(g.members, m)
			m.sub.group, m.sub.gm = g, m
		}
	}
	if c.Err() != nil {
		return
	}
	first := g.members[0].sub.plan
	hosted := g.host != nil
	c.Bool(&hosted)
	if c.Decoding() {
		g.key, g.win = first.Fingerprint(), first.Query.Window
		c.Check(hosted || g.mode == groupSolo, "sharing group in mode %d without a host", g.mode)
	}
	if !hosted {
		return
	}
	c.Bool(&g.hostRetiring)
	if c.Decoding() {
		var uq query.Query
		if uq.Code(c); c.Err() != nil {
			return
		}
		if err := g.startHost(&uq); err != nil {
			c.Check(false, "rebuilding the sharing-group host: %v", err)
			return
		}
	} else {
		g.host.plan.Query.Code(c)
	}
	g.host.eng.Code(c)
	if c.Decoding() {
		g.union = core.NewSpecUnion()
		g.union.Add(g.host.plan.Specs)
		for _, m := range g.members {
			if m.served {
				var ok bool
				m.proj, ok = g.union.Project(m.sub.plan.Specs)
				c.Check(ok, "sharing-group union does not cover subscription %d", m.sub.id)
			}
		}
	}
}

// Lookup returns the live subscription with the given id, or nil.
func (rt *Runtime) Lookup(id int) *Subscription {
	for _, s := range rt.subs {
		if s.id == id {
			return s
		}
	}
	return nil
}
