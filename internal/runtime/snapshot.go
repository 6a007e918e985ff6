package runtime

// Checkpoint codec for the single-threaded runtime: stream position,
// every subscription with its undelivered results, and every host with
// its engine state. Subscribers' plans are NOT serialized here — the
// session layer snapshots queries and recompiles them against the
// restored catalog; this codec records only which plan index each
// subscription uses. A host's query is: it may be a union no
// subscriber wrote, or outlive the member it was compiled for.

import (
	"fmt"
	"slices"

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
// under those indexes and opts are the engine options of every host the
// runtime rebuilds (session-wide accounting and eviction; no result
// callback: sinks are not data, so restored subscriptions collect).
// The catalog reference counts are rebuilt by re-retaining each hosted
// plan, mirroring live subscribe.
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
	c.Len(&n, 24)
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
		c.I64(&s.from)
		snap.Slice(c, &s.buf, 32, core.CodeResult)
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
			rt.subs = append(rt.subs, s)
		}
	}
	// Always written set. A clear bit marks a frame from a build where
	// sharing was optional and off: it registered no group, so every
	// group registers at decode, the first per fingerprint.
	shared := true
	c.Bool(&shared)
	// Hosts in creation order — the order they advance and flush in —
	// each naming its group by first appearance in that order.
	var groups []*group
	nh := len(rt.hosts)
	c.Len(&nh, 20)
	for i := 0; i < nh && c.Err() == nil; i++ {
		var h *host
		if !c.Decoding() {
			h = rt.hosts[i]
		}
		rt.codeHost(c, &groups, h, !shared, opts)
	}
	c.I64(&rt.shareFlips)
	c.I64(&rt.sharedSavedOps)
	if c.Decoding() && c.Err() == nil {
		for _, s := range rt.subs {
			c.Check(s.group != nil && s.group.newest().viewOf(s) >= 0, "a subscription is not served by its group's newest host")
		}
	}
}

// codeHost lists one host in wire order: its group (and, where the
// group first appears, whether it is registered for joiners), its
// query, the saved-operations base, the subscriptions it serves and its
// engine. Decoding recompiles the query and recomputes the projections
// from the two plans' RETURN lists, which the snapshot pins; unshared
// (a frame written without sharing) registers every group it can.
func (rt *Runtime) codeHost(c *snap.Coder, groups *[]*group, h *host, unshared bool, opts []core.Option) {
	g, q := new(group), query.Query{}
	if h != nil {
		g, q = h.g, *h.plan.Query
	}
	gi := slices.Index(*groups, g)
	if gi < 0 {
		gi = len(*groups)
	}
	c.Int(&gi)
	c.Check(gi >= 0 && gi <= len(*groups), "host names group %d of %d", gi, len(*groups))
	if c.Err() != nil {
		return
	}
	registered := g.key != ""
	if gi < len(*groups) {
		g = (*groups)[gi]
	} else {
		*groups = append(*groups, g)
		c.Bool(&registered)
	}
	if q.Code(c); c.Decoding() {
		if c.Err() != nil {
			return
		}
		plan, err := core.NewPlanIn(rt.cat, &q)
		if err == nil {
			err = rt.cat.Retain(plan)
		}
		if c.Check(err == nil, "rebuilding a host: %v", err); err != nil {
			return
		}
		if registered || unshared {
			rt.register(g, plan.Fingerprint())
			c.Check(g.key != "" || !registered, "two groups registered under one fingerprint")
		}
		c.Check(len(g.hosts) == 0 || g.newest().plan.Fingerprint() == plan.Fingerprint(), "a group's hosts differ in fingerprint")
		h = rt.newHost(g, plan, opts)
	}
	nv := len(h.views)
	c.Len(&nv, 8)
	for j := 0; j < nv && c.Err() == nil; j++ {
		var id int
		if !c.Decoding() {
			id = h.views[j].sub.id
		}
		if c.Int(&id); c.Decoding() {
			s := rt.Lookup(id)
			ok := s != nil && (s.group == nil || s.group == g) && h.viewOf(s) < 0 &&
				s.plan.Fingerprint() == h.plan.Fingerprint() && h.attach(rt, s)
			if c.Check(ok, "host serves subscription %d: unknown, repeated, of another group or not covered", id); ok {
				s.group = g
			}
		}
	}
	c.I64(&h.base)
	h.eng.Code(c)
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
