package runtime

// Checkpoint codec for the single-threaded runtime: stream position,
// every subscription with its undelivered results, and every host with
// its engine state. Plans are NOT serialized here — the session layer
// codes each distinct plan once, in a table ahead of the topology, and
// compiles each entry once at restore; subscriptions and hosts write an
// index into that table.

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/snap"
)

// Code lists the runtime's execution state in wire order. Encoding, idx
// maps every plan a subscription or host runs to its index in the
// session's plan table. Decoding — into a fresh runtime on the restored
// catalog — plans holds the table's compiled entries, made counts the
// subscriptions the executor ever made (the bound on the ids this
// runtime handed out), and opts are the engine options of every host
// the runtime rebuilds (session-wide accounting and eviction; no result
// callback: sinks are not data, so restored subscriptions collect).
// A runtime or host engine whose clock passes ceil, the owner's
// watermark (math.MinInt64 before its first event), fails the frame:
// an engine may stand past its runtime (an older build aligned a late
// joiner on a quiet worker to the owner's watermark), never past the
// owner. The catalog reference counts are rebuilt by re-retaining each
// hosted plan, mirroring live subscribe.
func (rt *Runtime) Code(c *snap.Coder, idx map[*core.Plan]int32, plans []*core.Plan, made int, ceil int64, opts []core.Option) {
	c.I64(&rt.lastTime)
	c.Bool(&rt.sawEvent)
	c.Check(!rt.sawEvent || rt.lastTime <= ceil, "a runtime clock is ahead of its owner's watermark")
	c.I64(&rt.seq)
	c.Int(&rt.nextID)
	if c.Decoding() && (c.Err() != nil || rt.nextID < 0 || rt.nextID > made) {
		// Every id the runtime ever handed out belongs to a subscription
		// the executor made, and Close sizes its result table by it.
		c.Check(false, "runtime numbered %d subscriptions of the %d ever made", rt.nextID, made)
		rt.nextID = 0
		return
	}
	n := len(rt.subs)
	c.Len(&n, 24)
	for i := 0; i < n && c.Err() == nil; i++ {
		s := &Subscription{rt: rt, active: true}
		if !c.Decoding() {
			s = rt.subs[i]
		}
		c.Int(&s.id)
		rt.codePlan(c, &s.plan, idx, plans)
		c.I64(&s.from)
		snap.Slice(c, &s.buf, 32, core.CodeResult)
		if c.Decoding() {
			c.Check(s.id >= 0 && s.id < rt.nextID && rt.Lookup(s.id) == nil, "runtime subscription id %d out of range or repeated", s.id)
			if c.Err() != nil {
				return
			}
			rt.subs = append(rt.subs, s)
		}
	}
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
		rt.codeHost(c, &groups, h, idx, plans, ceil, opts)
	}
	c.I64(&rt.shareFlips)
	c.I64(&rt.sharedSavedOps)
	if c.Decoding() && c.Err() == nil {
		for _, s := range rt.subs {
			c.Check(s.group != nil && s.group.newest().viewOf(s) >= 0, "a subscription is not served by its group's newest host")
		}
	}
}

// codePlan codes a reference to a plan table entry. Decoding retains
// the entry for one more hosting, as live subscribe does; the table was
// compiled against this very catalog moments ago, so a failed retain
// means the snapshot is inconsistent.
func (rt *Runtime) codePlan(c *snap.Coder, p **core.Plan, idx map[*core.Plan]int32, plans []*core.Plan) {
	pi, ok := idx[*p] // decoding: no index, and nothing to look up
	if !ok && !c.Decoding() {
		c.Fail(fmt.Errorf("runtime snapshot: a hosted plan is missing from the plan table"))
	}
	c.I32(&pi)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if c.Check(pi >= 0 && int(pi) < len(plans), "plan %d of a %d-entry table", pi, len(plans)); c.Err() == nil {
		*p = plans[pi]
		err := rt.cat.Retain(*p)
		c.Check(err == nil, "retaining plan %d: %v", pi, err)
	}
}

// codeHost lists one host in wire order: its group (and, where the
// group first appears, whether it is registered for joiners), its plan,
// the subscriptions it serves, the saved-operations base and its
// engine, whose clock ceil bounds. Decoding recomputes the projections
// from the two plans' RETURN lists, which the plan table pins.
func (rt *Runtime) codeHost(c *snap.Coder, groups *[]*group, h *host, idx map[*core.Plan]int32, plans []*core.Plan, ceil int64, opts []core.Option) {
	g, plan := new(group), (*core.Plan)(nil)
	if h != nil {
		g, plan = h.g, h.plan
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
	if rt.codePlan(c, &plan, idx, plans); c.Decoding() {
		if c.Err() != nil {
			return
		}
		if registered {
			rt.register(g, plan.Fingerprint())
			c.Check(g.key != "", "two groups registered under one fingerprint")
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
	h.eng.Code(c, ceil)
}

// HostPlans returns the plan of every host, in creation order — with
// the subscriptions' plans, what a snapshot's plan table must hold.
func (rt *Runtime) HostPlans() []*core.Plan {
	out := make([]*core.Plan, len(rt.hosts))
	for i, h := range rt.hosts {
		out[i] = h.plan
	}
	return out
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
