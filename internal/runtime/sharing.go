package runtime

// Engine ownership. Every engine the runtime runs is a HOST owned by a
// GROUP, and a subscription is a projection (a view) over its group's
// hosts. Subscriptions whose plans carry the same sharing fingerprint
// (identical pattern, semantics, predicates, grouping and window —
// core/sharedagg.go) can be served by one engine over the union of
// their RETURN lists, which is never more work than one engine each;
// so a fingerprint-equal subscriber always joins the group registered
// under its fingerprint, and a subscription with no such group starts
// a group of one, viewing its own plan's engine as it is.
//
// A joiner whose RETURN list the group's newest host already computes
// attaches a view from its first full window on. Otherwise the group
// takes one HANDOVER at that window boundary W*: a new host over the
// grown union owns the windows >= W* (Engine.AlignTo), the old host is
// capped there (Engine.RetireFrom), keeps processing events until the
// watermark closes its remaining windows, and is then released. Every
// window is owned by exactly one host and hosts advance oldest first,
// so each member's results are byte-identical to a private engine's,
// in window order. Unions only grow: a group retires with its last
// member.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/snap"
)

// group owns the engines serving one set of subscriptions.
type group struct {
	// key is the fingerprint the group is registered under in
	// Runtime.groups; empty when another group of that fingerprint was
	// registered first (a joiner whose union plan failed to compile).
	key string
	// hosts, oldest first. Every member has a view on the last one, which
	// owns the newest windows; the others are retired and draining.
	hosts []*host
}

func (g *group) newest() *host { return g.hosts[len(g.hosts)-1] }

// host is one engine and the subscriptions reporting from it.
type host struct {
	g     *group
	plan  *core.Plan
	eng   *core.Engine
	views []view
	// base is the engine's event count up to which the saved-operations
	// estimate has been folded into the runtime's counter.
	base int64
}

// view is one subscription's projection over a host: proj[i] is the
// host column of the member's i-th RETURN value (nil: the same list).
type view struct {
	sub  *Subscription
	proj []int
}

// register makes g the group fingerprint-equal subscribers join, unless
// another group already is.
func (rt *Runtime) register(g *group, key string) {
	if rt.groups[key] == nil {
		g.key, rt.groups[key] = key, g
	}
}

// newHost builds a host of g over plan (already retained), aligned to
// the runtime's watermark once events flowed (a restore decodes over
// it): opts are the engine options of the subscriber it is built for
// (accounting, eviction); its results go to the group.
func (rt *Runtime) newHost(g *group, plan *core.Plan, opts []core.Option) *host {
	h := &host{g: g, plan: plan}
	h.eng = core.NewEngine(plan, append(opts[:len(opts):len(opts)], core.WithResultCallback(h.emit))...)
	if rt.sawEvent {
		h.eng.AlignTo(rt.lastTime)
	}
	g.hosts = append(g.hosts, h)
	rt.hosts = append(rt.hosts, h)
	rt.index(h)
	return h
}

// emit is a host engine's result callback: every member it serves
// reports the windows from its first full one on, projected onto its
// own RETURN columns.
func (h *host) emit(r core.Result) {
	for _, v := range h.views {
		if r.Wid >= v.sub.from {
			v.sub.deliver(core.ProjectResult(r, v.proj))
		}
	}
}

// attach adds a view of s; false when the host's plan lacks a column s
// returns.
func (h *host) attach(rt *Runtime, s *Subscription) bool {
	proj, ok := core.ProjectSpecs(h.plan.Specs, s.plan.Specs)
	if ok {
		h.settle(rt)
		h.views = append(h.views, view{s, proj})
	}
	return ok
}

// viewOf returns the index of s's view on h, or -1.
func (h *host) viewOf(s *Subscription) int {
	return slices.IndexFunc(h.views, func(v view) bool { return v.sub == s })
}

// unaccounted is the host's share of the saved-operations estimate
// since base: every event it aggregated once would have been aggregated
// by each member beyond the first.
func (h *host) unaccounted() int64 {
	return (h.eng.EventsProcessed() - h.base) * int64(max(len(h.views)-1, 0))
}

// settle folds unaccounted into the runtime's counter — before the
// membership it was earned under changes.
func (h *host) settle(rt *Runtime) {
	rt.sharedSavedOps += h.unaccounted()
	h.base = h.eng.EventsProcessed()
}

func (h *host) drained() bool { return h.eng.Drained() }

// join places a new subscription: in the group registered under its
// fingerprint — on the newest host when that computes its RETURN list,
// else through a handover — or in a new group of one over its own plan.
func (rt *Runtime) join(s *Subscription, opts []core.Option) error {
	if g := rt.groups[s.plan.Fingerprint()]; g != nil && (g.newest().attach(rt, s) || rt.handover(g, s, opts)) {
		s.group = g
		return nil
	}
	if err := rt.cat.Retain(s.plan); err != nil {
		return err
	}
	s.group = &group{}
	rt.register(s.group, s.plan.Fingerprint())
	h := rt.newHost(s.group, s.plan, opts)
	h.attach(rt, s)
	return nil
}

// handover gives g a new host over its RETURN union grown by s's
// columns, serving every member and s from s's first window on, and
// retires the current one there. False when the union plan does not
// compile although every member did on its own: s cannot join g.
func (rt *Runtime) handover(g *group, s *Subscription, opts []core.Option) bool {
	cur := g.newest()
	plan, err := core.NewPlanIn(rt.cat, core.UnionQuery(cur.plan.Query, s.plan.Specs))
	if err != nil {
		return false
	}
	if err := rt.cat.Retain(plan); err != nil {
		rt.cat.DiscardPlan(plan)
		return false
	}
	next := rt.newHost(g, plan, opts)
	for _, v := range cur.views {
		next.attach(rt, v.sub)
	}
	next.attach(rt, s)
	rt.shareFlips++
	// Before the first event, and when cur itself only started at this
	// boundary, cur owns nothing and goes at once.
	if cur.eng.RetireFrom(s.from); cur.drained() {
		rt.release((*host).drained)
	}
	return true
}

// leave flushes an unsubscribing member's open windows and detaches it
// from its group. The last member closes the real hosts and the group
// retires with it; otherwise each host is cloned through the snapshot
// codec, the clone's windows are flushed, and the member's share is
// delivered — oldest host first, so in window order.
func (rt *Runtime) leave(s *Subscription) error {
	g := s.group
	if len(g.newest().views) == 1 {
		for _, h := range g.hosts {
			h.eng.Close()
		}
		if g.key != "" {
			delete(rt.groups, g.key)
		}
		rt.release(func(h *host) bool { return h.g == g })
		return nil
	}
	for _, h := range g.hosts {
		i := h.viewOf(s)
		if i < 0 {
			continue
		}
		var w snap.Writer
		h.eng.Code(snap.Encoder(&w), math.MaxInt64)
		clone, dec := core.NewEngine(h.plan), snap.Decoder(w.Reader())
		clone.Code(dec, math.MaxInt64)
		if err := dec.Err(); err != nil {
			return fmt.Errorf("runtime: cloning shared host for unsubscribe: %v", err)
		}
		for _, r := range clone.Close() {
			if r.Wid >= s.from {
				s.deliver(core.ProjectResult(r, h.views[i].proj))
			}
		}
		h.settle(rt)
		h.views = slices.Delete(h.views, i, i+1)
	}
	return nil
}

// release drops the hosts gone selects (already flushed, or drained):
// their saved-operations account is settled, their intern memory and
// plan references are returned, and the dispatch index is rebuilt
// without them.
func (rt *Runtime) release(gone func(*host) bool) {
	for _, h := range rt.hosts {
		if gone(h) {
			h.settle(rt)
			h.eng.ReleaseIntern()
			rt.cat.Release(h.plan)
			h.g.hosts = slices.DeleteFunc(h.g.hosts, func(o *host) bool { return o == h })
		}
	}
	rt.hosts = slices.DeleteFunc(rt.hosts, gone)
	rt.rebuildIndex()
}
