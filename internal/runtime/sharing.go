package runtime

// Shared trend aggregation across hosted queries (the Hamlet
// direction: sharing is a runtime decision per burst, not a static
// one). Subscriptions whose plans carry the same sharing fingerprint
// (identical pattern, semantics, predicates, grouping and window —
// core/sharedagg.go) form a sharing GROUP. A group can execute two
// ways:
//
//   - solo: every member's engine aggregates independently (the
//     pre-sharing behaviour, and the only behaviour when shared
//     aggregation is disabled).
//
//   - shared: one group-owned HOST engine runs the union of the
//     members' aggregation specs, computing the sub-trend sums once;
//     at emission the host fans each result out to every member as a
//     cheap column projection (the per-query correction), delivered
//     through the member's own engine so downstream consumers are
//     oblivious.
//
// Which way a group runs is decided per epoch by a burstiness monitor
// (events-per-epoch vs fleet size, with hysteresis) and changed ONLY
// at window boundaries: a flip picks the boundary W* = the first
// window fully after the current watermark, retires the outgoing side
// with Engine.RetireFrom(W*) and aligns the incoming side with
// Engine.ResumeFrom(W*). The outgoing side keeps processing events
// until the watermark closes its remaining windows (< W*), then
// drains away; every window is owned by exactly one side, so results
// stay byte-identical across flips. Member engines always exist —
// while a member is served by the host its engine is just removed
// from event dispatch (watermark passes continue, keeping its stream
// clock current for a later revival) and acts as the member's result
// channel.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/window"
)

// Monitor thresholds: share when the group's per-epoch event volume
// reaches shareUpFactor×K (K = member count), unshare when it falls
// below shareDownFactor×K. The gap is hysteresis; epochs with zero
// events decide nothing. The heuristic only picks the execution mode —
// results are identical either way — so a mis-prediction costs
// throughput, never correctness.
const (
	shareUpFactor   = 2
	shareDownFactor = 1
)

// memberMode is the execution state of one group member.
type memberMode uint8

const (
	// memberSolo: the member's own engine is live and receives events.
	memberSolo memberMode = iota
	// memberDraining: the member's engine was retired at the flip
	// boundary and still processes events for its remaining windows.
	memberDraining
	// memberShared: the member's engine is drained; the host serves its
	// windows from m.from on.
	memberShared
)

// groupMember is one subscription's membership in a sharing group.
type groupMember struct {
	sub  *Subscription
	mode memberMode
	// served: the host computes this member's aggregates for windows
	// >= from, projected through proj. Stays true through an unshare
	// transition until the retiring host drains.
	served bool
	from   int64
	proj   []int
}

// groupMode is the execution state of a sharing group.
type groupMode uint8

const (
	groupSolo      groupMode = iota // every member runs its own engine
	groupSharing                    // flip to shared in flight: members draining, host live
	groupShared                     // host serves every served member
	groupUnsharing                  // flip to solo in flight: host retiring, members revived
)

// shareGroup is one sharing group: the members, the optional host,
// and the per-epoch monitor state.
type shareGroup struct {
	rt      *Runtime
	key     string // sharing fingerprint
	win     window.Spec
	mode    groupMode
	members []*groupMember

	// union/host exist while the group runs shared (or a transition is
	// in flight). The host is a pseudo-subscription (id -1): indexed
	// for event dispatch, never part of rt.subs.
	union        *core.SpecUnion
	host         *Subscription
	hostRetiring bool

	// wantRefresh: a member joined whose specs the union does not
	// cover; the next unshare/share cycle rebuilds the union over the
	// full membership.
	wantRefresh bool
	// poisoned: compiling the union plan failed; the group stays solo.
	poisoned bool

	// Per-epoch monitor state.
	lastEpoch  int64
	epochValid bool
	probeBase  int64
	hostBase   int64
}

// EnableSharedAggregation turns runtime share/unshare decisions on.
// hostOpts are the engine options every group host engine is built
// with (accounting, eviction — mirroring what the caller passes for
// member engines; the host's result callback is group-owned). Call
// before subscribing: already-hosted subscriptions are not regrouped.
func (rt *Runtime) EnableSharedAggregation(hostOpts ...core.Option) {
	if rt.groups == nil {
		rt.groups = map[string]*shareGroup{}
	}
	rt.sharedOn = true
	rt.hostOpts = hostOpts
}

// groupJoin registers a freshly subscribed s with its sharing group,
// creating the group on first contact. aligned/alignT describe the
// watermark the new engine was aligned to (false: the stream has not
// started). Reports whether the dispatch index must be rebuilt.
func (rt *Runtime) groupJoin(s *Subscription, alignT int64, aligned bool) (changed bool) {
	key := s.plan.Fingerprint()
	g := rt.groups[key]
	if g == nil {
		g = &shareGroup{rt: rt, key: key, win: s.plan.Query.Window}
		rt.groups[key] = g
		rt.groupList = append(rt.groupList, g)
	}
	m := &groupMember{sub: s, mode: memberSolo}
	g.members = append(g.members, m)
	s.group, s.gm = g, m
	switch g.mode {
	case groupSolo:
		if len(g.members) >= 2 && !g.poisoned {
			return g.initiateShare(alignT, aligned)
		}
	case groupSharing, groupShared:
		if proj, ok := g.union.Project(s.plan.Specs); ok {
			// The host's union already covers the newcomer: serve it
			// from the first window fully after its alignment point.
			// Its fresh engine owns nothing below that boundary, so it
			// drains instantly.
			from := int64(0)
			if aligned {
				from = g.win.FirstFullWindow(alignT)
			}
			s.eng.RetireFrom(from)
			m.from, m.proj, m.served = from, proj, true
			m.mode = memberDraining
			if s.eng.Drained() {
				m.mode = memberShared
			}
			return true
		}
		// Novel specs: ride solo until the next share decision rebuilds
		// the union over the full membership.
		g.wantRefresh = true
	case groupUnsharing:
		// The group is returning to solo; the newcomer is already solo.
	}
	return false
}

// initiateShare flips a solo group to shared execution at the window
// boundary W* after watermark alignT: a host engine running the spec
// union takes ownership of windows >= W*, every member engine retires
// at W* and drains. Reports whether the dispatch index must be
// rebuilt (false only when union-plan compilation failed).
func (g *shareGroup) initiateShare(alignT int64, aligned bool) bool {
	rt := g.rt
	union := core.NewSpecUnion()
	projs := make([][]int, len(g.members))
	for i, m := range g.members {
		projs[i], _ = union.Add(m.sub.plan.Specs)
	}
	uq := core.UnionQuery(g.members[0].sub.plan.Query, union.Specs())
	if err := g.startHost(uq); err != nil {
		// Members validated individually; a union that fails to compile
		// means the group cannot share — stay solo and stop trying.
		g.poisoned = true
		return false
	}
	g.union = union
	g.hostRetiring = false
	var boundary int64
	if aligned {
		boundary = g.win.FirstFullWindow(alignT)
		g.host.eng.AlignTo(alignT)
	}
	for i, m := range g.members {
		m.sub.eng.RetireFrom(boundary)
		m.from, m.proj, m.served = boundary, projs[i], true
		m.mode = memberDraining
	}
	g.mode = groupSharing
	g.hostBase = 0
	rt.shareFlips++
	g.trySharingComplete()
	return true
}

// startHost compiles and retains the union query and builds the host
// engine, its results fanned out to the members.
func (g *shareGroup) startHost(uq *query.Query) error {
	rt := g.rt
	plan, err := core.NewPlanIn(rt.cat, uq)
	if err != nil {
		return err
	}
	if err := rt.cat.Retain(plan); err != nil {
		rt.cat.DiscardPlan(plan)
		return err
	}
	opts := append(append([]core.Option(nil), rt.hostOpts...), core.WithResultCallback(g.fanout))
	g.host = &Subscription{id: -1, plan: plan, eng: core.NewEngine(plan, opts...), rt: rt, active: true}
	return nil
}

// initiateUnshare flips a shared group back to solo execution at the
// window boundary W* after watermark t: the host retires at W* and
// drains (still fanning out its remaining windows), every served
// member's engine revives and owns windows from W* on.
func (g *shareGroup) initiateUnshare(t int64, saw bool) {
	g.accountSaved()
	var boundary int64
	if saw {
		boundary = g.win.FirstFullWindow(t)
	}
	g.host.eng.RetireFrom(boundary)
	g.hostRetiring = true
	for _, m := range g.members {
		if m.mode == memberShared || m.mode == memberDraining {
			m.sub.eng.Unretire()
			m.sub.eng.ResumeFrom(boundary)
			m.mode = memberSolo
		}
	}
	g.mode = groupUnsharing
	g.rt.shareFlips++
	g.tryUnsharingComplete()
}

// trySharingComplete finishes a solo→shared flip once every draining
// member has emitted its last pre-boundary window.
func (g *shareGroup) trySharingComplete() bool {
	for _, m := range g.members {
		if m.mode == memberDraining && !m.sub.eng.Drained() {
			return false
		}
	}
	for _, m := range g.members {
		if m.mode == memberDraining {
			m.mode = memberShared
		}
	}
	g.mode = groupShared
	return true
}

// tryUnsharingComplete finishes a shared→solo flip once the retiring
// host has fanned out its last pre-boundary window.
func (g *shareGroup) tryUnsharingComplete() bool {
	if !g.host.eng.Drained() {
		return false
	}
	g.releaseHost()
	for _, m := range g.members {
		m.served = false
		m.proj = nil
	}
	g.mode = groupSolo
	return true
}

// releaseHost closes and releases the host engine. The host streams
// through the fan-out callback, so Close never returns buffered
// results; a drained host flushes nothing.
func (g *shareGroup) releaseHost() {
	g.accountSaved()
	g.host.eng.Close()
	g.host.eng.ReleaseIntern()
	g.rt.cat.Release(g.host.plan)
	g.host = nil
	g.union = nil
	g.hostRetiring = false
}

// fanout is the host engine's result callback: each union result is
// projected onto every served member's RETURN columns and delivered
// through the member's own engine, subject to the member's first
// served window.
func (g *shareGroup) fanout(r core.Result) {
	for _, m := range g.members {
		if !m.served || r.Wid < m.from {
			continue
		}
		m.sub.eng.Deliver(core.ProjectResult(r, m.proj))
	}
}

// step runs the group's per-watermark bookkeeping: transition
// completion, then membership-driven unshares (a shared group whose
// served population fell to one, or whose union no longer covers a
// member, returns to solo at the next boundary). Reports whether the
// dispatch index must be rebuilt.
func (g *shareGroup) step(t int64, saw bool) (changed bool) {
	switch g.mode {
	case groupSharing:
		changed = g.trySharingComplete()
	case groupUnsharing:
		changed = g.tryUnsharingComplete()
	}
	if g.mode == groupShared && (g.servedCount() <= 1 || g.wantRefresh) {
		g.wantRefresh = false
		g.initiateUnshare(t, saw)
		changed = true
	}
	return changed
}

// tick runs the per-epoch burstiness monitor. Decisions are made only
// in stable modes (solo, shared) on epoch change, from the event
// volume the probe engine saw during the closed epoch: the host when
// shared, the first member otherwise (every member of a group sees
// the same sub-stream).
func (g *shareGroup) tick(t int64) (changed bool) {
	ep := g.win.EpochOf(t)
	if g.epochValid && ep == g.lastEpoch {
		return false
	}
	if g.epochValid {
		delta := g.probeEvents() - g.probeBase
		k := int64(len(g.members))
		switch {
		case g.mode == groupSolo && !g.poisoned && k >= 2 && delta >= shareUpFactor*k:
			changed = g.initiateShare(t, true)
		case g.mode == groupShared && delta > 0 && delta < shareDownFactor*k:
			g.initiateUnshare(t, true)
			changed = true
		case g.mode == groupShared:
			g.accountSaved()
		}
	}
	g.lastEpoch, g.epochValid = ep, true
	g.probeBase = g.probeEvents()
	return changed
}

// probeEvents returns the monitor's event-volume probe.
func (g *shareGroup) probeEvents() int64 {
	if g.host != nil && !g.hostRetiring {
		return g.host.eng.EventsProcessed()
	}
	if len(g.members) > 0 {
		return g.members[0].sub.eng.EventsProcessed()
	}
	return 0
}

// servedCount returns how many members the host currently serves.
func (g *shareGroup) servedCount() int {
	n := 0
	for _, m := range g.members {
		if m.served {
			n++
		}
	}
	return n
}

// accountSaved folds the host's event volume since the last
// accounting into the runtime's saved-operations estimate: every
// event the host aggregated once would have been aggregated by each
// served member individually.
func (g *shareGroup) accountSaved() {
	if g.host == nil {
		return
	}
	cur := g.host.eng.EventsProcessed()
	if served := g.servedCount(); served > 1 {
		g.rt.sharedSavedOps += (cur - g.hostBase) * int64(served-1)
	}
	g.hostBase = cur
}

// shareStep advances every group's state machine at watermark t:
// completions first, then the epoch monitor. Called inside the
// watermark advance, before events are dispatched, so flips always
// land on the boundary the advance exposed.
func (rt *Runtime) shareStep(t int64) {
	changed := false
	for _, g := range rt.groupList {
		if g.step(t, true) {
			changed = true
		}
		if g.tick(t) {
			changed = true
		}
	}
	if changed {
		rt.rebuildIndex()
	}
}

// groupLeave detaches an unsubscribing member from its group,
// flushing the host-computed state of its still-open windows so the
// member's result stream is complete: the host is cloned via the
// snapshot codec, the clone's open windows are flushed, and the
// member's share is projected and delivered in window order around
// the member engine's own flush. Returns the member's complete
// results (nil in callback mode).
func (rt *Runtime) groupLeave(s *Subscription) ([]core.Result, error) {
	g, m := s.group, s.gm
	var out []core.Result
	switch {
	case m.served && m.mode == memberDraining:
		// The member still owns open windows below the boundary: flush
		// them first, then append the host's share above it.
		s.eng.Close()
		if err := g.deliverCloneTo(m); err != nil {
			return nil, err
		}
		out = s.eng.Results()
	case m.served:
		// Drained (shared) or revived (unsharing): the host's share
		// precedes whatever the member engine still owns.
		if err := g.deliverCloneTo(m); err != nil {
			return nil, err
		}
		out = s.eng.Close()
	default:
		out = s.eng.Close()
	}
	for i, mm := range g.members {
		if mm == m {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	s.group, s.gm = nil, nil
	if len(g.members) == 0 {
		// Group retires with its last subscriber.
		if g.host != nil {
			g.releaseHost()
		}
		rt.dropGroup(g)
		return out, nil
	}
	if g.mode == groupShared && g.servedCount() <= 1 {
		g.initiateUnshare(rt.lastTime, rt.sawEvent)
	}
	return out, nil
}

// deliverCloneTo flushes the host's open windows for one member
// without disturbing the host: the host engine is cloned through the
// snapshot codec, the clone is closed, and the member's projection of
// every window at/above its boundary is delivered through its engine.
func (g *shareGroup) deliverCloneTo(m *groupMember) error {
	if g.host == nil {
		return nil
	}
	var w snap.Writer
	g.host.eng.Code(snap.Encoder(&w))
	clone, dec := core.NewEngine(g.host.plan), snap.Decoder(w.Reader())
	clone.Code(dec)
	if err := dec.Err(); err != nil {
		return fmt.Errorf("runtime: cloning shared host for unsubscribe: %v", err)
	}
	for _, r := range clone.Close() {
		if r.Wid >= m.from {
			m.sub.eng.Deliver(core.ProjectResult(r, m.proj))
		}
	}
	return nil
}

// dropGroup removes an empty group.
func (rt *Runtime) dropGroup(g *shareGroup) {
	delete(rt.groups, g.key)
	for i, cur := range rt.groupList {
		if cur == g {
			rt.groupList = append(rt.groupList[:i], rt.groupList[i+1:]...)
			break
		}
	}
}
