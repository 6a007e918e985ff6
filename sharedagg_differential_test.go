package cogra_test

// Differential tests for shared trend aggregation (the fingerprint
// registry in internal/core + the group/host ownership model in
// internal/runtime), extending the repo's differential spine:
//
//   - a fleet of sharing-equivalent queries (same PATTERN, SEMANTICS,
//     WHERE, GROUP-BY and WITHIN — only RETURN differs), which a
//     session always folds into one sharing group, produces
//     byte-identical results to one session per query under the same
//     schedule, across all three granularities × {inline, 4 workers} ×
//     the lifecycle variants of TestSharedAggregationDifferential: a
//     snapshot cut with live groups, churn that retires the group's
//     last member, a late joiner the live host does not cover (a
//     handover at the next window boundary), a member leaving and a
//     snapshot cut while both hosts of that handover are live, and
//     membership 2 → 1 → 2 — and, with a binding slot over values that
//     age out, to one non-evicting core.Engine per query over the whole
//     stream (the evict variant);
//   - the stream's phase structure (dense burst → sparse idle → dense
//     burst) places those membership changes where they bite: a
//     handover taken in a dense phase keeps its retired host live for
//     hundreds of events, one taken in the sparse phase drains it
//     within an event or two and leaves windows no event lands in;
//   - every cut checks Stats continuous across restore, and the group
//     retires with its last subscriber — after churn removes every
//     member, Stats().SharedGroups is 0.
//
// Runs under -race in CI like the rest of the spine.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	cogra "repro"
	"repro/internal/core"
	"repro/internal/fuzz/diff"
)

// sharedFleetQueries returns, per granularity, three RETURN-variants
// of one sharing-equivalent query body. Every variant compiles to the
// same sharing fingerprint, so a shared session folds each trio into
// one group hosting the union of their aggregation specs.
func sharedFleetQueries() map[string][]string {
	bodies := map[string]string{
		"type": `
			PATTERN (SEQ(A+, B))+
			SEMANTICS skip-till-any-match
			WHERE [patient] GROUP-BY patient
			WITHIN 64 SLIDE 32`,
		"mixed": `
			PATTERN M+
			SEMANTICS skip-till-any-match
			WHERE [patient] AND M.rate < NEXT(M).rate
			GROUP-BY patient
			WITHIN 64 SLIDE 64`,
		"pattern": `
			PATTERN M+
			SEMANTICS skip-till-next-match
			WHERE [patient] AND M.rate <= NEXT(M).rate
			GROUP-BY patient
			WITHIN 96 SLIDE 48`,
	}
	returns := map[string][]string{
		"type":    {"COUNT(*), SUM(A.v)", "COUNT(*)", "AVG(A.v), COUNT(B)"},
		"mixed":   {"COUNT(*), MAX(M.rate)", "COUNT(*)", "MIN(M.rate), AVG(M.rate)"},
		"pattern": {"COUNT(*)", "COUNT(M)", "SUM(M.rate)"},
	}
	out := map[string][]string{}
	for g, body := range bodies {
		for _, ret := range returns[g] {
			out[g] = append(out[g], "RETURN "+ret+"\n"+body)
		}
	}
	return out
}

// sharedPhaseStream emits the session test mix (A/B sequences, M
// random walks, X noise, all keyed by patient) with a three-phase
// tempo: a dense burst (time crawls, heavy ties), a sparse idle
// stretch (time jumps per event, so every few events close a window),
// then a second dense burst.
func sharedPhaseStream(n int) []*cogra.Event {
	rng := rand.New(rand.NewSource(23))
	rates := [3]float64{60, 70, 80}
	out := make([]*cogra.Event, 0, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		p := rng.Intn(3)
		patient := fmt.Sprintf("p%d", p)
		ward := fmt.Sprintf("w%d", rng.Intn(2))
		var ev *cogra.Event
		switch x := rng.Intn(10); {
		case x < 3:
			ev = cogra.NewEvent("A", tm).WithSym("patient", patient).
				WithSym("ward", ward).WithNum("v", float64(rng.Intn(100)))
		case x < 5:
			ev = cogra.NewEvent("B", tm).WithSym("patient", patient).
				WithSym("ward", ward).WithNum("v", float64(rng.Intn(100)))
		case x < 8:
			rates[p] += float64(rng.Intn(7)) - 3
			ev = cogra.NewEvent("M", tm).WithSym("patient", patient).
				WithSym("ward", ward).WithNum("rate", rates[p])
		default:
			ev = cogra.NewEvent("X", tm).WithSym("patient", patient).
				WithSym("ward", ward).WithNum("noise", 1)
		}
		ev.ID = int64(i + 1)
		out = append(out, ev)
		sparse := 3*n/8 <= i && i < 5*n/8
		switch {
		case sparse:
			tm += 16 + int64(rng.Intn(16)) // idle: a few events per window
		case rng.Intn(8) < 5:
			// dense tie run
		case rng.Intn(8) == 0:
			tm += 4 + int64(rng.Intn(8)) // short hop, stays inside the window
		default:
			tm++
		}
	}
	return out
}

// sharedSchedule is one lifecycle variant: fleet members subscribe up
// front unless join names the event index they arrive at, leave names
// the index a member unsubscribes at, and cutAt >= 0 snapshots,
// discards and restores the session there. An evict variant runs the
// fleet with a binding slot over values that age out (wardSlot,
// rotateWards) and compares it against one non-evicting core.Engine per
// query instead of one session per query.
type sharedSchedule struct {
	cutAt int
	join  map[int]int
	leave map[int]int
	evict bool
}

// quietBoundary returns the first event index >= lo whose predecessor's
// time stamp lies just past a common boundary of every fleet window
// (slides 32, 48, 64), with the next few events close behind: a host
// retired there keeps its last window open well past index+6.
func quietBoundary(t *testing.T, events []*cogra.Event, lo int) int {
	t.Helper()
	for i := lo; i+6 < len(events); i++ {
		if tm := events[i-1].Time; tm%192 < 8 && events[i+6].Time < tm+20 {
			return i
		}
	}
	t.Fatal("no quiet window boundary in the stream")
	return -1
}

// sharedDiffRun drives one scenario: the fleet plus an unrelated
// control query subscribe, the stream flows in batches that stop at
// every scheduled index, and the schedule applies. With only >= 0 the
// session hosts that one query (fleet index, or len(fleet) for the
// control) under its part of the schedule: the per-query reference.
// Returns per-query results (fleet order, control last), the stats
// probed at the end of the first dense phase, and the final stats.
func sharedDiffRun(t *testing.T, opts []cogra.SessionOption, fleet []string, events []*cogra.Event, sched sharedSchedule, only int) ([][]cogra.Result, cogra.SessionStats, cogra.SessionStats) {
	t.Helper()
	n := len(fleet)
	hosted := func(i int) bool { return only < 0 || i == only }
	sess := cogra.NewSession(opts...)
	subs := make([]*cogra.Subscription, n+1)
	results := make([][]cogra.Result, n+1)
	subscribe := func(i int, src string) {
		var err error
		if subs[i], err = sess.Subscribe(cogra.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	late := map[int]bool{}
	probeAt := len(events) * 3 / 8 // end of the first dense phase
	stops := []int{sched.cutAt, probeAt}
	for at, fi := range sched.join {
		late[fi] = true
		stops = append(stops, at)
	}
	for at := range sched.leave {
		stops = append(stops, at)
	}
	for i, src := range fleet {
		if !late[i] && hosted(i) {
			subscribe(i, src)
		}
	}
	if hosted(n) {
		subscribe(n, sessionTestQueries()["contiguous"])
	}
	var mid cogra.SessionStats
	var err error
	for i := 0; i < len(events); {
		end := min(i+256, len(events))
		for _, p := range stops {
			if p > i && p < end {
				end = p
			}
		}
		if err := sess.PushBatch(events[i:end]); err != nil {
			t.Fatal(err)
		}
		i = end
		if i == probeAt {
			if mid, err = sess.Stats(); err != nil {
				t.Fatal(err)
			}
		}
		if fi, ok := sched.join[i]; ok && hosted(fi) {
			subscribe(fi, fleet[fi])
		}
		if fi, ok := sched.leave[i]; ok && hosted(fi) {
			results[fi] = subs[fi].Unsubscribe()
			if err := subs[fi].Err(); err != nil {
				t.Fatal(err)
			}
			subs[fi] = nil
		}
		if i == sched.cutAt {
			var buf bytes.Buffer
			if err := sess.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			before, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			sess.Close() // the original "crashes"; discard its tail
			if sess, err = cogra.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			after, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
				t.Fatalf("stats not continuous across restore\nbefore: %+v\nafter:  %+v", before, after)
			}
			all := sess.Subscriptions()
			for qi, sub := range subs {
				if sub == nil {
					continue
				}
				if id := sub.ID(); id >= len(all) || !all[id].Active() {
					t.Fatalf("restored session lost subscription %d", qi)
				}
				subs[qi] = all[sub.ID()]
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if sub != nil {
			results[i] = sub.Drain()
		}
	}
	return results, mid, final
}

// TestSharedAggregationDifferential pins the sharing invariant: sharing
// never changes results — only which engine computes them. Every
// (granularity × session mode × lifecycle variant) cell compares the
// fleet's session, which shares, against one session per query under
// the same mode, schedule and cut (a session hosting one query shares
// with nobody) — or, in the evict variant, against one non-evicting
// core.Engine per query — and checks the fleet's session actually
// shared (the differential is not vacuous) via the sharing counters.
func TestSharedAggregationDifferential(t *testing.T) {
	events := sharedPhaseStream(3000)
	// A handover in the second dense phase whose retired host is still
	// live six events on, and one in the sparse phase.
	dense := quietBoundary(t, events, 2000)
	rotated := rotateWards(events)
	variants := map[string]sharedSchedule{
		"evict":    {cutAt: -1, evict: true},
		"snapshot": {cutAt: 1873}, // groups are live
		// The group shrinks member by member and retires with the last.
		"churn": {cutAt: -1, leave: map[int]int{2048: 1, 2304: 2, 2560: 0}},
		// A late joiner whose RETURN the live host does not cover.
		"handover": {cutAt: -1, join: map[int]int{dense: 2}},
		// A member leaves while two hosts of its group are live.
		"leave2hosts": {cutAt: -1, join: map[int]int{dense: 2}, leave: map[int]int{dense + 6: 0}},
		// A cut between the handover and the retired host's last window.
		"snapshot-handover": {cutAt: dense + 6, join: map[int]int{dense: 2}},
		// Membership 2 → 1 → 2 across the sparse phase: the rejoin hands
		// over to a host that drains within a couple of events.
		"rejoin": {cutAt: -1, leave: map[int]int{1300: 1}, join: map[int]int{1500: 2}},
	}
	for mode, mopts := range sessionModes() {
		for vname, v := range variants {
			for gname, fleet := range sharedFleetQueries() {
				t.Run(mode+"/"+vname+"/"+gname, func(t *testing.T) {
					fleet, events := fleet, events
					if v.evict {
						fleet, events = nil, rotated
						for _, src := range sharedFleetQueries()[gname] {
							fleet = append(fleet, wardSlot(src))
						}
					}
					got, mid, final := sharedDiffRun(t, mopts, fleet, events, v, -1)
					for qi := range got {
						var want []cogra.Result
						if v.evict {
							src := sessionTestQueries()["contiguous"] // the control, last
							if qi < len(fleet) {
								src = fleet[qi]
							}
							want, _ = engineRun(t, src, events)
						} else {
							solo, _, _ := sharedDiffRun(t, mopts, fleet, events, v, qi)
							want = solo[qi]
						}
						if len(want) == 0 {
							t.Errorf("query %d: no results; differential test is vacuous", qi)
						}
						if !diff.Equal(got[qi], want) {
							t.Errorf("query %d: shared run diverges from its per-query reference\n%s", qi, diff.Diff(got[qi], want))
						}
					}
					if mid.SharedGroups < 1 {
						t.Errorf("sharing never engaged by the dense-phase probe: %+v", mid)
					}
					if final.ShareFlips < 1 || final.SharedSavedOps < 1 {
						t.Errorf("sharing counters vacuous at close: handovers=%d saved=%d", final.ShareFlips, final.SharedSavedOps)
					}
					if vname == "churn" && final.SharedGroups != 0 {
						t.Errorf("sharing group outlives its last member: %d groups at close", final.SharedGroups)
					}
				})
			}
		}
		for name, pair := range collidingPairs() {
			t.Run(mode+"/colliding/"+name, func(t *testing.T) {
				sess := cogra.NewSession(mopts...)
				subs := make([]*cogra.Subscription, len(pair))
				for i, q := range pair {
					var err error
					if subs[i], err = sess.Subscribe(q()); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.PushBatch(events); err != nil {
					t.Fatal(err)
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				var wants [][]cogra.Result
				for i, q := range pair {
					plan, err := core.NewPlan(q())
					if err != nil {
						t.Fatal(err)
					}
					eng := core.NewEngine(plan)
					for _, e := range events {
						if err := eng.Process(e); err != nil {
							t.Fatal(err)
						}
					}
					want := eng.Close()
					if got := subs[i].Drain(); !diff.Equal(got, want) {
						t.Errorf("query %d: the session's results differ from its solo engine's\n%s", i, diff.Diff(got, want))
					}
					wants = append(wants, want)
				}
				if len(wants[0]) == 0 || diff.Equal(wants[0], wants[1]) {
					t.Error("the pair's solo results are empty or equal; the test is vacuous")
				}
			})
		}
	}
}

// collidingPairs returns pairs of different queries that a display
// rendering of the query writes alike — a literal that is the number 5
// or the string "5" — as constructors, since a session validates the
// query it subscribes.
func collidingPairs() map[string][2]func() *cogra.Query {
	const literal = `
		RETURN COUNT(*)
		PATTERN SEQ(A+, B)
		SEMANTICS skip-till-any-match
		WHERE [patient] AND A.v = %s
		GROUP-BY patient
		WITHIN 64 SLIDE 32`
	parsed := func(lit string) func() *cogra.Query {
		return func() *cogra.Query { return cogra.MustParse(fmt.Sprintf(literal, lit)) }
	}
	return map[string][2]func() *cogra.Query{
		"literal": {parsed("5"), parsed("'5'")},
	}
}

// TestSharedAggregationAddedAtRestore: a restored group takes joiners
// as a live one does. Each golden frame restores, takes a second
// subscription of its first active query, and runs a suffix. The second
// subscription must join the restored query's group (SharedGroups >= 1)
// and report the first one's results from its first full window on.
// The subtests group the frames by topology.
func TestSharedAggregationAddedAtRestore(t *testing.T) {
	frames := map[string][]string{
		"inline":   {"detached", "handover", "literals", "mixed", "unconstrained", "vectors"},
		"workers2": {"retired"},
		"workers4": {"fleet"},
	}
	for mode, names := range frames {
		t.Run(mode, func(t *testing.T) {
			for _, name := range names {
				sess, err := cogra.Restore(bytes.NewReader(readGolden(t, name)))
				if err != nil {
					t.Fatal(err)
				}
				st, err := sess.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if (st.Workers > 1) != (mode != "inline") {
					t.Fatalf("%s restores to %d workers: filed under the wrong topology", name, st.Workers)
				}
				var first *cogra.Subscription
				for _, sub := range sess.Subscriptions() {
					if sub.Active() {
						first = sub
						break
					}
				}
				if first == nil {
					t.Fatalf("%s has no active subscription", name)
				}
				second, err := sess.Subscribe(cogra.MustParse(first.Plan().Query.String()))
				if err != nil {
					t.Fatal(err)
				}
				if joined, err := sess.Stats(); err != nil || joined.SharedGroups < 1 {
					t.Errorf("%s: the second subscription did not join the restored group: %+v, %v", name, joined, err)
				}
				// The session test mix after the cut, with C for X and an x
				// value, so the three-slot SEQ(A+, B, C) of the vectors frame
				// matches too.
				suffix := sessionTestStream(600)
				for i, e := range suffix {
					e.Time += st.Watermark + 1
					e.WithSym("x", fmt.Sprintf("x%d", i%3))
					if e.Type == "X" {
						e.Type = "C"
					}
				}
				if err := sess.PushBatch(suffix); err != nil {
					t.Fatal(err)
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				got := second.Drain()
				if len(got) == 0 {
					t.Errorf("%s: the second subscription reported nothing; the test is vacuous", name)
				}
				if want := fullWindowsAfter(first.Drain(), st.Watermark); !diff.Equal(got, want) {
					t.Errorf("%s: the second subscription diverges from the first's full windows\n%s", name, diff.Diff(got, want))
				}
			}
		})
	}
}
