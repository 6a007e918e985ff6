package cogra_test

// Differential tests for the columnar batch kernels and the fallback
// worker, extending the repo's differential spine:
//
//   - batch execution (PushBatch, arrival-order runs through the run
//     kernels) is byte-identical to event-at-a-time Push across all
//     three granularities (plus the contiguous wants-all path and the
//     Figure 2 plan whose alias A has both a stored and a table
//     predecessor) × {inline, 4 workers} × {slack, catalog compaction},
//     on a run-shaped stream whose type runs carry equal-timestamp ties
//     and straddle window boundaries and on a stream whose equal-time
//     groups interleave types, and — with a binding slot over
//     values that age out, which session engines evict — equal to a
//     bare core.Engine without eviction fed one event at a time;
//   - late joiners that break worker-locality run on one full-stream
//     fallback worker, byte-identical to an inline session, and the
//     fallback retires with its last subscriber;
//   - snapshot/restore across a mid-batch cut — between two batches
//     that split an equal-time, same-type run — is byte-identical to
//     the undisturbed run, with the fallback worker restored.
//
// Runs under -race in CI like the rest of the spine.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// runShapedStream emits the session test stream reshaped into type
// runs: bursts of 3–8 events of one type, with timestamps that tie
// within a burst (dense equal-time runs), advance, or jump far enough
// mid-burst to cross window boundaries. This is the adversarial shape
// for the batch kernels — dispatch cuts consecutive same-type events
// into runs, so the bursts produce long runs that the ties and jumps
// then split across equal-time groups and window flushes.
func runShapedStream(n int) []*cogra.Event {
	rng := rand.New(rand.NewSource(41))
	rates := [3]float64{60, 70, 80}
	out := make([]*cogra.Event, 0, n)
	tm := int64(0)
	for len(out) < n {
		p := rng.Intn(3)
		kind := rng.Intn(10)
		burst := 3 + rng.Intn(6)
		for j := 0; j < burst && len(out) < n; j++ {
			ward := fmt.Sprintf("w%d", rng.Intn(2))
			ev := kindEvent(rng, &rates, kind, p, ward, tm)
			ev.ID = int64(len(out) + 1)
			out = append(out, ev)
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // tie: the run grows within one timestamp
			case 7:
				tm += 20 + int64(rng.Intn(60)) // jump across a window boundary mid-burst
			default:
				tm++
			}
		}
	}
	return out
}

// kindEvent draws one event of the session test stream for patient p
// at time tm: kind 0–2 an A, 3–4 a B, 5–7 an M stepping p's rate, 8–9
// an X no query names.
func kindEvent(rng *rand.Rand, rates *[3]float64, kind, p int, ward string, tm int64) *cogra.Event {
	patient := fmt.Sprintf("p%d", p)
	switch {
	case kind < 3:
		return cogra.NewEvent("A", tm).WithSym("patient", patient).
			WithSym("ward", ward).WithNum("v", float64(rng.Intn(100)))
	case kind < 5:
		return cogra.NewEvent("B", tm).WithSym("patient", patient).
			WithSym("ward", ward).WithNum("v", float64(rng.Intn(100)))
	case kind < 8:
		rates[p] += float64(rng.Intn(7)) - 3
		return cogra.NewEvent("M", tm).WithSym("patient", patient).
			WithSym("ward", ward).WithNum("rate", rates[p])
	default:
		return cogra.NewEvent("X", tm).WithSym("patient", patient).
			WithSym("ward", ward).WithNum("noise", 1)
	}
}

// interleavedStream emits the session test stream with its types
// interleaved inside each time stamp: groups of 3–9 equal-time events
// whose types are drawn independently, so a group reads like
// A B A M A X and one type's events are split into several runs by
// another type's. Time advances by one between groups or jumps across
// a window boundary. Dispatch hands every engine its runs in arrival
// order, and on this shape that order is no grouping by type:
// next-match and contiguous plans depend on it, and the staged commit
// of the any-match kernels must keep it invisible to them.
func interleavedStream(n int) []*cogra.Event {
	rng := rand.New(rand.NewSource(43))
	rates := [3]float64{60, 70, 80}
	out := make([]*cogra.Event, 0, n)
	tm := int64(0)
	for len(out) < n {
		size := 3 + rng.Intn(7)
		for j := 0; j < size && len(out) < n; j++ {
			p, kind := rng.Intn(3), rng.Intn(10)
			ev := kindEvent(rng, &rates, kind, p, fmt.Sprintf("w%d", rng.Intn(2)), tm)
			ev.ID = int64(len(out) + 1)
			out = append(out, ev)
		}
		if rng.Intn(8) == 7 {
			tm += 20 + int64(rng.Intn(60)) // jump across a window boundary
		} else {
			tm++
		}
	}
	return out
}

// assertSplitsTypes fails unless some equal-time group carries one
// type in two or more runs separated by another type: the one shape on
// which arrival order differs from every grouping by type.
func assertSplitsTypes(t *testing.T, events []*cogra.Event) {
	t.Helper()
	splits := 0
	for i := 0; i < len(events); {
		j := i
		seen := map[string]bool{}
		split := false
		for ; j < len(events) && events[j].Time == events[i].Time; j++ {
			if j > i && events[j].Type == events[j-1].Type {
				continue
			}
			split = split || seen[events[j].Type]
			seen[events[j].Type] = true
		}
		if split {
			splits++
		}
		i = j
	}
	if splits == 0 {
		t.Fatal("no equal-time group splits a type across runs; interleaving coverage is vacuous")
	}
}

// assertRunShaped fails unless the stream actually carries the shapes
// the kernel differentials claim to cover: equal-time same-type runs
// of meaningful length, and same-type runs whose timestamps cross a
// window boundary (the queries' smallest slide is 32).
func assertRunShaped(t *testing.T, events []*cogra.Event) {
	t.Helper()
	maxTieRun, straddles, run := 0, 0, 1
	for i := 1; i < len(events); i++ {
		if events[i].Type == events[i-1].Type {
			if events[i].Time == events[i-1].Time {
				run++
			} else {
				if events[i].Time/32 != events[i-1].Time/32 {
					straddles++
				}
				run = 1
			}
		} else {
			run = 1
		}
		if run > maxTieRun {
			maxTieRun = run
		}
	}
	if maxTieRun < 3 {
		t.Fatalf("stream has no equal-time type run longer than %d; tie coverage is vacuous", maxTieRun)
	}
	if straddles == 0 {
		t.Fatal("no type run straddles a window boundary; straddle coverage is vacuous")
	}
}

// kernelRun feeds one query (plus optional compaction churn) through a
// session: event-at-a-time when batch is false, dispatch-sized batches
// when true. churnAt must be a multiple of the batch size so both
// paths unsubscribe the churn query at the same stream position.
func kernelRun(t *testing.T, opts []cogra.SessionOption, src string, events []*cogra.Event, batch bool, churnAt int) []cogra.Result {
	t.Helper()
	sess := cogra.NewSession(opts...)
	sub, err := sess.Subscribe(cogra.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	var extra *cogra.Subscription
	if churnAt >= 0 {
		if extra, err = sess.Subscribe(cogra.MustParse(sessionTestQueries()["mixed"])); err != nil {
			t.Fatal(err)
		}
	}
	const chunk = 256
	for i := 0; i < len(events); i += chunk {
		if extra != nil && i >= churnAt {
			extra.Unsubscribe()
			if err := extra.Err(); err != nil {
				t.Fatal(err)
			}
			extra = nil
		}
		end := min(i+chunk, len(events))
		if batch {
			if err := sess.PushBatch(events[i:end]); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, e := range events[i:end] {
				if err := sess.Push(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return sub.Drain()
}

// figure2Mixed is the paper's Figure 2 pattern with an adjacent
// predicate on A only: alias A then has a stored predecessor (A, in Te)
// AND a table predecessor (B, in Tt), so within an equal-time run of A's
// the kernel serves the B part from the per-time-stamp memo and scans
// the stored A's per event on top of it. Every side of this differential
// runs that same kernel, so it pins that batching, worker count and the
// bounded-state variants do not change what the memo serves; that the
// memo serves the right sums is core's TestRunMemoSurvivesStoredScan.
const figure2Mixed = `
	RETURN COUNT(*), SUM(A.v)
	PATTERN (SEQ(A+, B))+
	SEMANTICS skip-till-any-match
	WHERE [patient] AND A.v < NEXT(A).v
	GROUP-BY patient
	WITHIN 64 SLIDE 32`

// TestSessionBatchKernelDifferential pins the run kernels: batch
// execution equals event-at-a-time for every granularity × session
// mode × bounded-state variant, on the run-shaped stream and on the
// interleaved one. The eviction variant binds a slot over values that
// age out (wardSlot, rotateWards), and its event-at-a-time side is the
// unbounded reference: a bare core.Engine that never evicts.
func TestSessionBatchKernelDifferential(t *testing.T) {
	runs, interleaved := runShapedStream(3000), interleavedStream(3000)
	assertRunShaped(t, runs)
	assertSplitsTypes(t, interleaved)
	queries := sessionTestQueries()
	queries["figure2-mixed"] = figure2Mixed
	// The run-shaped rows keep their names; the interleaved ones are
	// prefixed.
	for prefix, base := range map[string][]*cogra.Event{"": runs, "interleaved/": interleaved} {
		shuffled, slack := shuffleBounded(base, 6, 7)
		if slack == 0 {
			t.Fatal("shuffle produced no disorder; slack variant is vacuous")
		}
		variants := map[string]struct {
			opts    []cogra.SessionOption
			events  []*cogra.Event
			churnAt int
			evict   bool // wardSlot over rotateWards, against a non-evicting engine
		}{
			"plain":      {nil, base, -1, false},
			"slack":      {[]cogra.SessionOption{cogra.WithSlack(slack)}, shuffled, -1, false},
			"eviction":   {nil, rotateWards(base), -1, true},
			"compaction": {nil, base, 1024, false},
		}
		for mode, mopts := range sessionModes() {
			for vname, v := range variants {
				for qname, src := range queries {
					t.Run(prefix+mode+"/"+vname+"/"+qname, func(t *testing.T) {
						opts := append(mopts[:len(mopts):len(mopts)], v.opts...)
						var want []cogra.Result
						if v.evict {
							src = wardSlot(src)
							want, _ = engineRun(t, src, v.events)
						} else {
							want = kernelRun(t, opts, src, v.events, false, v.churnAt)
						}
						got := kernelRun(t, opts, src, v.events, true, v.churnAt)
						if !diff.Equal(got, want) {
							t.Errorf("batch kernels diverge from event-at-a-time\n%s", diff.Diff(got, want))
						}
						if len(want) == 0 {
							t.Error("no results; differential test is vacuous")
						}
					})
				}
			}
		}
	}
}

// groupQueries returns the mid-stream subscribers of the fallback
// tests: two ward-partitioned queries and one unpartitioned global
// query. Subscribed after routing froze on patient, none covers the
// routing attributes, so all join the one fallback worker.
func groupQueries() map[string]string {
	return map[string]string{
		"ward-seq": `
			RETURN COUNT(*), SUM(A.v)
			PATTERN (SEQ(A+, B))+
			SEMANTICS skip-till-any-match
			WHERE [ward] GROUP-BY ward
			WITHIN 64 SLIDE 32`,
		"ward-trend": `
			RETURN COUNT(*), MAX(M.rate)
			PATTERN M+
			SEMANTICS skip-till-any-match
			WHERE [ward] AND M.rate < NEXT(M).rate
			GROUP-BY ward
			WITHIN 64 SLIDE 64`,
		"global": `
			RETURN COUNT(*)
			PATTERN M+
			SEMANTICS contiguous
			WITHIN 64 SLIDE 64`,
	}
}

// groupRun drives one fallback-worker scenario: a patient-partitioned
// resident freezes the routing over a prefix, the group queries join
// mid-stream, half the stream flows, one ward query leaves, the rest
// flows. Returns every subscriber's results plus the group counts
// observed mid-stream and after all group subscribers left.
func groupRun(t *testing.T, opts []cogra.SessionOption, events []*cogra.Event) (map[string][]cogra.Result, int, int) {
	t.Helper()
	sess := cogra.NewSession(opts...)
	subs := map[string]*cogra.Subscription{}
	var err error
	if subs["resident"], err = sess.Subscribe(cogra.MustParse(sessionTestQueries()["type"])); err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events[:800]); err != nil {
		t.Fatal(err)
	}
	for name, src := range groupQueries() {
		if subs[name], err = sess.Subscribe(cogra.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.PushBatch(events[800:1600]); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	midGroups := st.ExecutorGroups
	results := map[string][]cogra.Result{}
	results["ward-trend"] = subs["ward-trend"].Unsubscribe()
	if err := subs["ward-trend"].Err(); err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events[1600:]); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ward-seq", "global"} {
		results[name] = subs[name].Unsubscribe()
		if err := subs[name].Err(); err != nil {
			t.Fatal(err)
		}
	}
	st, err = sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	finalGroups := st.ExecutorGroups
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	results["resident"] = subs["resident"].Drain()
	return results, midGroups, finalGroups
}

// TestExecutorGroupsDifferential pins fallback routing: the same churn
// schedule on an inline session and a 4-worker session produces
// byte-identical results for every subscriber; the 4-worker session
// hosts every late joiner on one fallback worker, which retires with
// its last subscriber.
func TestExecutorGroupsDifferential(t *testing.T) {
	events := runShapedStream(2400)
	inline, _, _ := groupRun(t, nil, events)
	routed, mid, final := groupRun(t, []cogra.SessionOption{cogra.WithWorkers(4)}, events)

	for name := range inline {
		if len(inline[name]) == 0 {
			t.Errorf("%s: no results; differential test is vacuous", name)
		}
		if !diff.Equal(routed[name], inline[name]) {
			t.Errorf("%s: 4-worker session diverges from inline\n%s", name, diff.Diff(routed[name], inline[name]))
		}
	}
	if mid != 1 {
		t.Errorf("4-worker session hosts %d executor groups mid-stream, want 1", mid)
	}
	if final != 0 {
		t.Errorf("the fallback worker outlives its subscribers: %d executor groups, want 0", final)
	}
}

// groupSnapRun is groupRun with a snapshot/restore cut: at event
// cutAt (-1: never) — chosen inside an equal-time, same-type run, so
// the cut splits a dispatch run between two batches — it snapshots,
// discards the session, restores and continues. Returns every
// subscriber's results plus the final stats rendering.
func groupSnapRun(t *testing.T, events []*cogra.Event, cutAt int) (map[string][]cogra.Result, string) {
	t.Helper()
	sess := cogra.NewSession(cogra.WithWorkers(4))
	names := []string{"resident", "ward-seq", "ward-trend", "global"}
	ids := map[string]int{}
	subs := map[string]*cogra.Subscription{}
	var err error
	if subs["resident"], err = sess.Subscribe(cogra.MustParse(sessionTestQueries()["type"])); err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events[:600]); err != nil {
		t.Fatal(err)
	}
	for name, src := range groupQueries() {
		if subs[name], err = sess.Subscribe(cogra.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		ids[name] = subs[name].ID()
	}
	for i := 600; i < len(events); {
		end := min(i+256, len(events))
		if cutAt > i && cutAt < end {
			end = cutAt
		}
		if err := sess.PushBatch(events[i:end]); err != nil {
			t.Fatal(err)
		}
		i = end
		if i == cutAt {
			var buf bytes.Buffer
			if err := sess.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			before, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if before.ExecutorGroups != 1 {
				t.Fatalf("snapshot cut sees %d executor groups, want 1", before.ExecutorGroups)
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
			for _, name := range names {
				if ids[name] >= len(all) || !all[ids[name]].Active() {
					t.Fatalf("restored session lost subscription %s", name)
				}
				subs[name] = all[ids[name]]
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	results := map[string][]cogra.Result{}
	for _, name := range names {
		results[name] = subs[name].Drain()
	}
	return results, fmt.Sprintf("%+v", st)
}

// TestSnapshotRestoreExecutorGroups pins checkpoint/restore for the
// fallback topology across a mid-batch cut: the cut lands inside an
// equal-time, same-type run (splitting it between two batches), the
// restored session rebuilds the fallback worker, and results AND final
// stats equal the undisturbed run byte-for-byte.
func TestSnapshotRestoreExecutorGroups(t *testing.T) {
	events := runShapedStream(2400)
	cutAt := -1
	for i := 1000; i < 1800; i++ {
		if events[i].Time == events[i-1].Time && events[i].Type == events[i-1].Type {
			cutAt = i
			break
		}
	}
	if cutAt < 0 {
		t.Fatal("no equal-time same-type run to cut; mid-batch coverage is vacuous")
	}
	want, wantStats := groupSnapRun(t, events, -1)
	got, gotStats := groupSnapRun(t, events, cutAt)
	for name := range want {
		if len(want[name]) == 0 {
			t.Errorf("%s: no results; differential test is vacuous", name)
		}
		if !diff.Equal(got[name], want[name]) {
			t.Errorf("%s: restored run diverges from undisturbed run\n%s", name, diff.Diff(got[name], want[name]))
		}
	}
	if gotStats != wantStats {
		t.Errorf("final stats diverge\ngot:  %s\nwant: %s", gotStats, wantStats)
	}
}
