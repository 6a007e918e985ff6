package runtime

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"weak"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/snap"
)

// testRand is a tiny deterministic xorshift.
type testRand uint64

func (r *testRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRand(x)
	return x
}

// mixedStream emits a multi-type stream exercising every query class:
// A/B sequences with accounts, Measurement random walks with patients,
// and X noise events no query matches (but contiguous semantics must
// still observe). Time stamps repeat (dense runs) and jump (idle
// gaps); IDs are pre-assigned so engines fed the same slice agree.
func mixedStream(n int) []*event.Event {
	r := testRand(99)
	rates := [3]float64{60, 70, 80}
	out := make([]*event.Event, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		switch x := r.next() % 10; {
		case x < 3:
			out = append(out, event.New("A", t).
				WithSym("acct", fmt.Sprintf("acct-%d", r.next()%3)).
				WithNum("v", float64(r.next()%100)))
		case x < 5:
			out = append(out, event.New("B", t).
				WithSym("acct", fmt.Sprintf("acct-%d", r.next()%3)).
				WithNum("v", float64(r.next()%100)))
		case x < 8:
			p := int(r.next() % 3)
			rates[p] += float64(int(r.next()%7)) - 3
			out = append(out, event.New("Measurement", t).
				WithSym("patient", fmt.Sprintf("p%d", p)).
				WithNum("rate", rates[p]))
		default:
			out = append(out, event.New("X", t).WithNum("noise", 1))
		}
		out[i].ID = int64(i + 1)
		// Dense runs of equal time stamps, occasional idle gaps.
		switch r.next() % 8 {
		case 0, 1, 2:
			// same time stamp
		case 7:
			t += 40 + int64(r.next()%200) // idle gap spanning windows
		default:
			t++
		}
	}
	return out
}

// testQueries covers all three granularities plus contiguous
// semantics (the wants-all path) and a windowless-partition case.
func testQueries() []*query.Query {
	return []*query.Query{
		// Type-grained: ANY without adjacent predicates.
		query.NewBuilder(pattern.Plus(pattern.Seq(pattern.Plus(pattern.Type("A")), pattern.Type("B")))).
			Return(agg.Spec{Func: agg.CountStar}, agg.Spec{Func: agg.Sum, Alias: "A", Attr: "v"}).
			Semantics(query.Any).
			Within(64, 32).
			MustBuild(),
		// Type-grained with binding slots and grouping.
		query.NewBuilder(pattern.Seq(pattern.Plus(pattern.Type("A")), pattern.Type("B"))).
			Return(agg.Spec{Func: agg.CountStar}).
			Semantics(query.Any).
			WhereEquiv(predicate.Equivalence{Attr: "acct"}).
			GroupBy(query.GroupKey{Attr: "acct"}).
			Within(128, 128).
			MustBuild(),
		// Mixed-grained: adjacent predicate forces stored events.
		query.NewBuilder(pattern.Plus(pattern.TypeAs("Measurement", "M"))).
			Return(agg.Spec{Func: agg.CountStar}, agg.Spec{Func: agg.Max, Alias: "M", Attr: "rate"}).
			Semantics(query.Any).
			WhereEquiv(predicate.Equivalence{Attr: "patient"}).
			WhereAdjacent(predicate.Adjacent{Left: "M", LeftAttr: "rate", Op: predicate.Lt, Right: "M", RightAttr: "rate"}).
			GroupBy(query.GroupKey{Attr: "patient"}).
			Within(64, 64).
			MustBuild(),
		// Pattern-grained, skip-till-next-match.
		query.NewBuilder(pattern.Plus(pattern.TypeAs("Measurement", "M"))).
			Return(agg.Spec{Func: agg.CountStar}).
			Semantics(query.Next).
			WhereEquiv(predicate.Equivalence{Attr: "patient"}).
			WhereAdjacent(predicate.Adjacent{Left: "M", LeftAttr: "rate", Op: predicate.Le, Right: "M", RightAttr: "rate"}).
			GroupBy(query.GroupKey{Attr: "patient"}).
			Within(96, 48).
			MustBuild(),
		// Pattern-grained, contiguous: X noise events reset the chain,
		// so this query must observe every event (wants-all routing).
		query.NewBuilder(pattern.Plus(pattern.TypeAs("Measurement", "M"))).
			Return(agg.Spec{Func: agg.CountStar}).
			Semantics(query.Cont).
			WhereEquiv(predicate.Equivalence{Attr: "patient"}).
			GroupBy(query.GroupKey{Attr: "patient"}).
			Within(64, 64).
			MustBuild(),
	}
}

// TestRuntimeMatchesIndependentEngines is the differential guarantee
// of the shared runtime: hosting N plans over one catalog and one
// resolve pass produces output byte-identical to N independent
// engines, each resolving and filtering the full stream on its own —
// across all three granularities and the contiguous wants-all path.
func TestRuntimeMatchesIndependentEngines(t *testing.T) {
	events := mixedStream(4000)
	queries := testQueries()

	rt := New()
	var subs []*Subscription
	for qi, q := range queries {
		s, err := rt.Subscribe(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		subs = append(subs, s)
	}
	if err := rt.ProcessBatch(events); err != nil {
		t.Fatal(err)
	}
	shared := rt.Close()

	for qi, q := range queries {
		plan, err := core.NewPlan(q) // private catalog, like a solo run
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		eng := core.NewEngine(plan)
		if err := eng.ProcessAll(events); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		independent := eng.Close()
		if got, want := fmt.Sprintf("%v", shared[qi]), fmt.Sprintf("%v", independent); got != want {
			t.Errorf("query %d (%v): shared runtime diverges from independent engine\nshared:      %s\nindependent: %s",
				qi, plan.Granularity, got, want)
		}
		if len(independent) == 0 {
			t.Errorf("query %d produced no results; differential test is vacuous", qi)
		}
		if subs[qi].ID() != qi {
			t.Errorf("subscription %d has id %d", qi, subs[qi].ID())
		}
	}
}

// TestRuntimeCallbacksAndErrors covers the per-query callback path,
// out-of-order rejection and post-Close usage.
func TestRuntimeCallbacksAndErrors(t *testing.T) {
	rt := New()
	var streamed []core.Result
	q := query.NewBuilder(pattern.Seq(pattern.Plus(pattern.Type("A")), pattern.Type("B"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		Within(10, 10).
		MustBuild()
	sub, err := rt.Subscribe(q, core.WithResultCallback(func(r core.Result) { streamed = append(streamed, r) }))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*event.Event{
		event.New("A", 1), event.New("A", 2), event.New("B", 3),
		event.New("Z", 15), // foreign type still advances the watermark
	} {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(streamed) != 1 {
		t.Fatalf("callback saw %d results before close, want 1 (watermark-driven emission)", len(streamed))
	}
	if err := rt.Process(event.New("A", 4)); err == nil {
		t.Error("out-of-order event accepted")
	}
	if sub.Plan().Granularity != core.TypeGrained {
		t.Errorf("granularity = %v", sub.Plan().Granularity)
	}
	rt.Close()
	if err := rt.Process(event.New("A", 99)); err == nil {
		t.Error("Process after Close accepted")
	}
	if _, err := rt.Subscribe(q); err == nil {
		t.Error("Subscribe after Close accepted")
	}
	if got := len(streamed); got != 1 {
		t.Fatalf("callback results = %d, want 1", got)
	}
	if streamed[0].Values[0].Count != 3 { // trends: A1B, A2B, A1A2B
		t.Errorf("COUNT(*) = %v, want 3", streamed[0].Values[0].Count)
	}
}

// TestRuntimeForeignCatalogPlan rejects hosting a plan compiled
// against a different catalog (its ids would index the wrong arrays).
func TestRuntimeForeignCatalogPlan(t *testing.T) {
	q := query.NewBuilder(pattern.Plus(pattern.Type("A"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		Within(10, 10).
		MustBuild()
	foreign, err := core.NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	rt := New()
	if _, err := rt.SubscribePlan(foreign); err == nil {
		t.Error("foreign-catalog plan accepted")
	}
}

// TestRuntimeUnsubscribeReleasesInternMemory: unsubscribing the last
// query referencing a high-cardinality equivalence attribute flushes
// its windows and returns its engine-side binding intern memory to the
// accountant — the engine-lifetime tables otherwise grow forever.
func TestRuntimeUnsubscribeReleasesInternMemory(t *testing.T) {
	// Alias-scoped equivalence: every distinct tag value lands in the
	// engine's binding intern tables.
	hot := query.NewBuilder(pattern.Plus(pattern.TypeAs("A", "A"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		WhereEquiv(predicate.Equivalence{Alias: "A", Attr: "tag"}).
		Within(1000, 1000).
		MustBuild()
	cold := query.NewBuilder(pattern.Plus(pattern.TypeAs("A", "A"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		Within(1000, 1000).
		MustBuild()

	rt := New()
	var acct metrics.Accountant
	hotSub, err := rt.Subscribe(hot, core.WithAccountant(&acct))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Subscribe(cold, core.WithAccountant(&acct)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		ev := event.New("A", int64(i)).WithSym("tag", fmt.Sprintf("tag-%d", i))
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	intern := rt.InternBytes()
	if intern <= 0 {
		t.Fatal("high-cardinality equivalence attribute interned nothing")
	}
	if got := rt.Stats().BindingInternBytes; got != intern {
		t.Errorf("Stats.BindingInternBytes = %d, want %d", got, intern)
	}
	before := acct.Current()

	res, err := hotSub.Unsubscribe()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("unsubscribe flushed no windows")
	}
	if got := rt.InternBytes(); got != 0 {
		t.Errorf("intern bytes after unsubscribe = %d, want 0 (cold query has no slots)", got)
	}
	if drop := before - acct.Current(); drop < intern {
		t.Errorf("accountant released %d bytes, want at least the %d intern bytes", drop, intern)
	}
	if hotSub.Active() {
		t.Error("subscription still active")
	}
	if _, err := hotSub.Unsubscribe(); err == nil {
		t.Error("double unsubscribe accepted")
	}
	if rt.Stats().Queries != 1 {
		t.Errorf("queries = %d, want 1", rt.Stats().Queries)
	}
	// The surviving query keeps processing.
	if err := rt.Process(event.New("A", 2000)); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeMidStreamSubscribeAligns: a mid-stream subscriber starts
// at the first fully covered window; its results over the suffix are
// byte-identical to a solo engine fed the suffix with partial windows
// filtered out.
func TestRuntimeMidStreamSubscribeAligns(t *testing.T) {
	events := mixedStream(3000)
	queries := testQueries()
	k := len(events) / 3
	joinTime := events[k-1].Time

	rt := New()
	if _, err := rt.Subscribe(queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.ProcessBatch(events[:k]); err != nil {
		t.Fatal(err)
	}
	var late []*Subscription
	for _, q := range queries[1:] {
		s, err := rt.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, s)
	}
	if err := rt.ProcessBatch(events[k:]); err != nil {
		t.Fatal(err)
	}
	shared := rt.Close()

	for i, q := range queries[1:] {
		eng := core.NewEngine(core.MustPlan(q))
		if err := eng.ProcessAll(events[k:]); err != nil {
			t.Fatal(err)
		}
		var want []core.Result
		for _, r := range eng.Close() {
			if r.Start > joinTime {
				want = append(want, r)
			}
		}
		got := shared[late[i].ID()]
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Errorf("late query %d diverges from filtered suffix solo run\ngot:  %v\nwant: %v", i+1, got, want)
		}
		if len(want) == 0 {
			t.Errorf("late query %d produced no results; test is vacuous", i+1)
		}
	}
}

// TestRuntimeRejectsMembershipChangeFromCallback: result callbacks
// fire inside Process while it ranges over the subscription list, so
// Subscribe/Unsubscribe from a callback must be rejected, not corrupt
// dispatch.
func TestRuntimeRejectsMembershipChangeFromCallback(t *testing.T) {
	q := query.NewBuilder(pattern.Plus(pattern.Type("A"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		Within(10, 10).
		MustBuild()
	rt := New()
	var sub *Subscription
	var subErr, unsubErr error
	fired := false
	sub, err := rt.Subscribe(q, core.WithResultCallback(func(core.Result) {
		fired = true
		_, unsubErr = sub.Unsubscribe()
		_, subErr = rt.Subscribe(q)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(event.New("A", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(event.New("A", 25)); err != nil { // closes window [0,10)
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("callback never fired; test is vacuous")
	}
	if unsubErr == nil {
		t.Error("Unsubscribe from a result callback accepted")
	}
	if subErr == nil {
		t.Error("Subscribe from a result callback accepted")
	}
	// The runtime stays usable and the deferred change works now.
	if _, err := sub.Unsubscribe(); err != nil {
		t.Errorf("deferred Unsubscribe failed: %v", err)
	}
}

// TestRuntimeProcessBatchMatchesProcess is the batch-of-one
// differential: Process is ProcessBatch on one event, and however the
// stream is cut — one event at a time, or uneven batches including
// empty ones — the results are identical.
func TestRuntimeProcessBatchMatchesProcess(t *testing.T) {
	events := mixedStream(3000)
	queries := testQueries()

	perEvent := New()
	batched := New()
	var perSubs, batchSubs []*Subscription
	for _, q := range queries {
		s1, err := perEvent.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := batched.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		perSubs, batchSubs = append(perSubs, s1), append(batchSubs, s2)
	}
	for _, ev := range events {
		if err := perEvent.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Uneven batch sizes, including empty ones.
	for i := 0; i < len(events); {
		n := (i * 13) % 61
		if i+n > len(events) {
			n = len(events) - i
		}
		if err := batched.ProcessBatch(events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
		if n == 0 {
			i++
			if err := batched.Process(events[i-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := perEvent.Close(), batched.Close()
	for i := range queries {
		got := fmt.Sprintf("%v", b[batchSubs[i].ID()])
		want := fmt.Sprintf("%v", a[perSubs[i].ID()])
		if got != want {
			t.Errorf("query %d: batch path diverges\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestRuntimeTypedErrors: runtime failures wrap the core sentinels.
func TestRuntimeTypedErrors(t *testing.T) {
	q := testQueries()[0]
	rt := New()
	sub, err := rt.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(event.New("A", 5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(event.New("A", 1)); !errors.Is(err, core.ErrLateEvent) {
		t.Errorf("out-of-order Process err = %v, want ErrLateEvent", err)
	}
	if err := rt.ProcessBatch([]*event.Event{event.New("A", 1)}); !errors.Is(err, core.ErrLateEvent) {
		t.Errorf("out-of-order ProcessBatch err = %v, want ErrLateEvent", err)
	}
	if _, err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Unsubscribe(); !errors.Is(err, core.ErrNotHosted) {
		t.Errorf("double Unsubscribe err = %v, want ErrNotHosted", err)
	}
	rt.Close()
	if err := rt.Process(event.New("A", 9)); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Process after Close err = %v, want ErrClosed", err)
	}
	if _, err := rt.Subscribe(q); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Subscribe after Close err = %v, want ErrClosed", err)
	}
}

// countQuery returns one RETURN-variant of a fixed query body: every
// variant has the same sharing fingerprint.
func countQuery(returns ...agg.Spec) *query.Query {
	return query.NewBuilder(pattern.Seq(pattern.Plus(pattern.Type("A")), pattern.Type("B"))).
		Return(returns...).
		Semantics(query.Any).
		Within(20, 10).
		MustBuild()
}

// TestGroupLifecycle walks one sharing group through the whole
// ownership model: a covered joiner attaches a view to the live host, an
// uncovered one hands over to a new host at the next window boundary,
// the retired host is released when the watermark closes its last
// window, a member leaving a shared host leaves it running, and the
// group retires with its last member.
func TestGroupLifecycle(t *testing.T) {
	count, sum := agg.Spec{Func: agg.CountStar}, agg.Spec{Func: agg.Sum, Alias: "A", Attr: "v"}
	rt := New()
	shape := func(step string, hosts, groups int, flips int64) {
		t.Helper()
		if st := rt.Stats(); len(rt.hosts) != hosts || st.SharedGroups != groups || st.ShareFlips != flips {
			t.Fatalf("%s: %d hosts, %d shared groups, %d handovers; want %d, %d, %d",
				step, len(rt.hosts), st.SharedGroups, st.ShareFlips, hosts, groups, flips)
		}
	}
	feed := func(typ string, tm int64) {
		t.Helper()
		if err := rt.Process(event.New(typ, tm).WithNum("v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	subscribe := func(returns ...agg.Spec) *Subscription {
		t.Helper()
		s, err := rt.Subscribe(countQuery(returns...))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := subscribe(count)
	shape("a group of one", 1, 0, 0)
	feed("A", 3)
	covered := subscribe(count)
	shape("covered joiner", 1, 1, 0)
	if v := rt.hosts[0].views; len(v) != 2 || v[0].proj != nil || v[1].proj != nil || covered.from != 1 {
		t.Fatalf("covered joiner: views %+v from window %d, want two identity views from window 1", v, covered.from)
	}
	grown := subscribe(count, sum)
	shape("uncovered joiner", 2, 1, 1)
	if old, cur := rt.hosts[0], rt.hosts[1]; len(old.views) != 2 || len(cur.views) != 3 || old.drained() {
		t.Fatalf("handover: retired host serves %d, new host %d, retired drained=%v", len(old.views), len(cur.views), old.drained())
	}
	feed("A", 12) // window 1 [10,30) belongs to the new host, window 0 [0,20) still to the old
	feed("B", 14)
	shape("both hosts live", 2, 1, 1)
	feed("A", 25) // closes window 0: the retired host owns nothing anymore
	shape("retired host drained", 1, 1, 1)
	if got := first.Drain(); len(got) != 1 || got[0].Wid != 0 || got[0].Values[0].Count != 3 {
		t.Fatalf("first member's window 0 = %v, want COUNT(*)=3 from the retired host", got)
	}
	if got := covered.Drain(); len(got) != 0 {
		t.Fatalf("covered joiner reported the partially observed window: %v", got)
	}
	for i, s := range []*Subscription{covered, first} {
		if _, err := s.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
		shape("member left", 1, 1-i, 1)
	}
	out, err := grown.Unsubscribe()
	if err != nil || len(out) == 0 {
		t.Fatalf("last member flushed %v, %v", out, err)
	}
	shape("group retired", 0, 0, 1)
	if len(rt.groups) != 0 {
		t.Fatalf("%d groups registered after the last member left", len(rt.groups))
	}
}

// TestReleasedEnginesAreUnreachable: an engine pools the sub-aggregators
// and window states of its closed windows, and the pools are the
// engine's own — they die with it. Once a handover's retired host has
// drained, and once a group's last member has unsubscribed, nothing in
// the runtime (or in the subscription handles the caller still holds)
// reaches the engine any more.
func TestReleasedEnginesAreUnreachable(t *testing.T) {
	count, sum := agg.Spec{Func: agg.CountStar}, agg.Spec{Func: agg.Sum, Alias: "A", Attr: "v"}
	rt := New()
	feed := func(typ string, tm int64) {
		t.Helper()
		if err := rt.Process(event.New(typ, tm).WithNum("v", 1)); err != nil {
			t.Fatal(err)
		}
	}
	collected := func(eng weak.Pointer[core.Engine]) bool {
		for i := 0; i < 3 && eng.Value() != nil; i++ {
			runtime.GC()
		}
		return eng.Value() == nil
	}
	first, err := rt.Subscribe(countQuery(count))
	if err != nil {
		t.Fatal(err)
	}
	retired := weak.Make(rt.hosts[0].eng)
	feed("A", 3)
	grown, err := rt.Subscribe(countQuery(count, sum)) // uncovered: hands over at window 1
	if err != nil {
		t.Fatal(err)
	}
	unsubscribed := weak.Make(rt.hosts[1].eng)
	feed("A", 12)
	feed("B", 14)
	if runtime.GC(); retired.Value() == nil {
		t.Fatal("the retired host's engine was collected while it still owns window 0; the test is vacuous")
	}
	feed("A", 25) // closes window 0: the retired host has drained, its pools are full
	if len(rt.hosts) != 1 {
		t.Fatalf("%d hosts after the retired one drained, want 1", len(rt.hosts))
	}
	if !collected(retired) {
		t.Error("the engine of the retired, drained host is still reachable")
	}
	feed("B", 37) // the new host closes windows too
	for _, s := range []*Subscription{first, grown} {
		if _, err := s.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rt.hosts) != 0 {
		t.Fatalf("%d hosts after the last member left, want 0", len(rt.hosts))
	}
	if !collected(unsubscribed) {
		t.Error("the engine of the unsubscribed group's host is still reachable")
	}
	runtime.KeepAlive(rt)
	runtime.KeepAlive(first)
	runtime.KeepAlive(grown)
}

// TestGroupOfOneEmitsWithoutAllocating pins the price of the ownership
// model where nothing is shared: a result leaving a host for the only
// subscription it serves — the identity projection — allocates nothing,
// exactly like a bare engine calling its core.WithResultCallback, so
// allocations per event cannot drift on fleets that share nothing.
func TestGroupOfOneEmitsWithoutAllocating(t *testing.T) {
	seen := 0
	rt := New()
	if _, err := rt.Subscribe(testQueries()[0], core.WithResultCallback(func(core.Result) { seen++ })); err != nil {
		t.Fatal(err)
	}
	r := core.Result{Wid: 3, Start: 96, End: 160, Values: []agg.Value{{Count: 7}, {F: 1}}}
	if n := testing.AllocsPerRun(100, func() { rt.hosts[0].emit(r) }); n != 0 {
		t.Errorf("emitting through a group of one costs %v allocations, want 0", n)
	}
	if seen == 0 {
		t.Fatal("the subscription's callback never fired")
	}
}

// TestRuntimeDispatchAllocatesNothing pins the one dispatch pass: on a
// warm runtime hosting a type-grained, a grouped mixed-grained, a
// next-match and a contiguous query, equal-time groups whose types
// interleave — A split into three runs, an X no query names between
// them — split, resolve and reach every host without allocating, at
// each new time stamp inside one window.
func TestRuntimeDispatchAllocatesNothing(t *testing.T) {
	qs := testQueries()
	rt := New()
	for _, q := range []*query.Query{qs[0], qs[2], qs[3], qs[4]} {
		if _, err := rt.Subscribe(q); err != nil {
			t.Fatal(err)
		}
	}
	m := func(p string) *event.Event {
		return event.New("Measurement", 0).WithSym("patient", p).WithNum("rate", 0)
	}
	a := func(acct string) *event.Event {
		return event.New("A", 0).WithSym("acct", acct).WithNum("v", 1)
	}
	group := []*event.Event{
		a("acct-0"), m("p0"), a("acct-1"), a("acct-2"),
		event.New("X", 0).WithNum("noise", 1),
		m("p1"), m("p0"), a("acct-0"),
		event.New("B", 0).WithSym("acct", "acct-1").WithNum("v", 2),
	}
	feed := func(ts int64) {
		for i, ev := range group {
			ev.Time, ev.ID = ts, 0
			if ev.Type == "Measurement" {
				ev.Num["rate"] = float64((ts + int64(i)) % 5)
			}
		}
		if err := rt.ProcessBatch(group); err != nil {
			t.Fatal(err)
		}
	}
	// Turn a window generation over, then open the windows the
	// measurement stays inside: none of the queries' windows closes in
	// [192, 224).
	for ts := int64(0); ts <= 192; ts++ {
		feed(ts)
	}
	ts := int64(192)
	if n := testing.AllocsPerRun(20, func() { ts++; feed(ts) }); n != 0 {
		t.Errorf("dispatching an interleaved group costs %v allocations, want 0", n)
	}
	if ts >= 224 {
		t.Fatalf("the measurement left its window (time %d)", ts)
	}
}

// TestRestoreKeepsPlanIdentity: the plan table codes each distinct plan
// once, so a restored runtime runs the plans the live one ran, shared
// where they were shared — a group of one on its subscription's own
// plan, two subscriptions of one plan on one entry, a handover's host
// on its union. Unsubscribing every member afterwards leaves the
// restored catalog as it leaves the live one: retain and release stay
// balanced.
func TestRestoreKeepsPlanIdentity(t *testing.T) {
	count, sum := agg.Spec{Func: agg.CountStar}, agg.Spec{Func: agg.Sum, Alias: "A", Attr: "v"}
	rt := New()
	p, err := core.NewPlanIn(rt.cat, countQuery(count))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := rt.SubscribePlan(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range testQueries()[1:3] {
		if _, err := rt.Subscribe(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range mixedStream(300) {
		if err := rt.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	// A joiner the host does not cover: the cut falls while the retired
	// host and its successor over the union both run.
	if _, err := rt.Subscribe(countQuery(count, sum)); err != nil {
		t.Fatal(err)
	}
	var plans []*core.Plan
	idx := map[*core.Plan]int32{}
	for _, s := range rt.subs {
		plans = append(plans, s.plan)
	}
	for _, p := range append(plans, rt.HostPlans()...) {
		if _, ok := idx[p]; !ok {
			idx[p] = int32(len(idx))
		}
	}
	plans = make([]*core.Plan, len(idx))
	for p, i := range idx {
		plans[i] = p
	}
	var w snap.Writer
	enc := snap.Encoder(&w)
	rt.cat.Code(enc)
	rt.Code(enc, idx, plans, rt.nextID, math.MaxInt64, nil)
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	back, dec := NewOn(core.NewCatalog()), snap.Decoder(w.Reader())
	back.cat.Code(dec)
	table := make([]*core.Plan, len(plans))
	for i, p := range plans {
		if table[i], err = core.NewPlanIn(back.cat, p.Query); err != nil {
			t.Fatal(err)
		}
	}
	if back.Code(dec, nil, table, rt.nextID, math.MaxInt64, nil); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	identity := func(rt *Runtime) (shape []bool) {
		for _, h := range rt.hosts {
			for _, v := range h.views {
				shape = append(shape, h.plan == v.sub.plan)
			}
		}
		for _, s := range rt.subs {
			for _, o := range rt.subs {
				shape = append(shape, s.plan == o.plan)
			}
		}
		return shape
	}
	if live, restored := fmt.Sprint(identity(rt)), fmt.Sprint(identity(back)); live != restored || len(rt.hosts) != 4 {
		t.Fatalf("plan identity across restore: live %s, restored %s (%d hosts, want 4)", live, restored, len(rt.hosts))
	}
	symbols := func(rt *Runtime) [4]int {
		for len(rt.subs) > 0 {
			if _, err := rt.subs[0].Unsubscribe(); err != nil {
				t.Fatal(err)
			}
		}
		return [4]int{rt.cat.NumTypes(), rt.cat.NumAttrs(), rt.cat.NumTypeSlots(), rt.cat.NumAttrSlots()}
	}
	if live, restored := symbols(rt), symbols(back); live != restored {
		t.Errorf("catalog after every member left: live %v, restored %v", live, restored)
	}
}
