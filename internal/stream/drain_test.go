package stream

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/query"
)

// sentCounts reads every worker's message count.
func sentCounts(ws []*mworker) []int64 {
	out := make([]int64, len(ws))
	for i, w := range ws {
		out[i] = w.sent
	}
	return out
}

// TestDrainSyncsEachWorkerOnce pins the control traffic of Drain: once
// the routed events are handed over, draining k subscriptions at one
// stream position sends at most one sync to each hosting worker — one
// to each that received a batch since its last reply — and a repeated
// Drain, or a Stats, at the same position sends none. A late joiner on
// the fallback worker syncs the fallback alone.
func TestDrainSyncsEachWorkerOnce(t *testing.T) {
	cat := core.NewCatalog()
	planIn := func(q *query.Query) *core.Plan {
		t.Helper()
		p, err := core.NewPlanIn(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var plans []*core.Plan
	for _, q := range multiQueries() {
		plans = append(plans, planIn(q))
	}
	m, subs := startExecutor(t, 4, plans...)
	defer m.Close()
	events := multiStream(2000, 11)
	position := func(lo, hi int) {
		t.Helper()
		if err := m.ProcessBatch(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		m.flushPending() // hand over the partial batches: what follows is control traffic only
	}
	drainAll := func() {
		t.Helper()
		for _, sub := range subs {
			if _, err := sub.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}

	position(0, 1000)
	before := sentCounts(m.allWorkers())
	busy := 0
	for _, w := range m.allWorkers() {
		if w.sent != w.acked {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("%d busy workers before the drain; the test is vacuous", busy)
	}
	drainAll()
	syncs := 0
	for i, n := range sentCounts(m.allWorkers()) {
		if d := n - before[i]; d > 1 {
			t.Errorf("worker %d: %d syncs for %d drains at one position, want at most 1", i, d, len(subs))
		} else {
			syncs += int(d)
		}
	}
	if syncs != busy {
		t.Errorf("%d syncs for %d busy workers", syncs, busy)
	}

	at := sentCounts(m.allWorkers())
	drainAll()
	if _, err := m.Stats(); err != nil {
		t.Fatal(err)
	}
	for i, n := range sentCounts(m.allWorkers()) {
		if n != at[i] {
			t.Errorf("worker %d: a repeated Drain and a Stats at the same position sent %d messages, want 0", i, n-at[i])
		}
	}

	// A late joiner that does not cover the frozen routing attributes
	// runs on the fallback worker; draining it syncs nobody else.
	wardOnly := query.NewBuilder(pattern.Plus(pattern.TypeAs("M", "M"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		WhereEquiv(predicate.Equivalence{Attr: "ward"}).
		GroupBy(query.GroupKey{Attr: "ward"}).
		Within(40, 40).
		MustBuild()
	late, err := m.SubscribePlan(planIn(wardOnly))
	if err != nil {
		t.Fatal(err)
	}
	if m.fallback == nil || late.hosts[0] != m.fallback {
		t.Fatal("the ward-only joiner is not on the fallback worker")
	}
	position(1000, 2000)
	before = sentCounts(m.workers)
	fbBefore := m.fallback.sent
	if _, err := late.Drain(); err != nil {
		t.Fatal(err)
	}
	if d := m.fallback.sent - fbBefore; d != 1 {
		t.Errorf("draining the fallback's subscriber sent it %d syncs, want 1", d)
	}
	for i, n := range sentCounts(m.workers) {
		if n != before[i] {
			t.Errorf("draining the fallback's subscriber sent partition worker %d %d messages", i, n-before[i])
		}
	}
}

// TestDrainTakesEverythingRouted pins what each Drain takes, without
// a reference build: right after a Drain, every worker hosting the
// subscription is parked with no routed event left in a batch under
// construction, and its buffer holds nothing — so the Drain handed
// over every result the events routed so far had closed. Every
// subscription is drained after every batch, on 2 and 4 workers, with
// a query whose groups span workers and a late joiner on the fallback
// worker.
func TestDrainTakesEverythingRouted(t *testing.T) {
	wardSpan := query.NewBuilder(pattern.Plus(pattern.TypeAs("M", "M"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		WhereEquiv(predicate.Equivalence{Attr: "patient"}).
		WhereEquiv(predicate.Equivalence{Attr: "ward"}).
		GroupBy(query.GroupKey{Attr: "ward"}).
		Within(40, 20).
		MustBuild()
	wardOnly := query.NewBuilder(pattern.Plus(pattern.TypeAs("M", "M"))).
		Return(agg.Spec{Func: agg.CountStar}).
		Semantics(query.Any).
		WhereEquiv(predicate.Equivalence{Attr: "ward"}).
		GroupBy(query.GroupKey{Attr: "ward"}).
		Within(40, 40).
		MustBuild()
	events := multiStream(3000, 11)
	for _, n := range []int{2, 4} {
		cat := core.NewCatalog()
		planIn := func(q *query.Query) *core.Plan {
			t.Helper()
			p, err := core.NewPlanIn(cat, q)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var plans []*core.Plan
		for _, q := range append(multiQueries(), wardSpan) {
			plans = append(plans, planIn(q))
		}
		m, subs := startExecutor(t, n, plans...)
		rng := rand.New(rand.NewSource(int64(n)))
		results := 0
		for lo, batch := 0, 0; lo < len(events); batch++ {
			if batch == 5 {
				late, err := m.SubscribePlan(planIn(wardOnly))
				if err != nil {
					t.Fatal(err)
				}
				if late.hosts[0] != m.fallback {
					t.Fatalf("%d workers: the ward-only joiner is not on the fallback worker", n)
				}
				subs = append(subs, late)
			}
			hi := min(len(events), lo+1+rng.Intn(600))
			if err := m.ProcessBatch(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			for si, sub := range subs {
				out, err := sub.Drain()
				if err != nil {
					t.Fatal(err)
				}
				results += len(out)
				for i, w := range sub.hosts {
					pend := m.fallbackPend
					if wi := slices.Index(m.workers, w); wi >= 0 {
						pend = m.pending[wi]
					}
					switch {
					case w.sent != w.acked:
						t.Fatalf("%d workers, batch %d, sub %d: host %d not parked after Drain (sent %d, acked %d)", n, batch, si, i, w.sent, w.acked)
					case pend != nil && len(*pend) > 0:
						t.Fatalf("%d workers, batch %d, sub %d: host %d has %d routed events unsent after Drain", n, batch, si, i, len(*pend))
					case len(sub.wsubs[i].Drain()) != 0:
						t.Fatalf("%d workers, batch %d, sub %d: host %d kept results after Drain", n, batch, si, i)
					}
				}
			}
		}
		if results == 0 {
			t.Fatalf("%d workers: no drain returned a result; the test is vacuous", n)
		}
		if _, err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParkAllocatesNothing: a sync round trip to a worker goroutine —
// what every membership change, Drain and Stats pays per busy worker —
// allocates nothing, and neither does a Drain that finds every worker
// parked and nothing buffered.
func TestParkAllocatesNothing(t *testing.T) {
	m, subs := startExecutor(t, 2, core.MustPlan(parallelQuery()))
	defer m.Close()
	w := m.workers[0]
	if got := testing.AllocsPerRun(100, func() {
		w.send(nil)
		w.await()
	}); got != 0 {
		t.Errorf("sync round trip: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := subs[0].Drain(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Drain of parked workers: %v allocations, want 0", got)
	}
}

// sortResultsJoined is sortResults as it was written first: sort.Slice
// over groups compared as NUL-joined strings. It stays here as the
// reference the reflection-free version must reproduce exactly.
func sortResultsJoined(out []core.Result) []core.Result {
	sortJoined(out)
	w := 0
	for i := range out {
		if w > 0 && out[w-1].Wid == out[i].Wid &&
			strings.Join(out[w-1].Group, "\x00") == strings.Join(out[i].Group, "\x00") {
			agg.MergeValues(out[w-1].Values, out[i].Values)
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// sortJoined is the reference's sort step.
func sortJoined(out []core.Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wid != out[j].Wid {
			return out[i].Wid < out[j].Wid
		}
		return strings.Join(out[i].Group, "\x00") < strings.Join(out[j].Group, "\x00")
	})
}

// randomGroup draws a group tuple of 0–3 values from an alphabet of
// prefixes, empty strings and values containing NUL, so distinct tuples
// can join to one string.
func randomGroup(rng *rand.Rand) []string {
	alphabet := []string{"", "a", "b", "ab", "a\x00", "\x00", "a\x00b", "\x00\x00", "b\x00a"}
	g := make([]string, rng.Intn(4))
	for i := range g {
		g[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return g
}

// TestSortResultsMatchesJoinedReference: on random inputs with ties,
// multi-attribute groups and values containing NUL, sortResults makes
// the same permutation as the reference — so equal (window, group)
// partials reach agg.MergeValues in the same order — and returns the
// same results. Start tags each input with its position; it takes no
// part in the order.
func TestSortResultsMatchesJoinedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(80)
		if iter%50 == 0 {
			n = 300 + rng.Intn(300) // past the insertion-sort cutoff into pdqsort proper
		}
		in := make([]core.Result, n)
		for i := range in {
			in[i] = core.Result{
				Wid:   int64(rng.Intn(4)),
				Start: int64(i),
				Group: randomGroup(rng),
				Values: []agg.Value{
					{Spec: agg.Spec{Func: agg.CountStar}, Count: uint64(rng.Intn(5))},
					{Spec: agg.Spec{Func: agg.Sum}, F: rng.NormFloat64() * 1e6},
				},
			}
		}
		clone := func() []core.Result {
			out := make([]core.Result, len(in))
			for i, r := range in {
				r.Values = append([]agg.Value(nil), r.Values...)
				out[i] = r
			}
			return out
		}
		sorted, ref := clone(), clone()
		slices.SortFunc(sorted, cmpResults)
		sortJoined(ref)
		for i := range ref {
			if sorted[i].Start != ref[i].Start {
				t.Fatalf("iteration %d: permutation differs at %d: input %d, reference input %d", iter, i, sorted[i].Start, ref[i].Start)
			}
		}
		got, want := sortResults(clone()), sortResultsJoined(clone())
		if len(got) != len(want) {
			t.Fatalf("iteration %d: %d results, reference %d", iter, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Start != w.Start || g.Wid != w.Wid || strings.Join(g.Group, "\x00") != strings.Join(w.Group, "\x00") ||
				g.Values[0].Count != w.Values[0].Count || g.Values[1].F != w.Values[1].F {
				t.Fatalf("iteration %d: result %d = %+v, reference %+v", iter, i, g, w)
			}
		}
	}
}
