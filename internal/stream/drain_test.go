package stream

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
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
	wardOnly := query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [ward] GROUP-BY ward WITHIN 40 SLIDE 40")
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
	wardSpan := query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [patient] AND [ward] GROUP-BY ward WITHIN 40 SLIDE 20")
	wardOnly := query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [ward] GROUP-BY ward WITHIN 40 SLIDE 40")
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

// sortResultsBy is the gather as it was written first: the hosts'
// results concatenated, sorted by sort.Slice with groups compared by
// cmpGroup, and equal (window, group) rows folded. It stays here as the
// reference mergeResults must reproduce.
func sortResultsBy(out []core.Result, cmpGroup func(a, b []string) int) []core.Result {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wid != out[j].Wid {
			return out[i].Wid < out[j].Wid
		}
		return cmpGroup(out[i].Group, out[j].Group) < 0
	})
	w := 0
	for i := range out {
		if w > 0 && out[w-1].Wid == out[i].Wid && cmpGroup(out[w-1].Group, out[i].Group) == 0 {
			agg.MergeValues(out[w-1].Values, out[i].Values)
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// cmpJoined compares groups as their NUL-joined strings, the order the
// gather was first written in. It is the tuple order for values
// without NUL, and merges distinct tuples for values with it.
func cmpJoined(a, b []string) int {
	return strings.Compare(strings.Join(a, "\x00"), strings.Join(b, "\x00"))
}

// cmpTuples compares groups value by value, a shorter prefix first: the
// order slices.Compare gives, spelled out.
func cmpTuples(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// plainAlphabet holds prefixes of one another and the empty string;
// nulAlphabet adds values containing NUL, so distinct tuples can join to
// one string.
var (
	plainAlphabet = []string{"", "a", "b", "ab", "ba"}
	nulAlphabet   = append(slices.Clone(plainAlphabet), "a\x00", "\x00", "a\x00b", "\x00\x00", "b\x00a")
)

// randomGroup draws a group tuple of width values from alphabet.
func randomGroup(rng *rand.Rand, alphabet []string, width int) []string {
	g := make([]string, width)
	for i := range g {
		g[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return g
}

// TestSortResultsMatchesJoinedReference: core.CompareResults, the
// gather's comparator, orders group tuples without NUL as their
// NUL-joined strings do (the order before tuples were compared), and
// any tuples value by value; it allocates nothing. The k-way merge of
// per-host lists, each in (window, group) order, returns what sorting
// their concatenation and folding equal rows returns, under the joined
// reference for values without NUL and the tuple reference for values
// with it. Values are whole numbers, so the fold's order cannot show.
func TestSortResultsMatchesJoinedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// One query's groups share a width; the joined reference sees only
	// that ([] and [""] both join to "").
	for _, c := range []struct {
		name      string
		alphabet  []string
		ref       func(a, b []string) int
		mixWidths bool
	}{{"joined", plainAlphabet, cmpJoined, false}, {"tuple", nulAlphabet, cmpTuples, true}} {
		for iter := 0; iter < 20000; iter++ {
			width := rng.Intn(4)
			a := core.Result{Group: randomGroup(rng, c.alphabet, width)}
			b := core.Result{Group: randomGroup(rng, c.alphabet, width)}
			if c.mixWidths && iter%2 == 1 {
				b.Group = randomGroup(rng, c.alphabet, rng.Intn(4))
			}
			if got, want := core.CompareResults(a, b), c.ref(a.Group, b.Group); got != want {
				t.Fatalf("CompareResults(%q, %q) = %d, %s reference says %d", a.Group, b.Group, got, c.name, want)
			}
		}
	}
	wide := core.Result{Group: []string{"a", "b", "ab"}}
	wider := core.Result{Group: []string{"a", "b", "ab", ""}}
	if n := testing.AllocsPerRun(100, func() { core.CompareResults(wide, wider) }); n != 0 {
		t.Errorf("CompareResults allocates %v per compare of three-attribute groups", n)
	}

	specs := agg.Specs{{Func: agg.CountStar}, {Func: agg.Sum, Alias: "A", Attr: "x"}}
	heads := make([]int, 4) // one set of cursors for every merge, as a Sub keeps
	for iter := 0; iter < 4000; iter++ {
		alphabet, ref := plainAlphabet, cmpJoined
		if iter%2 == 1 {
			alphabet, ref = nulAlphabet, cmpTuples
		}
		hosts := 1 + rng.Intn(len(heads))
		parts := make([][]core.Result, hosts)
		var all []core.Result
		for h := range parts {
			n := rng.Intn(40)
			if iter%50 < 2 {
				n = 300 + rng.Intn(300)
			}
			width := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				parts[h] = append(parts[h], core.Result{
					Wid:   int64(rng.Intn(4)),
					Group: randomGroup(rng, alphabet, width),
					Values: specs.Report(agg.Node{
						Count: uint64(rng.Intn(5)),
						Aux:   []agg.Aux{{}, {F: float64(rng.Intn(1000)), Valid: true}},
					}),
				})
			}
			parts[h] = sortResultsBy(parts[h], ref) // a host's list: ordered, one row per (window, group)
			for _, r := range parts[h] {
				r.Values = slices.Clone(r.Values)
				all = append(all, r)
			}
		}
		want := sortResultsBy(all, ref)
		got, _ := mergeResults(parts, heads)
		if len(got) != len(want) {
			t.Fatalf("iteration %d: %d results, reference %d", iter, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Wid != w.Wid || !slices.Equal(g.Group, w.Group) ||
				g.Values[0].Count != w.Values[0].Count || g.Values[1].F != w.Values[1].F {
				t.Fatalf("iteration %d: result %d = %+v, reference %+v", iter, i, g, w)
			}
		}
	}
}

// TestWorkerDrainsAreOrdered holds every worker's drain to what the
// k-way gather (mergeResults) relies on: within one host, results come
// in strict (window, group) order. The fleet, stream and batch cuts take
// the shapes of the root package's drain differential — all three
// granularities, sliding windows, a query whose groups span workers, a
// late joiner on the fallback worker, equal-time runs and jumps across
// window boundaries, drains after batches of 1–600 events.
func TestWorkerDrainsAreOrdered(t *testing.T) {
	fleet := []string{
		`RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ SEMANTICS skip-till-any-match
			WHERE [patient] GROUP-BY patient WITHIN 64 SLIDE 32`,
		`RETURN COUNT(*), MAX(M.rate) PATTERN M+ SEMANTICS skip-till-any-match
			WHERE [patient] AND M.rate < NEXT(M).rate GROUP-BY patient WITHIN 64 SLIDE 64`,
		`RETURN COUNT(*) PATTERN M+ SEMANTICS skip-till-next-match
			WHERE [patient] AND M.rate <= NEXT(M).rate GROUP-BY patient WITHIN 96 SLIDE 48`,
		`RETURN COUNT(*) PATTERN M+ SEMANTICS contiguous WHERE [patient] GROUP-BY patient WITHIN 64 SLIDE 64`,
		`RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ SEMANTICS skip-till-any-match
			WHERE [patient] AND [ward] GROUP-BY ward WITHIN 64 SLIDE 32`,
	}
	const lateJoiner = `RETURN COUNT(*), MAX(M.rate) PATTERN M+ SEMANTICS skip-till-any-match
		WHERE [ward] AND M.rate < NEXT(M).rate GROUP-BY ward WITHIN 64 SLIDE 64`

	rng := rand.New(rand.NewSource(41))
	var events []*event.Event
	rates := [3]float64{60, 70, 80}
	for tm := int64(0); len(events) < 4000; {
		p := rng.Intn(3)
		typ := []string{"A", "A", "A", "B", "B", "M", "M", "M", "X", "X"}[rng.Intn(10)]
		for j := 3 + rng.Intn(6); j > 0; j-- {
			rates[p] += float64(rng.Intn(7)) - 3
			events = append(events, event.New(typ, tm).WithSym("patient", fmt.Sprintf("p%d", p)).
				WithSym("ward", fmt.Sprintf("w%d", rng.Intn(2))).
				WithNum("v", float64(rng.Intn(100))).WithNum("rate", rates[p]))
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // a tie: the run grows within one time stamp
			case 7:
				tm += 20 + int64(rng.Intn(60)) // a jump across a window boundary
			default:
				tm++
			}
		}
	}
	for _, workers := range []int{2, 4} {
		cat := core.NewCatalog()
		var plans []*core.Plan
		for _, src := range fleet {
			plan, err := core.NewPlanIn(cat, query.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
		m, subs := startExecutor(t, workers, plans...)
		spans := 0
		for lo, b := 0, 0; lo < len(events); b++ {
			if b == 3 {
				plan, err := core.NewPlanIn(cat, query.MustParse(lateJoiner))
				if err != nil {
					t.Fatal(err)
				}
				sub, err := m.SubscribePlan(plan)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub)
			}
			hi := min(lo+1+rng.Intn(600), len(events))
			if err := m.ProcessBatch(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			for qi, sub := range subs {
				parts, err := m.drainHosts(sub)
				if err != nil {
					t.Fatal(err)
				}
				lists := 0
				for h, part := range parts {
					if len(part) > 0 {
						lists++
					}
					for i := 1; i < len(part); i++ {
						if core.CompareResults(part[i-1], part[i]) >= 0 {
							t.Fatalf("%d workers, query %d, host %d: drain out of (window, group) order: %v then %v", workers, qi, h, part[i-1], part[i])
						}
					}
				}
				if lists > 1 {
					spans++
				}
				sub.deliver(parts, sub.wsubs)
			}
		}
		if _, err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if spans == 0 {
			t.Errorf("%d workers: no drain gathered from more than one host; the check is vacuous", workers)
		}
	}
}
