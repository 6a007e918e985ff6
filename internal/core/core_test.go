package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/agg"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/snap"
)

// figure2Pattern is P = (SEQ(A+, B))+ from Figure 2.
func figure2Pattern() pattern.Node {
	return pattern.Plus(pattern.Seq(pattern.Plus(pattern.Type("A")), pattern.Type("B")))
}

// figure2Stream is a1 b2 a3 a4 c5 b6 a7 b8; every event also carries
// its time stamp as numeric attribute t (used by predicate tests).
func figure2Stream() []*event.Event {
	var out []*event.Event
	for _, spec := range []struct {
		typ string
		t   int64
	}{{"A", 1}, {"B", 2}, {"A", 3}, {"A", 4}, {"C", 5}, {"B", 6}, {"A", 7}, {"B", 8}} {
		out = append(out, event.New(spec.typ, spec.t).WithNum("t", float64(spec.t)))
	}
	return out
}

// testShared is what an engine without accounting shares with its
// sub-aggregators, for tests that drive a kernel directly.
func testShared(p *Plan) *kernelShared {
	return &kernelShared{acct: nopAccountant{}, bnd: newBindings(p.Slots, nopAccountant{}, false)}
}

// resolveView fills rv with ev's slot view the way Engine.Process does:
// a run of one through ResolveRun over the plan's own attributes, with
// the plan's dispatch entry and spec projection installed.
func resolveView(plan *Plan, rv *resolvedVals, ev *event.Event) {
	tid, _ := plan.cat.TypeID(ev.Type)
	var run ResolvedRun
	NewResolver(plan.cat).ResolveRun(&run, []*event.Event{ev}, tid, plan.ReferencedAttrIDs())
	*rv = resolvedVals{ev: ev, tp: plan.typePlanAt(tid), num: run.num, sym: run.sym, has: run.has, specIDs: plan.specIDs}
}

func countQuery(sem query.Semantics) *query.Query {
	return query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS " + sem.String() + " WITHIN 100 SLIDE 100")
}

func runCount(t *testing.T, q *query.Query, events []*event.Event) uint64 {
	t.Helper()
	eng := NewEngine(MustPlan(q))
	if err := eng.ProcessAll(events); err != nil {
		t.Fatal(err)
	}
	results := eng.Close()
	if len(results) == 0 {
		return 0
	}
	if len(results) != 1 {
		t.Fatalf("expected one result, got %v", results)
	}
	return results[0].Values[0].Count
}

// TestPaperTable5 reproduces the type-grained trend count of Table 5:
// 43 trends under skip-till-any-match.
func TestPaperTable5(t *testing.T) {
	q := countQuery(query.Any)
	plan := MustPlan(q)
	if plan.Granularity != TypeGrained {
		t.Fatalf("granularity = %v, want type", plan.Granularity)
	}
	if got := runCount(t, q, figure2Stream()); got != 43 {
		t.Errorf("COUNT(*) = %d, want 43", got)
	}
}

// TestPaperTable5Intermediates checks the per-event intermediate
// counts of Table 5 via the aggregator directly: Algorithm 2 with
// Te = ∅ keeps exactly Algorithm 1's per-type tables.
func TestPaperTable5Intermediates(t *testing.T) {
	plan := MustPlan(countQuery(query.Any))
	tg := newMixedGrained(plan, testShared(plan))
	if tg.te != nil {
		t.Fatal("type-grained plan carries an event store")
	}
	wantA := map[int64]uint64{1: 1, 3: 4, 4: 10, 7: 32}
	wantB := map[int64]uint64{2: 1, 6: 11, 8: 43}
	var rv resolvedVals
	for _, e := range figure2Stream() {
		resolveView(plan, &rv, e)
		tg.Process(&rv)
		tg.flush() // commit so the tables are observable
		if want, ok := wantA[e.Time]; ok {
			if got := tg.mainTable(plan.aliasIDs["A"])[0].node.Count; got != want {
				t.Errorf("after %v: A.count = %d, want %d", e, got, want)
			}
		}
		if want, ok := wantB[e.Time]; ok {
			if got := tg.mainTable(plan.aliasIDs["B"])[0].node.Count; got != want {
				t.Errorf("after %v: B.count = %d, want %d", e, got, want)
			}
		}
	}
}

// TestSubAggregatorOpenCost pins what opening one (window, partition)
// costs a type-grained plan — the dominant term of a fleet of grouped
// queries. A warm engine reopens an aggregator a closed window released:
// nothing. A cold open is one allocation, the struct (in the 96-byte size
// class): no tables before the first staged update, no scratch of its
// own, none of what only the event store of a mixed-grained plan needs.
// Filling it costs one more whatever the events, the array of its tables
// and staged list (mixedGrained.own), in which a table of one key keeps
// its entry and the entry's auxiliaries; restoring it from a frame builds
// the same layout (coldCosts).
func TestSubAggregatorOpenCost(t *testing.T) {
	if size := unsafe.Sizeof(mixedGrained{}); size > 96 {
		t.Errorf("sizeof(mixedGrained) = %d, want <= 96", size)
	}
	plan := MustPlan(query.MustParse(`
		RETURN key, COUNT(*), SUM(A.v) PATTERN SEQ(S0 A+, S1 B)
		WHERE [key] GROUP-BY key WITHIN 256 SLIDE 256`))
	if plan.Granularity != TypeGrained {
		t.Fatalf("granularity = %v, want type", plan.Granularity)
	}
	eng := NewEngine(plan)
	var sink subAggregator
	if cold := testing.AllocsPerRun(100, func() { sink = eng.openSubAggregator() }); cold != 1 {
		t.Errorf("cold open: %v allocations, want 1", cold)
	}
	if _, ok := sink.(*mixedGrained); !ok {
		t.Errorf("type-grained plan built a %T", sink)
	}
	warm := testing.AllocsPerRun(100, func() {
		eng.release(sink)
		sink = eng.openSubAggregator()
	})
	if warm != 0 {
		t.Errorf("warm open: %v allocations, want 0", warm)
	}

	// Cold fills: steady_fleet's plan, and durable_disordered's, whose
	// binding slot takes the general path and whose sliding windows give
	// each partition four aggregators.
	for _, tc := range []struct{ name, where string }{
		{"steady_fleet", "[key] GROUP-BY key WITHIN 256 SLIDE 256"},
		{"durable_disordered", "[key] AND [A.key] GROUP-BY key WITHIN 256 SLIDE 64"},
	} {
		plan := MustPlan(query.MustParse(`RETURN key, COUNT(*), SUM(A.v) PATTERN SEQ(S0 A+, S1 B) WHERE ` + tc.where))
		fill, restore := coldCosts(t, plan)
		if fill > 2.5 {
			t.Errorf("cold fill/%s: %.3f allocations per (window, partition), want <= 2.5", tc.name, fill)
		}
		// The frame spells each partition's key out: one string more.
		if restore > 3.5 {
			t.Errorf("restore/%s: %.3f allocations per (window, partition), want <= 3.5", tc.name, restore)
		}
	}
}

// coldCosts feeds 256 partitions no engine has seen an A, an A at a
// later time stamp and a B each, and returns the allocations per
// (window, partition) they opened, the partition dictionary's growth
// included: every aggregator is cold, since no window closes. The events
// fall where windows of 256 ticks sliding by 64 overlap four deep. It
// also returns what restoring a fresh engine from the frame of all that
// costs per (window, partition).
func coldCosts(t *testing.T, plan *Plan) (fill, restore float64) {
	t.Helper()
	const parts, at = 256, 192
	var batches [2][]*event.Event // the first one warms the engine's scratch
	for b := range batches {
		for step, typ := range []string{"S0", "S0", "S1"} {
			for k := range parts {
				ev := event.New(typ, int64(at+3*b+step)).WithSym("key", fmt.Sprintf("k%d", b*parts+k)).WithNum("v", float64(k))
				batches[b] = append(batches[b], ev)
			}
		}
	}
	eng := NewEngine(plan)
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		for _, ev := range batches[next] {
			if err := eng.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		next++
	})
	opened := 0
	for _, wid := range eng.mgr.ActiveWids() {
		ws, _ := eng.mgr.State(wid)
		opened += ws.open
	}
	if opened != 2*parts*len(eng.mgr.ActiveWids()) {
		t.Fatalf("%d (window, partition) pairs open over %d windows, want %d per window", opened, len(eng.mgr.ActiveWids()), 2*parts)
	}
	var w snap.Writer
	eng.Code(snap.Encoder(&w), math.MaxInt64)
	restores := testing.AllocsPerRun(5, func() {
		r := w.Reader()
		NewEngine(plan).Code(snap.Decoder(r), math.MaxInt64)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / float64(opened/2), restores / float64(opened)
}

// TestPoolsGiveBackASpike pins the bound on what an engine recycles: the
// pools hold what a window generation reopens and an aggregator what its
// last sub-stream used, not the most the stream ever needed. One window
// with 20,000 partitions leaves that many pooled aggregators, a window
// state with a large map and long close scratch behind; one partition
// with 3,000 stored events leaves an aggregator with long slices and ten
// arena slabs in circulation. After a few generations of the steady
// traffic from before, the pools and the live heap are back where they
// were.
func TestPoolsGiveBackASpike(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, win := range []string{"WITHIN 16 SLIDE 16", "WITHIN 16 SLIDE 4"} {
		plan := MustPlan(query.MustParse(`
			RETURN key, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B)
			WHERE [key] AND A.v < NEXT(A).v GROUP-BY key ` + win))
		if plan.Granularity != MixedGrained {
			t.Fatalf("granularity = %v, want mixed", plan.Granularity)
		}
		eng := NewEngine(plan, WithResultCallback(func(Result) {}))
		now := int64(0)
		feed := func(typ, key string, v float64) {
			if err := eng.Process(event.New(typ, now).WithSym("key", key).WithNum("v", v)); err != nil {
				t.Fatal(err)
			}
		}
		steady := func(ticks int) {
			for end := now + int64(ticks); now < end; now++ {
				typ := "A"
				if now%4 == 3 {
					typ = "B"
				}
				for _, key := range []string{"k0", "k1", "k2", "k3"} {
					feed(typ, key, float64(now%5))
				}
			}
		}
		steady(8 * 16)
		heap, pooled := liveHeap(), len(eng.aggs.free)
		recovered := func(spike string) {
			steady(8 * 16)
			if n, c := len(eng.aggs.free), cap(eng.aggs.free); n > pooled+4 || c > 4*(pooled+4) {
				t.Errorf("%s: %d aggregators pooled (cap %d) after %s, %d before", win, n, c, spike, pooled)
			}
			if n := len(eng.wins.free); n > 4 {
				t.Errorf("%s: %d window states pooled after %s, want <= 4", win, n, spike)
			}
			if after := liveHeap(); after > heap+64<<10 {
				t.Errorf("%s: live heap %d B after %s, %d B before", win, after, spike, heap)
			}
		}

		for i := 0; i < 20000; i++ {
			feed("A", fmt.Sprintf("spike%d", i), 1)
		}
		steady(17) // closes every window the spike fell into
		if n := len(eng.aggs.free); n < 20000 {
			t.Fatalf("%s: %d aggregators pooled once the spike closed, want >= 20000; the test is vacuous", win, n)
		}
		recovered("a partition spike")

		// Every pooled aggregator is reopened each generation now, the one
		// that served k0 included.
		for i := 0; i < 3000; i++ {
			feed("A", "k0", float64(i))
		}
		now++
		recovered("a stored-event spike")
		runtime.KeepAlive(eng)
	}
}

// TestZeroSumPredecessorStillExtends pins the skip rule of the
// no-equivalence fast path: an event that starts nothing is dropped when
// NO predecessor entry exists, not when the merged predecessor sum
// happens to be all-zero. The two differ only once a committed count is
// congruent to 0 modulo 2^64 with zero auxiliaries (the wrap is by
// design, agg.TestCountWrapsModulo64), which no event stream of testable
// length reaches — so the committed entry is overwritten in place.
func TestZeroSumPredecessorStillExtends(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    string
	}{
		{"Te empty", "RETURN COUNT(*) PATTERN SEQ(A+, B) WITHIN 100 SLIDE 100"},
		// B (Te) follows A (Tt): the zero entry reaches a stored event.
		{"Te = {B}", "RETURN COUNT(*) PATTERN SEQ(A+, B+) WHERE B.t < NEXT(B).t WITHIN 100 SLIDE 100"},
	} {
		plan := MustPlan(query.MustParse(tc.q))
		a, b := plan.aliasIDs["A"], plan.aliasIDs["B"]
		mg := newMixedGrained(plan, testShared(plan))
		var rv resolvedVals
		feed := func(typ string, at int64) {
			resolveView(plan, &rv, event.New(typ, at).WithNum("t", float64(at)))
			mg.Process(&rv)
		}
		recordedB := func() (out []agg.Node) {
			mg.flush()
			for _, e := range mg.mainTable(b) {
				out = append(out, e.node)
			}
			if mg.te != nil {
				for _, se := range mg.te.stored[b] {
					out = append(out, se.node)
				}
			}
			return out
		}
		feed("B", 1) // no A entry yet and B starts nothing: dropped
		feed("A", 2)
		if got := recordedB(); len(got) != 0 {
			t.Fatalf("%s: a B with no predecessor entry was recorded: %v", tc.name, got)
		}
		mg.mainTable(a)[0].node.Count = 0 // as if wrapped to 0 mod 2^64
		feed("B", 3)
		if got := recordedB(); len(got) != 1 || got[0].Count != 0 {
			t.Errorf("%s: B after a zero-count A entry recorded %v, want one zero-count node", tc.name, got)
		}
	}
}

// TestRunMemoSurvivesStoredScan pins memo plus scan on the Figure 2
// shape with A.x < NEXT(A).x: alias A has a stored predecessor (A, Te)
// and a table predecessor (B, Tt). Inside an equal-time run of A's the
// B part comes from the per-time-stamp memo and the stored A's are
// merged on top per event — into a copy, or the next A of the run would
// inherit the stored predecessors of the previous one. Expected counts
// are derived by hand from Definition 7, not from another run of the
// kernel.
func TestRunMemoSurvivesStoredScan(t *testing.T) {
	plan := MustPlan(query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WHERE A.x < NEXT(A).x WITHIN 100 SLIDE 100"))
	a, b := plan.aliasIDs["A"], plan.aliasIDs["B"]
	if !plan.eventGrainedByID[a] || plan.eventGrainedByID[b] {
		t.Fatalf("event-grained set = %v, want {A}", plan.EventGrained)
	}
	mg := newMixedGrained(plan, testShared(plan))
	var rv resolvedVals
	for _, e := range []struct {
		typ string
		at  int64
		x   float64
	}{
		{"A", 1, 1}, // starts: 1
		{"B", 2, 0}, // a1: 1
		{"A", 3, 5}, // b2 (memoized) + a1 (1 < 5) + start: 3
		{"A", 3, 0}, // b2 (from the memo) + start: 2 — a1 must not linger
		{"A", 3, 5}, // 3 again
		{"B", 4, 0}, // all four a's: 1 + 3 + 2 + 3 = 9
	} {
		resolveView(plan, &rv, event.New(e.typ, e.at).WithNum("x", e.x))
		mg.Process(&rv)
	}
	mg.flush()
	var got []uint64
	for _, se := range mg.te.stored[a] {
		got = append(got, se.node.Count)
	}
	if want := []uint64{1, 3, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("stored A counts = %v, want %v", got, want)
	}
	if got := mg.mainTable(b)[0].node.Count; got != 1+9 {
		t.Errorf("B table count = %d, want 10", got)
	}
}

// TestRunMemoServesStoredPredecessors pins the stored part of the run
// memo: the stored entries of an alias's event-grained predecessors up
// to its first edge with an adjacent check are summed once per time
// stamp, not once per event. The white-box poke overwrites one stored
// count in the middle of an equal-time run: a predecessor the memo
// serves keeps its old sum for the rest of the run, one scanned per
// event shows the new count at the next event. Every other expected
// count and SUM is derived by hand from Definition 7, not from another
// run of the kernel.
func TestRunMemoServesStoredPredecessors(t *testing.T) {
	type ev struct {
		typ string
		at  int64
		x   float64
	}
	// run feeds events through a fresh aggregator of src and, right
	// after event pokeAfter, sets the count of the stored entry
	// stored[alias][idx] to 100.
	run := func(src string, events []ev, pokeAfter int, alias string, idx int) (*Plan, *mixedGrained) {
		t.Helper()
		plan := MustPlan(query.MustParse(src))
		mg := newMixedGrained(plan, testShared(plan))
		var rv resolvedVals
		for i, e := range events {
			resolveView(plan, &rv, event.New(e.typ, e.at).WithNum("x", e.x))
			mg.Process(&rv)
			if i == pokeAfter {
				mg.te.stored[plan.aliasIDs[alias]][idx].node.Count = 100
			}
		}
		mg.flush()
		return plan, mg
	}
	storedCounts := func(plan *Plan, mg *mixedGrained, alias string) (out []uint64) {
		for _, se := range mg.te.stored[plan.aliasIDs[alias]] {
			out = append(out, se.node.Count)
		}
		return out
	}

	t.Run("adjacency-free edge", func(t *testing.T) {
		plan, mg := run(`RETURN COUNT(*), SUM(A.x) PATTERN SEQ(A+, B)
			WHERE A.x < NEXT(A).x WITHIN 100 SLIDE 100`, []ev{
			{"A", 1, 1}, // {a1}: count 1, SUM 1
			{"A", 2, 3}, // {a2}, {a1,a2}: count 2, SUM 3 + 4 = 7
			{"A", 3, 2}, // {a3}, {a1,a3} (3 < 2 fails for a2): count 2 — stored at 3, invisible to the B's
			{"B", 3, 0}, // a1 + a2: count 3, SUM 8; then a1's count is overwritten
			{"B", 3, 0}, // from the memo: 3, SUM 8 (a rescan would read 100 + 2)
			{"B", 3, 0}, // 3, SUM 8
		}, 3, "A", 0)
		if got, want := storedCounts(plan, mg, "A"), []uint64{100, 2, 2}; !slices.Equal(got, want) {
			t.Errorf("stored A counts = %v, want %v", got, want)
		}
		b := mg.mainTable(plan.aliasIDs["B"])[0].node
		if b.Count != 9 || b.Aux[1].F != 24 {
			t.Errorf("B table: count %d, SUM(A.x) %v; want 9, 24", b.Count, b.Aux[1].F)
		}
	})

	t.Run("negation-guarded edge", func(t *testing.T) {
		plan, mg := run(`RETURN COUNT(*), SUM(A.x) PATTERN SEQ(A+, NOT(C), B)
			WHERE A.x < NEXT(A).x WITHIN 100 SLIDE 100`, []ev{
			{"A", 1, 1}, // {a1}: count 1, SUM 1
			{"C", 2, 0}, // strictly between a1 and every later B: blocks a1 -> B
			{"A", 3, 3}, // {a3}, {a1,a3} (A -> A is unguarded): count 2, SUM 3 + 4 = 7
			{"C", 4, 0}, // at the B's time stamp: blocks nothing
			{"B", 4, 0}, // a3 only: count 2, SUM 7; then a3's count is overwritten
			{"B", 4, 0}, // from the memo: 2, SUM 7
			{"B", 4, 0}, // 2, SUM 7
		}, 4, "A", 1)
		if got, want := storedCounts(plan, mg, "A"), []uint64{1, 100}; !slices.Equal(got, want) {
			t.Errorf("stored A counts = %v, want %v", got, want)
		}
		b := mg.mainTable(plan.aliasIDs["B"])[0].node
		if b.Count != 6 || b.Aux[1].F != 21 {
			t.Errorf("B table: count %d, SUM(A.x) %v; want 6, 21", b.Count, b.Aux[1].F)
		}
	})

	t.Run("edge after an adjacency check", func(t *testing.T) {
		src := `RETURN COUNT(*), SUM(A.x) PATTERN (SEQ(A+, C+))+
			WHERE A.x < NEXT(A).x AND C.x < NEXT(C).x WITHIN 100 SLIDE 100`
		plan := MustPlan(query.MustParse(src))
		a, c := plan.aliasIDs["A"], plan.aliasIDs["C"]
		preds := plan.typePlanAt(plan.cat.typeIDs["A"]).aliases[0].preds
		if len(preds) != 2 || preds[0].id != a || len(preds[0].adj) == 0 || preds[1].id != c || len(preds[1].adj) != 0 {
			t.Fatalf("A's predecessor edges are not [A (checked), C (unchecked)]; the case is vacuous")
		}
		plan, mg := run(src, []ev{
			{"A", 1, 1}, // {a1}: count 1
			{"C", 2, 1}, // {a1,c2}: count 1
			{"A", 3, 5}, // {a3}, {a1,a3}, {a1,c2,a3}: count 3; then c2's count is overwritten
			{"A", 3, 0}, // a1 fails 1 < 0; c2 scanned again: 100 + start = 101
		}, 2, "C", 0)
		if got, want := storedCounts(plan, mg, "A"), []uint64{1, 3, 101}; !slices.Equal(got, want) {
			t.Errorf("stored A counts = %v, want %v", got, want)
		}
	})
}

// TestReleaseDisownsRunMemo pins the recycling hazard of runMemo.claim,
// which identifies the memo's owner by pointer and time stamp: an
// aggregator released without a flush — a window the manager dropped —
// and reopened for another partition at the very same time stamp is the
// same pointer at the same time, and must not find the predecessor sums
// of the partition it served before.
func TestReleaseDisownsRunMemo(t *testing.T) {
	plan := MustPlan(query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, B) WITHIN 100 SLIDE 100"))
	a := plan.aliasIDs["A"]
	eng := NewEngine(plan)
	mg := eng.openSubAggregator().(*mixedGrained)
	var rv resolvedVals
	feed := func(at int64) {
		resolveView(plan, &rv, event.New("A", at))
		mg.Process(&rv)
	}
	feed(1)
	feed(2) // commits a1 and memoizes A's predecessor sum (a1) for time 2
	if eng.sh.memo.owner != mg {
		t.Fatal("the fast path did not claim the memo; the test is vacuous")
	}
	eng.release(mg)
	if eng.sh.memo.owner == mg {
		t.Error("Release left the memo owned by the released aggregator")
	}
	if again := eng.openSubAggregator(); again != subAggregator(mg) {
		t.Fatal("the pool did not hand the released aggregator back")
	}
	feed(2) // another partition's first event, same time stamp: one trend
	mg.flush()
	if got := mg.mainTable(a)[0].node.Count; got != 1 {
		t.Errorf("reopened aggregator counts %d trends ending at its first event, want 1 (stale memo: 2)", got)
	}
}

// table6Stream is figure2Stream with an attribute w for Table 6's
// predicate B.w < NEXT(A).w: every A carries 1, b2 0 and b6 2, so a7
// is adjacent to b2 but not to b6.
func table6Stream() []*event.Event {
	out := figure2Stream()
	for _, e := range out {
		w := 1.0
		switch e.Time {
		case 2:
			w = 0
		case 6:
			w = 2
		}
		e.WithNum("w", w)
	}
	return out
}

// TestPaperTable6 reproduces the mixed-grained trend count of Table 6:
// predicates restrict the adjacency between b's and a's; a7 is
// adjacent to b2 but not b6. Final count 33.
func TestPaperTable6(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WHERE B.w < NEXT(A).w WITHIN 100 SLIDE 100")
	plan := MustPlan(q)
	if plan.Granularity != MixedGrained {
		t.Fatalf("granularity = %v, want mixed", plan.Granularity)
	}
	if !plan.EventGrained["B"] || plan.EventGrained["A"] {
		t.Fatalf("event-grained set = %v, want {B}", plan.EventGrained)
	}
	if got := runCount(t, q, table6Stream()); got != 33 {
		t.Errorf("COUNT(*) = %d, want 33", got)
	}
}

// TestAdvanceWatermarkRecordsFloor: an external watermark is a
// promise that every older event has been seen; an event contradicting
// it must be rejected exactly like an out-of-order event, not silently
// dropped into already-closed windows.
func TestAdvanceWatermarkRecordsFloor(t *testing.T) {
	plan := MustPlan(query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10"))
	eng := NewEngine(plan)
	res := NewResolver(plan.Catalog())
	if err := eng.AdvanceWatermark(20); err != nil {
		t.Fatal(err)
	}
	tid, _ := plan.Catalog().TypeID("A")
	late := event.New("A", 7)
	res.Resolve(late)
	if err := eng.ProcessResolved(late, res, tid); err == nil {
		t.Error("event older than the advanced watermark accepted")
	}
	if err := eng.Process(event.New("A", 7)); err == nil {
		t.Error("Process accepted an event older than the watermark")
	}
	if err := eng.AdvanceWatermark(15); err == nil {
		t.Error("regressing watermark accepted")
	}
	// Events at or after the watermark are fine.
	ok := event.New("A", 20)
	res.Resolve(ok)
	if err := eng.ProcessResolved(ok, res, tid); err != nil {
		t.Errorf("event at the watermark rejected: %v", err)
	}
}

// TestPaperTable7 reproduces the pattern-grained counts of Table 7:
// 8 trends under skip-till-next-match, 2 under contiguous.
func TestPaperTable7(t *testing.T) {
	if got := runCount(t, countQuery(query.Next), figure2Stream()); got != 8 {
		t.Errorf("NEXT COUNT(*) = %d, want 8", got)
	}
	if got := runCount(t, countQuery(query.Cont), figure2Stream()); got != 2 {
		t.Errorf("CONT COUNT(*) = %d, want 2", got)
	}
}

func TestGranularitySelection(t *testing.T) {
	cases := []struct {
		sem  query.Semantics
		adj  bool
		want Granularity
	}{
		{query.Any, false, TypeGrained},
		{query.Any, true, MixedGrained},
		{query.Next, false, PatternGrained},
		{query.Next, true, PatternGrained},
		{query.Cont, false, PatternGrained},
		{query.Cont, true, PatternGrained},
	}
	for _, c := range cases {
		if got := SelectGranularity(c.sem, c.adj); got != c.want {
			t.Errorf("SelectGranularity(%v, %v) = %v, want %v", c.sem, c.adj, got, c.want)
		}
	}
}

func TestPlanRejections(t *testing.T) {
	// Alias-scoped equivalence under pattern granularity.
	q := query.MustParse("RETURN COUNT(*) PATTERN (S A)+ SEMANTICS skip-till-next-match WHERE [A.c] WITHIN 10 SLIDE 10")
	if _, err := NewPlan(q); err == nil {
		t.Error("alias equivalence under NEXT accepted")
	}
	// Event type matching several pattern types under NEXT.
	q2 := query.MustParse("RETURN COUNT(*) PATTERN SEQ(S A+, S B+) SEMANTICS contiguous WITHIN 10 SLIDE 10")
	if _, err := NewPlan(q2); err == nil {
		t.Error("ambiguous event type under CONT accepted")
	}
	// Composite negated sub-pattern.
	q3 := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, NOT(SEQ(N, M)), B) WITHIN 10 SLIDE 10")
	if _, err := NewPlan(q3); err == nil {
		t.Error("composite negation accepted")
	}
}

func TestAggregatesMinMaxSumAvg(t *testing.T) {
	// Pattern M+ under ANY over rates 60, 62, 61: trends are all
	// non-empty ordered subsets: {60},{62},{61},{60,62},{60,61},
	// {62,61},{60,62,61} -> 7 trends.
	q := query.MustParse(`RETURN COUNT(*), COUNT(M), MIN(M.rate), MAX(M.rate), SUM(M.rate), AVG(M.rate)
		PATTERN M+ WITHIN 100 SLIDE 100`)
	events := []*event.Event{
		event.New("M", 1).WithNum("rate", 60),
		event.New("M", 2).WithNum("rate", 62),
		event.New("M", 3).WithNum("rate", 61),
	}
	eng := NewEngine(MustPlan(q))
	if err := eng.ProcessAll(events); err != nil {
		t.Fatal(err)
	}
	res := eng.Close()
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	v := res[0].Values
	if v[0].Count != 7 {
		t.Errorf("COUNT(*) = %d, want 7", v[0].Count)
	}
	// Occurrences: each event appears in 4 of the 7 trends -> 12.
	if v[1].Count != 12 {
		t.Errorf("COUNT(M) = %d, want 12", v[1].Count)
	}
	if v[2].F != 60 || v[3].F != 62 {
		t.Errorf("MIN/MAX = %v/%v, want 60/62", v[2].F, v[3].F)
	}
	// SUM over occurrences: 4*(60+62+61) = 732; AVG = 61.
	if v[4].F != 732 {
		t.Errorf("SUM = %v, want 732", v[4].F)
	}
	if v[5].F != 61 {
		t.Errorf("AVG = %v, want 61", v[5].F)
	}
}

func TestSlidingWindowsSeparateState(t *testing.T) {
	// WITHIN 4 SLIDE 2 over A+ (ANY): events at t=1 (win 0), t=3
	// (wins 0,1), t=5 (wins 1,2).
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 4 SLIDE 2")
	eng := NewEngine(MustPlan(q))
	for _, tm := range []int64{1, 3, 5} {
		if err := eng.Process(event.New("A", tm)); err != nil {
			t.Fatal(err)
		}
	}
	res := eng.Close()
	// Window 0 [0,4): a1,a3 -> 3 trends; window 1 [2,6): a3,a5 -> 3;
	// window 2 [4,8): a5 -> 1.
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	wantCounts := []uint64{3, 3, 1}
	for i, r := range res {
		if r.Wid != int64(i) || r.Values[0].Count != wantCounts[i] {
			t.Errorf("window %d: %v (want count %d)", i, r, wantCounts[i])
		}
	}
}

func TestWindowsEmittedIncrementallyOnWatermark(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 2 SLIDE 2")
	var emitted []Result
	eng := NewEngine(MustPlan(q), WithResultCallback(func(r Result) { emitted = append(emitted, r) }))
	eng.Process(event.New("A", 0))
	eng.Process(event.New("A", 1))
	if len(emitted) != 0 {
		t.Fatalf("window emitted before watermark: %v", emitted)
	}
	eng.Process(event.New("A", 2)) // watermark 2 closes window 0 = [0,2)
	if len(emitted) != 1 || emitted[0].Values[0].Count != 3 {
		t.Fatalf("after watermark: %v", emitted)
	}
	eng.Close()
	if len(emitted) != 2 {
		t.Fatalf("after close: %v", emitted)
	}
}

func TestGroupByPartitionsStream(t *testing.T) {
	// q1-style: [patient] + GROUP-BY patient under CONT.
	q := query.MustParse(`
		RETURN patient, COUNT(*)
		PATTERN Measurement M+
		SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate
		GROUP-BY patient
		WITHIN 100 SLIDE 100`)
	events := []*event.Event{
		event.New("Measurement", 1).WithSym("patient", "p1").WithNum("rate", 60),
		event.New("Measurement", 2).WithSym("patient", "p2").WithNum("rate", 80),
		event.New("Measurement", 3).WithSym("patient", "p1").WithNum("rate", 61),
		event.New("Measurement", 4).WithSym("patient", "p2").WithNum("rate", 79),
		event.New("Measurement", 5).WithSym("patient", "p1").WithNum("rate", 62),
	}
	eng := NewEngine(MustPlan(q))
	if err := eng.ProcessAll(events); err != nil {
		t.Fatal(err)
	}
	res := eng.Close()
	// p1: rates 60,61,62 contiguous increasing within the p1
	// sub-stream: trends {60},{61},{62},{60,61},{61,62},{60,61,62} = 6.
	// p2: 80,79 decreasing: trends {80},{79} = 2.
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Group[0] != "p1" || res[0].Values[0].Count != 6 {
		t.Errorf("p1: %v", res[0])
	}
	if res[1].Group[0] != "p2" || res[1].Values[0].Count != 2 {
		t.Errorf("p2: %v", res[1])
	}
}

func TestAliasEquivalenceBindings(t *testing.T) {
	// q3-style: SEQ(Stock A+, Stock B+) with [A.company], [B.company],
	// grouped by both; type-grained (no adjacent predicates).
	q := query.MustParse(`
		RETURN A.company, B.company, COUNT(*)
		PATTERN SEQ(Stock A+, Stock B+)
		WHERE [A.company] AND [B.company]
		GROUP-BY A.company, B.company
		WITHIN 100 SLIDE 100`)
	mk := func(tm int64, company string) *event.Event {
		return event.New("Stock", tm).WithSym("company", company).WithNum("price", 1)
	}
	// Stream: x@1, y@2, x@3.
	// Trends SEQ(A+,B+): pick non-empty A-subset then non-empty
	// B-subset, A's share a company, B's share a company, last A
	// before first B.
	// (A=x1, B=y2), (A=x1, B=x3), (A=y2, B=x3), (A=x1x3?) x3 after y2
	// is fine for A+ only if no B precedes... enumerate:
	//   A={x1}   B={y2}        -> (x,y)
	//   A={x1}   B={x3}        -> (x,x)
	//   A={x1}   B={y2? x3?} B's must share company: {y2},{x3} only
	//   A={y2}   B={x3}        -> (y,x)
	//   A={x1,x3}? x3 as A needs B after time 3: none
	// So groups: (x,y)=1, (x,x)=1, (y,x)=1.
	eng := NewEngine(MustPlan(q))
	if err := eng.ProcessAll([]*event.Event{mk(1, "x"), mk(2, "y"), mk(3, "x")}); err != nil {
		t.Fatal(err)
	}
	res := eng.Close()
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	want := map[string]uint64{"x,x": 1, "x,y": 1, "y,x": 1}
	for _, r := range res {
		key := r.Group[0] + "," + r.Group[1]
		if r.Values[0].Count != want[key] {
			t.Errorf("group %s: count = %d, want %d", key, r.Values[0].Count, want[key])
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Errorf("missing groups: %v", want)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	q := countQuery(query.Any)
	eng := NewEngine(MustPlan(q))
	eng.Process(event.New("A", 5))
	if err := eng.Process(event.New("A", 4)); err == nil {
		t.Error("out-of-order event accepted")
	}
}

func TestSimultaneousEventsAreNotAdjacent(t *testing.T) {
	// Two A's at the same time under ANY: each starts a trend, neither
	// extends the other (Definition 7: ep.time < e.time).
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	eng := NewEngine(MustPlan(q))
	eng.Process(event.New("A", 1))
	eng.Process(event.New("A", 1))
	res := eng.Close()
	if res[0].Values[0].Count != 2 {
		t.Errorf("COUNT(*) = %d, want 2", res[0].Values[0].Count)
	}
}

func TestEventsWithoutPartitionKeySkipped(t *testing.T) {
	q := query.MustParse(`
		RETURN COUNT(*) PATTERN A+ WHERE [k] WITHIN 10 SLIDE 10`)
	eng := NewEngine(MustPlan(q))
	eng.Process(event.New("A", 1)) // lacks attribute k
	eng.Process(event.New("A", 2).WithSym("k", "v"))
	res := eng.Close()
	if eng.EventsSkipped() != 1 {
		t.Errorf("skipped = %d, want 1", eng.EventsSkipped())
	}
	if len(res) != 1 || res[0].Values[0].Count != 1 {
		t.Errorf("results = %v", res)
	}
}

// --- negation across the three granularities ---

func negQuery(sem query.Semantics) *query.Query {
	// SEQ(A+, NOT(N), B): no N between the last a and the b.
	return query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, NOT(N), B) SEMANTICS " + sem.String() + " WITHIN 100 SLIDE 100")
}

func negStream() []*event.Event {
	return []*event.Event{
		event.New("A", 1).WithNum("t", 1),
		event.New("A", 2).WithNum("t", 2),
		event.New("N", 3),
		event.New("A", 4).WithNum("t", 4),
		event.New("B", 5).WithNum("t", 5),
	}
}

func TestNegationTypeGrained(t *testing.T) {
	// ANY: A-subsets ending at a4 (after the N) can reach b5:
	// {a4},{a1,a4},{a2,a4},{a1,a2,a4} -> 4 trends.
	if got := runCount(t, negQuery(query.Any), negStream()); got != 4 {
		t.Errorf("ANY with negation = %d, want 4", got)
	}
}

func TestNegationMixedGrained(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, NOT(N), B) WHERE A.t < NEXT(B).t WITHIN 100 SLIDE 100")
	plan := MustPlan(q)
	if plan.Granularity != MixedGrained || !plan.EventGrained["A"] {
		t.Fatalf("plan = %v", plan)
	}
	if got := runCount(t, q, negStream()); got != 4 {
		t.Errorf("mixed with negation = %d, want 4", got)
	}
}

func TestNegationPatternGrained(t *testing.T) {
	// NEXT chain: a1 -> a2 -> a4 (counts 1,2,3), b5 adjacent to a4 and
	// the N fired at 3 is not within (4,5): final = 3.
	if got := runCount(t, negQuery(query.Next), negStream()); got != 3 {
		t.Errorf("NEXT with negation = %d, want 3", got)
	}
	// Move the N between a4 and the b: chain blocked, no trend.
	events := []*event.Event{
		event.New("A", 1), event.New("A", 2), event.New("A", 4),
		event.New("N", 5), event.New("B", 6),
	}
	if got := runCount(t, negQuery(query.Next), events); got != 0 {
		t.Errorf("NEXT with blocking negation = %d, want 0", got)
	}
}

func TestAccountantReturnsToZero(t *testing.T) {
	for _, sem := range []query.Semantics{query.Any, query.Next, query.Cont} {
		var acct metrics.Accountant
		q := countQuery(sem)
		eng := NewEngine(MustPlan(q), WithAccountant(&acct))
		if err := eng.ProcessAll(figure2Stream()); err != nil {
			t.Fatal(err)
		}
		if acct.Peak() == 0 {
			t.Errorf("%v: peak memory not tracked", sem)
		}
		eng.Close()
		if acct.Current() != 0 {
			t.Errorf("%v: %d bytes leaked after Close", sem, acct.Current())
		}
	}
}

func TestMixedGrainedAccountantReturnsToZero(t *testing.T) {
	var acct metrics.Accountant
	q := query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WHERE B.t < NEXT(A).t WITHIN 100 SLIDE 100")
	eng := NewEngine(MustPlan(q), WithAccountant(&acct))
	if err := eng.ProcessAll(figure2Stream()); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if acct.Current() != 0 {
		t.Errorf("%d bytes leaked after Close", acct.Current())
	}
}

func TestPatternGrainedStartBreaksChainUnderNext(t *testing.T) {
	// SEQ(A+, B) under NEXT: a1 b2 a3 b4 -> (a1,b2) and (a3,b4).
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS skip-till-next-match WITHIN 100 SLIDE 100")
	events := []*event.Event{
		event.New("A", 1), event.New("B", 2), event.New("A", 3), event.New("B", 4),
	}
	if got := runCount(t, q, events); got != 2 {
		t.Errorf("COUNT(*) = %d, want 2", got)
	}
}

func TestContiguityResetOnLocalPredicateFailure(t *testing.T) {
	// CONT: an event failing its local predicate is irrelevant but
	// cannot be skipped -> it invalidates partial trends.
	q := query.MustParse(`
		RETURN COUNT(*) PATTERN M+ SEMANTICS contiguous
		WHERE M.rate > 50 WITHIN 100 SLIDE 100`)
	events := []*event.Event{
		event.New("M", 1).WithNum("rate", 60),
		event.New("M", 2).WithNum("rate", 40), // fails local, resets
		event.New("M", 3).WithNum("rate", 70),
	}
	// Trends: {60}, {70} (the failing event blocks {60,70} and {40}).
	if got := runCount(t, q, events); got != 2 {
		t.Errorf("COUNT(*) = %d, want 2", got)
	}
}

func TestPlanString(t *testing.T) {
	p := MustPlan(query.MustParse(`
		RETURN sector, A.company, B.company, AVG(B.price)
		PATTERN SEQ(Stock A+, Stock B+)
		WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		GROUP-BY sector, A.company, B.company
		WITHIN 600 SLIDE 10`))
	s := p.String()
	for _, frag := range []string{"granularity=mixed", "partition-by=[sector]", "binding-slots"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Plan.String() = %q missing %q", s, frag)
		}
	}
	if p.Granularity != MixedGrained || !p.EventGrained["A"] {
		t.Errorf("q3 plan wrong: %v", p)
	}
}

// TestMinLengthExcludesShortTrends verifies the §8 minimal-trend-
// length unrolling end to end: A+ MIN-LENGTH 3 under ANY counts only
// trends of length >= 3: 2^n - 1 - n - C(n,2).
func TestMinLengthExcludesShortTrends(t *testing.T) {
	q := query.MustParse(`RETURN COUNT(*) PATTERN A+ MIN-LENGTH 3 WITHIN 100 SLIDE 100`)
	var events []*event.Event
	for i := 1; i <= 6; i++ {
		events = append(events, event.New("A", int64(i)))
	}
	// 2^6 - 1 - 6 - 15 = 42.
	if got := runCount(t, q, events); got != 42 {
		t.Errorf("COUNT(*) = %d, want 42", got)
	}
	// Unrolling maps one event type to several pattern types, which
	// pattern granularity cannot disambiguate (Theorem 6.1): the
	// planner must reject MIN-LENGTH under NEXT/CONT.
	qn := query.MustParse(`RETURN COUNT(*) PATTERN A+ MIN-LENGTH 3 SEMANTICS next WITHIN 100 SLIDE 100`)
	if _, err := NewPlan(qn); err == nil {
		t.Error("MIN-LENGTH under NEXT accepted by the planner")
	}
}

// TestEngineReleasesProcessedEvent: once the call that processed an
// event returns, the engine keeps no pointer to it. The events of a
// decoded batch share one arena, so one kept pointer pins the batch.
// Every entry point is checked, on a partitioned and an unpartitioned
// plan: ProcessResolvedRun, and the two runs of one over it — Process
// (the engine's own resolver and run) and ProcessResolved (a
// Resolver's).
func TestEngineReleasesProcessedEvent(t *testing.T) {
	for _, where := range []string{"WHERE [k] GROUP-BY k ", ""} {
		plan := MustPlan(query.MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, B) ` + where + `WITHIN 100 SLIDE 100`))
		eng := NewEngine(plan)
		res := NewResolver(plan.Catalog())
		tid, _ := plan.Catalog().TypeID("A")
		var run ResolvedRun
		entries := []struct {
			name    string
			process func(ev *event.Event) error
		}{
			{"Process", eng.Process},
			{"ProcessResolved", func(ev *event.Event) error {
				return eng.ProcessResolved(ev, res, res.Resolve(ev))
			}},
			{"ProcessResolvedRun", func(ev *event.Event) error {
				res.ResolveRun(&run, []*event.Event{ev}, tid, plan.ReferencedAttrIDs())
				defer func() { run.Events = nil }() // the caller's borrow ends, as in the runtime
				return eng.ProcessResolvedRun(&run)
			}},
		}
		for i, entry := range entries {
			ev := event.New("A", int64(i+1)).WithSym("k", "g")
			kept := weak.Make(ev)
			if err := entry.process(ev); err != nil {
				t.Fatal(err)
			}
			ev = nil
			runtime.GC()
			if kept.Value() != nil {
				t.Errorf("%q: %s keeps the processed event alive", where, entry.name)
			}
		}
	}
}

// TestEngineCatalogGrowsMidStream: a bare engine resolves only its own
// plan's attributes, into columns as wide as its catalog. A second plan
// compiled into that catalog — new types, new attributes, and a
// symbolic read of an attribute the first plan reads numerically —
// widens the stride between two calls: before the first event, inside
// a window, and right before the event that closes one. The engine's
// rows must equal, row for row, those of the same query over a private
// catalog.
func TestEngineCatalogGrowsMidStream(t *testing.T) {
	const first = `RETURN COUNT(*), SUM(A.v), MAX(B.v) PATTERN SEQ(A+, B) WHERE [k] AND A.v < NEXT(A).v GROUP-BY k WITHIN 8 SLIDE 4`
	const second = `RETURN COUNT(*), SUM(X.w) PATTERN SEQ(X+, Y) WHERE [v] AND [X.z] AND X.w > 1 WITHIN 6 SLIDE 3`
	rng := rand.New(rand.NewSource(7))
	var events []*event.Event
	for tm := int64(0); tm < 40; tm++ {
		for range 1 + rng.Intn(3) {
			typ := []string{"A", "A", "B", "X", "Y"}[rng.Intn(5)]
			events = append(events, event.New(typ, tm).
				WithSym("k", fmt.Sprintf("k%d", rng.Intn(3))).
				WithNum("v", float64(rng.Intn(9))).
				WithNum("w", float64(rng.Intn(4))).
				WithSym("z", fmt.Sprintf("z%d", rng.Intn(2))))
		}
	}
	run := func(eng *Engine, growAt int, grow func()) []string {
		for i, ev := range events {
			if i == growAt {
				grow()
			}
			if err := eng.Process(ev.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return rendered(eng.Close())
	}
	want := run(NewEngine(MustPlan(query.MustParse(first))), -1, nil)
	if len(want) == 0 {
		t.Fatal("reference engine reported nothing")
	}
	firstOf := func(tm int64) int {
		return slices.IndexFunc(events, func(ev *event.Event) bool { return ev.Time == tm })
	}
	for name, at := range map[string]int{
		"before the first event": 0,
		"inside a window":        firstOf(5) + 1,
		"at a window boundary":   firstOf(8),
	} {
		cat := NewCatalog()
		plan, err := NewPlanIn(cat, query.MustParse(first))
		if err != nil {
			t.Fatal(err)
		}
		stride := cat.NumAttrSlots()
		got := run(NewEngine(plan), at, func() {
			if _, err := NewPlanIn(cat, query.MustParse(second)); err != nil {
				t.Fatal(err)
			}
		})
		if cat.NumAttrSlots() <= stride {
			t.Fatalf("%s: the second plan did not widen the catalog (%d attribute slots)", name, stride)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: rows over the growing catalog differ from a private catalog's\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// rendered is results as Result.String lines, for comparing with rows
// derived by hand.
func rendered(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.String()
	}
	return out
}

// checkRows feeds (time, key attributes) events of type A to a fresh
// engine of src and compares its rows with want.
func checkRows(t *testing.T, src string, events []*event.Event, want []string) *Engine {
	t.Helper()
	eng := NewEngine(MustPlan(query.MustParse(src)))
	if err := eng.ProcessAll(events); err != nil {
		t.Fatal(err)
	}
	if got := rendered(eng.Close()); !slices.Equal(got, want) {
		t.Errorf("%s:\ngot  %q\nwant %q", src, got, want)
	}
	return eng
}

// keyed builds an A event at tm carrying the attribute pairs kv.
func keyed(tm int64, kv ...string) *event.Event {
	ev := event.New("A", tm)
	for i := 0; i < len(kv); i += 2 {
		ev = ev.WithSym(kv[i], kv[i+1])
	}
	return ev
}

// TestPartitionIDsReusedInKeyOrder: the partition ids of keys no window
// opened through a whole generation are freed and taken by new keys,
// one sorting before and one after the key that survived, and the
// window that reuses them reports in key order. Each count is 2^n - 1
// for n events of one key in one window (A+ under skip-till-any-match).
func TestPartitionIDsReusedInKeyOrder(t *testing.T) {
	src := `RETURN key, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match
		WHERE [key] GROUP-BY key WITHIN 4 SLIDE 4`
	eng := NewEngine(MustPlan(query.MustParse(src)))
	// Window 1 holds m3 alone; closing it frees m1 and m2, which no window
	// opened since window 0, for z and a in window 2.
	for _, ev := range []*event.Event{
		keyed(0, "key", "m1"), keyed(1, "key", "m2"), keyed(2, "key", "m1"),
		keyed(4, "key", "m3"),
		keyed(8, "key", "z"), keyed(9, "key", "a"), keyed(10, "key", "m3"), keyed(11, "key", "a"),
	} {
		if err := eng.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if n, live := len(eng.parts.parts), eng.parts.live; n != 3 || live != 3 {
		t.Errorf("%d partition ids for %d live keys, want 3 and 3: a and z took the ids m1 and m2 left", n, live)
	}
	want := []string{
		"window [0,4) group=(m1): COUNT(*)=3",
		"window [0,4) group=(m2): COUNT(*)=1",
		"window [4,8) group=(m3): COUNT(*)=1",
		"window [8,12) group=(a): COUNT(*)=3",
		"window [8,12) group=(m3): COUNT(*)=1",
		"window [8,12) group=(z): COUNT(*)=1",
	}
	if got := rendered(eng.Close()); !slices.Equal(got, want) {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

// TestPartitionKeyShapes: the empty value is a key like any other (a
// missing attribute is not), composite keys whose values are prefixes
// of one another stay apart, and a sliding query's overlapping windows
// each report exactly the keys they saw.
func TestPartitionKeyShapes(t *testing.T) {
	eng := checkRows(t, `RETURN key, COUNT(*) PATTERN A+ WHERE [key] GROUP-BY key WITHIN 10 SLIDE 10`,
		[]*event.Event{keyed(1, "key", ""), keyed(2, "key", "b"), keyed(3, "key", ""), keyed(4)},
		[]string{
			"window [0,10) group=(): COUNT(*)=3",
			"window [0,10) group=(b): COUNT(*)=1",
		})
	if eng.EventsSkipped() != 1 {
		t.Errorf("%d events skipped, want the one without the key attribute", eng.EventsSkipped())
	}

	// "ab"+"c" and "a"+"bc" spell one string without the separator.
	composite := []*event.Event{
		keyed(1, "a", "ab", "b", "c"), keyed(2, "a", "a", "b", "bc"), keyed(3, "a", "a", "b", "b"),
		keyed(4, "a", "a", "b", "bc"), keyed(5, "a", "", "b", "abc"), keyed(6, "a", "abc", "b", ""),
	}
	eng = checkRows(t, `RETURN a, b, COUNT(*) PATTERN A+ WHERE [a] AND [b] GROUP-BY a, b WITHIN 10 SLIDE 10`,
		composite, []string{
			"window [0,10) group=(,abc): COUNT(*)=1",
			"window [0,10) group=(a,b): COUNT(*)=1",
			"window [0,10) group=(a,bc): COUNT(*)=3",
			"window [0,10) group=(ab,c): COUNT(*)=1",
			"window [0,10) group=(abc,): COUNT(*)=1",
		})
	if n := eng.parts.live; n != 5 {
		t.Errorf("%d composite keys numbered, want 5", n)
	}
	checkRows(t, `RETURN a, COUNT(*) PATTERN A+ WHERE [a] AND [b] GROUP-BY a WITHIN 10 SLIDE 10`,
		composite, []string{
			"window [0,10) group=(): COUNT(*)=1",
			"window [0,10) group=(a): COUNT(*)=4",
			"window [0,10) group=(ab): COUNT(*)=1",
			"window [0,10) group=(abc): COUNT(*)=1",
		})

	// Windows [0,4), [2,6), [4,8), [6,10): k1 is in the first two, k4 in
	// the last three, k2 in the first three.
	checkRows(t, `RETURN key, COUNT(*) PATTERN A+ WHERE [key] GROUP-BY key WITHIN 4 SLIDE 2`,
		[]*event.Event{
			keyed(0, "key", "k1"), keyed(1, "key", "k2"), keyed(2, "key", "k1"), keyed(3, "key", "k3"),
			keyed(4, "key", "k2"), keyed(5, "key", "k4"), keyed(6, "key", "k4"),
		},
		[]string{
			"window [0,4) group=(k1): COUNT(*)=3",
			"window [0,4) group=(k2): COUNT(*)=1",
			"window [0,4) group=(k3): COUNT(*)=1",
			"window [2,6) group=(k1): COUNT(*)=1",
			"window [2,6) group=(k2): COUNT(*)=1",
			"window [2,6) group=(k3): COUNT(*)=1",
			"window [2,6) group=(k4): COUNT(*)=1",
			"window [4,8) group=(k2): COUNT(*)=1",
			"window [4,8) group=(k4): COUNT(*)=3",
			"window [6,10) group=(k4): COUNT(*)=1",
		})
}

// TestSnapshotIgnoresPartitionIDs: a frame lists partitions by key, so
// it does not depend on how the engine numbered them. Two engines whose
// prefixes leave different ids free — six keys against one — code the
// same open windows into the same bytes once the prefix windows have
// closed, and an engine restored from the frame, whose ids are numbered
// afresh in frame order, keeps writing the same frames and rows as the
// original through further reuse.
func TestSnapshotIgnoresPartitionIDs(t *testing.T) {
	src := `RETURN key, COUNT(*), SUM(A.v) PATTERN A+ WHERE [key] GROUP-BY key WITHIN 4 SLIDE 2`
	var rows [2][]string
	newEngine := func(i int) *Engine {
		return NewEngine(MustPlan(query.MustParse(src)), WithResultCallback(func(r Result) { rows[i] = append(rows[i], r.String()) }))
	}
	feed := func(e *Engine, from, to int64, key func(tm int64) string) {
		t.Helper()
		for tm := from; tm < to; tm++ {
			if err := e.Process(keyed(tm, "key", key(tm)).WithNum("v", float64(tm))); err != nil {
				t.Fatal(err)
			}
		}
	}
	frame := func(e *Engine) []byte {
		var w snap.Writer
		e.Code(snap.Encoder(&w), math.MaxInt64)
		var b bytes.Buffer
		if err := w.Frame(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	churn := func(tm int64) string { return fmt.Sprintf("c%d", (tm*7)%11) }
	a, b := newEngine(0), newEngine(1)
	feed(a, 0, 6, func(tm int64) string { return fmt.Sprintf("p%d", tm) })
	feed(b, 0, 6, func(int64) string { return "q" })
	feed(a, 6, 31, churn)
	feed(b, 6, 31, churn)
	renumbered := false
	for _, pid := range a.parts.order {
		key := a.parts.parts[pid].key
		_, other := b.parts.find(key)
		renumbered = renumbered || other != pid
	}
	if len(a.parts.parts) >= 6+11 || !renumbered {
		t.Fatalf("%d partition ids for 17 keys, numbered alike in both engines: the check is vacuous", len(a.parts.parts))
	}
	if fa, fb := frame(a), frame(b); !bytes.Equal(fa, fb) {
		t.Fatalf("frames differ with the partition numbering:\n%x\n%x", fa, fb)
	}

	var w snap.Writer
	a.Code(snap.Encoder(&w), math.MaxInt64)
	r := w.Reader()
	restored := newEngine(1)
	restored.Code(snap.Decoder(r), math.MaxInt64)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rows = [2][]string{}
	for _, tm := range []int64{31, 40, 57} {
		feed(a, tm, tm+9, churn)
		feed(restored, tm, tm+9, churn)
		if fa, fr := frame(a), frame(restored); !bytes.Equal(fa, fr) {
			t.Fatalf("at %d: the restored engine's frame differs from the original's", tm+9)
		}
	}
	a.Close()
	restored.Close()
	if len(rows[0]) == 0 || !slices.Equal(rows[0], rows[1]) {
		t.Errorf("rows after restore:\noriginal %q\nrestored %q", rows[0], rows[1])
	}
}

// TestPartDictIndexMatchesMap drives the dictionary's open-addressing
// index through random numbering and freeing — long probe runs, holes
// shifted back across the table's wrap, growth and compaction — and
// checks every key against a Go map after each step.
func TestPartDictIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d partDict
	want := map[string]int32{}
	check := func(step int) {
		t.Helper()
		if d.live != len(want) {
			t.Fatalf("step %d: %d live ids, want %d", step, d.live, len(want))
		}
		for key, pid := range want {
			if _, got := d.find(key); got != pid {
				t.Fatalf("step %d: key %q has id %d, want %d", step, key, got, pid)
			}
		}
		for i := 0; i < 8; i++ {
			key := fmt.Sprint("absent", rng.Intn(100))
			if _, got := d.find(key); got >= 0 {
				t.Fatalf("step %d: absent key %q has id %d", step, key, got)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		switch key := fmt.Sprint(rng.Intn(300)); {
		case rng.Intn(3) > 0 || len(want) == 0:
			pid := d.id(key)
			if old, ok := want[key]; ok && old != pid {
				t.Fatalf("step %d: key %q renumbered %d -> %d while live", step, key, old, pid)
			}
			want[key] = pid
		default:
			for key, pid := range want { // free a random live key, as sweep does
				d.merge()
				d.order = slices.DeleteFunc(d.order, func(p int32) bool { return p == pid })
				d.unindex(key)
				d.parts[pid] = partEntry{}
				d.free = append(d.free, pid)
				delete(want, key)
				break
			}
		}
		if step%500 == 499 {
			d.merge()
			remap := d.compact()
			for key, pid := range want {
				want[key] = remap[pid]
			}
		}
		check(step)
	}
}
