package core

// Hot-path benchmarks for the per-event execution cost of the three
// granularities, the binding-key machinery and per-event attribute
// resolution. These are the regression guards for the interning layer:
// run with -benchmem; the no-equivalence engine paths and the binding
// combine/start operations must stay at 0 allocs/op.

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/predicate"
	"repro/internal/query"
)

// benchRand is a tiny deterministic xorshift so benchmark streams are
// reproducible without seeding math/rand.
type benchRand uint64

func (r *benchRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = benchRand(x)
	return x
}

// typeBenchStream emits (SEQ(A+,B))+-shaped traffic: runs of A events
// closed by a B, with a cycling symbolic account and a numeric value.
func typeBenchStream(n int) []*event.Event {
	r := benchRand(42)
	out := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		typ := "A"
		if i%4 == 3 {
			typ = "B"
		}
		out = append(out, event.New(typ, int64(i)).
			WithSym("acct", fmt.Sprintf("acct-%d", r.next()%4)).
			WithNum("v", float64(r.next()%1000)))
	}
	return out
}

// measureBenchStream emits M+ traffic partitioned over four patients
// with a random-walk rate, the q1/q2-style workload.
func measureBenchStream(n int) []*event.Event {
	r := benchRand(7)
	rates := [4]float64{60, 70, 80, 90}
	out := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		p := int(r.next() % 4)
		rates[p] += float64(int(r.next()%7)) - 3
		out = append(out, event.New("Measurement", int64(i)).
			WithSym("patient", fmt.Sprintf("p%d", p)).
			WithNum("rate", rates[p]))
	}
	return out
}

func benchEngine(b *testing.B, q *query.Query, events []*event.Event) {
	b.Helper()
	plan := MustPlan(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(plan)
		if err := eng.ProcessAll(events); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineProcessTypeGrained is the no-equivalence fast path:
// one aggregate per pattern type, no binding slots, no partitions.
func BenchmarkEngineProcessTypeGrained(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ WITHIN 1024 SLIDE 1024")
	benchEngine(b, q, typeBenchStream(4096))
}

// BenchmarkEngineProcessTypeGrainedSlots adds an alias-scoped
// equivalence predicate, exercising binding-key combine per event.
func BenchmarkEngineProcessTypeGrainedSlots(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ WHERE [A.acct] WITHIN 1024 SLIDE 1024")
	benchEngine(b, q, typeBenchStream(4096))
}

// mixedAdjacentQuery is the adjacent-predicate workload: mixed
// granularity stores every M event and evaluates the predicate against
// each stored predecessor. aliasScoped swaps the stream-partitioning
// [patient] + GROUP-BY for an alias-scoped [M.patient] binding slot.
func mixedAdjacentQuery(aliasScoped bool, within int64) *query.Query {
	partition := "[patient] AND M.rate < NEXT(M).rate GROUP-BY patient"
	if aliasScoped {
		partition = "[M.patient] AND M.rate < NEXT(M).rate"
	}
	return query.MustParse(fmt.Sprintf("RETURN COUNT(*) PATTERN Measurement M+ WHERE %s WITHIN %d SLIDE %[2]d", partition, within))
}

func BenchmarkEngineProcessMixedAdjacent(b *testing.B) {
	benchEngine(b, mixedAdjacentQuery(false, 512), measureBenchStream(4096))
}

// BenchmarkSlidingPartitions prices partition bookkeeping against window
// overlap: one grouped plan over 256 keys, each event in w/s = 1, 4 or
// 16 windows. An event resolves its partition id once, whatever the
// overlap, and each of its windows indexes a slot by it; a close walks
// the dictionary's key order. ns/event is what one event costs.
func BenchmarkSlidingPartitions(b *testing.B) {
	r := benchRand(5)
	events := make([]*event.Event, 1<<15)
	for i := range events {
		typ := "A"
		if i%4 == 3 {
			typ = "B"
		}
		events[i] = event.New(typ, int64(i/4)).
			WithSym("key", fmt.Sprintf("k%d", r.next()%256)).
			WithNum("v", float64(r.next()%1000))
	}
	for _, overlap := range []int64{1, 4, 16} {
		b.Run(fmt.Sprintf("w/s=%d", overlap), func(b *testing.B) {
			plan := MustPlan(query.MustParse(fmt.Sprintf(`RETURN key, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B)
				WHERE [key] GROUP-BY key WITHIN 256 SLIDE %d`, 256/overlap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := NewEngine(plan, WithResultCallback(func(Result) {}))
				if err := eng.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
				eng.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}

// BenchmarkEngineProcessMixedAdjacentSlots combines stored-event scans
// with alias-scoped binding keys.
func BenchmarkEngineProcessMixedAdjacentSlots(b *testing.B) {
	benchEngine(b, mixedAdjacentQuery(true, 512), measureBenchStream(4096))
}

// denseBenchStream is typeBenchStream with runs of equal time stamps:
// runLen events share each tick, the §8 stream-transaction shape that
// the hoisted watermark/window-state path exploits.
func denseBenchStream(n, runLen int) []*event.Event {
	out := typeBenchStream(n)
	for i := range out {
		out[i].Time = int64(i / runLen)
	}
	return out
}

// BenchmarkEngineProcessDenseTimestamps measures the equal-time-stamp
// fast path: with 16 events per tick the watermark check and the
// window-state lookup run once per tick instead of once per event.
func BenchmarkEngineProcessDenseTimestamps(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ WITHIN 64 SLIDE 64")
	benchEngine(b, q, denseBenchStream(4096, 16))
}

// BenchmarkEngineProcessPatternGrained is the O(1)-state contiguous
// path with an adjacent predicate and stream partitioning.
func BenchmarkEngineProcessPatternGrained(b *testing.B) {
	q := query.MustParse(`RETURN COUNT(*) PATTERN Measurement M+ SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate GROUP-BY patient WITHIN 512 SLIDE 512`)
	benchEngine(b, q, measureBenchStream(4096))
}

// BenchmarkMixedAdjacentArena measures the arena-backed event store
// under heavy window churn: the MixedAdjacent workload with 64-tick
// tumbling windows expires a window every 64 events, rewinding the
// arenas of its aggregators wholesale for the next window to refill.
func BenchmarkMixedAdjacentArena(b *testing.B) {
	benchEngine(b, mixedAdjacentQuery(false, 64), measureBenchStream(4096))
}

// TestMixedAdjacentAllocs pins the recycling guarantee on the
// stored-event path — stored (Te) entries come from their aggregator's
// arenas, never one allocation per stored event, and the aggregators
// with their arenas from the engine's pool, never a set per window — as
// exact per-pass allocation counts of the three benches above: one pass
// stores all 4,096 events over 8 (Arena: 64) windows on a new engine, so
// a per-event allocation overshoots any row by thousands and a
// per-window one the last row by hundreds. History: 842 / 410 / 5,754
// while arenas were engine-owned and windows built their state fresh
// (docs/perf-history.md); lower the counts when a change earns it,
// never raise them to make a change pass.
func TestMixedAdjacentAllocs(t *testing.T) {
	// The counts repeat exactly on one toolchain; the slack only absorbs
	// a Go release moving a map or slice growth step.
	const slack = 8
	events := measureBenchStream(4096)
	for _, tc := range []struct {
		name string
		q    *query.Query
		want float64
	}{
		{"MixedAdjacent", mixedAdjacentQuery(false, 512), 187},
		{"MixedAdjacentSlots", mixedAdjacentQuery(true, 512), 95},
		{"MixedAdjacentArena", mixedAdjacentQuery(false, 64), 263},
	} {
		plan := MustPlan(tc.q)
		got := testing.AllocsPerRun(5, func() {
			eng := NewEngine(plan)
			if err := eng.ProcessAll(events); err != nil {
				t.Fatal(err)
			}
			eng.Close()
		})
		if got > tc.want+slack {
			t.Errorf("%s: %v allocs per pass over %d stored events, pinned at %v", tc.name, got, len(events), tc.want)
		}
	}
}

// BenchmarkEngineProcessRunKernel measures the batch-kernel execution
// path (ResolveRun + ProcessResolvedRun) on dense same-time type runs
// — the regression guard for the hoisted per-run prologue: admission
// check, dispatch-table lookup and spec projection install run once
// per run, so re-introducing a per-event subscription-index read
// shows up directly as lost events/s here.
func BenchmarkEngineProcessRunKernel(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ WITHIN 64 SLIDE 64")
	plan := MustPlan(q)
	events := denseBenchStream(4096, 16)
	// Pre-bucket the stream into runs (same time, same type, arrival
	// order) so the loop measures kernel execution, not bucketing.
	type runSpec struct {
		tid    int32
		events []*event.Event
	}
	var runs []runSpec
	for start := 0; start < len(events); {
		end := start + 1
		for end < len(events) && events[end].Time == events[start].Time && events[end].Type == events[start].Type {
			end++
		}
		tid, ok := plan.Catalog().TypeID(events[start].Type)
		if !ok {
			b.Fatalf("type %s not interned", events[start].Type)
		}
		runs = append(runs, runSpec{tid, events[start:end]})
		start = end
	}
	attrs := plan.ReferencedAttrIDs()
	res := NewResolver(plan.Catalog())
	var run ResolvedRun
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(plan)
		for _, rs := range runs {
			res.ResolveRun(&run, rs.events, rs.tid, attrs)
			if err := eng.ProcessResolvedRun(&run); err != nil {
				b.Fatal(err)
			}
		}
		eng.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// TestHotPathZeroAllocs enforces the interning layer's allocation
// invariants as a regular test, so a regression fails `go test ./...`
// rather than only shifting benchmark output: steady-state binding
// combine (packed and interned-vector), value interning of seen
// values, per-event resolve, and — beyond the result rows — the
// turnover of a whole window must not allocate.
func TestHotPathZeroAllocs(t *testing.T) {
	packed := newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"},
	}, nopAccountant{}, false)
	pAssigns := []slotAssign{{idx: 0, val: packed.internVal("v1")}}
	pKey := packed.startKey([]slotAssign{{idx: 1, val: packed.internVal("v2")}})
	if n := testing.AllocsPerRun(1000, func() { packed.combine(pKey, pAssigns) }); n != 0 {
		t.Errorf("packed combine allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { packed.internVal("v1") }); n != 0 {
		t.Errorf("repeat internVal allocates %v/op", n)
	}

	wide := newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"}, {Alias: "C", Attr: "z"},
	}, nopAccountant{}, false)
	wAssigns := []slotAssign{{idx: 0, val: wide.internVal("v1")}}
	wKey := wide.startKey([]slotAssign{{idx: 2, val: wide.internVal("v3")}})
	wide.combine(wKey, wAssigns) // pre-intern the result vector
	if n := testing.AllocsPerRun(1000, func() { wide.combine(wKey, wAssigns) }); n != 0 {
		t.Errorf("vector combine allocates %v/op", n)
	}

	q := query.MustParse("RETURN COUNT(*), AVG(M.rate) PATTERN Measurement M+ WHERE [patient] WITHIN 512 SLIDE 512")
	plan := MustPlan(q)
	ev := event.New("Measurement", 1).WithSym("patient", "p1").WithNum("rate", 60)
	res := NewResolver(plan.Catalog())
	tid, _ := plan.Catalog().TypeID(ev.Type)
	one := []*event.Event{ev}
	var run ResolvedRun
	res.ResolveRun(&run, one, tid, plan.ReferencedAttrIDs()) // warm the run's columns
	if n := testing.AllocsPerRun(1000, func() { res.ResolveRun(&run, one, tid, plan.ReferencedAttrIDs()) }); n != 0 {
		t.Errorf("ResolveRun allocates %v/op", n)
	}

	// A compiled adjacent-predicate edge evaluates without allocating.
	qn := query.MustParse("RETURN COUNT(*) PATTERN Measurement M+ WHERE M.rate < NEXT(M).rate WITHIN 512 SLIDE 512")
	plann := MustPlan(qn)
	var rvn resolvedVals
	resolveView(plann, &rvn, event.New("Measurement", 1).WithNum("rate", 60))
	left := plann.copyLeftVals(nil, &rvn) // stored predecessor: rate=60
	resolveView(plann, &rvn, event.New("Measurement", 2).WithNum("rate", 61))
	edge := &rvn.tp.aliases[0].preds[0]
	if !evalAdjacent(edge.adj, left, &rvn) {
		t.Fatal("M.rate < NEXT(M).rate rejected an increasing pair")
	}
	if n := testing.AllocsPerRun(1000, func() { evalAdjacent(edge.adj, left, &rvn) }); n != 0 {
		t.Errorf("adjacent evaluation allocates %v/op", n)
	}

	// Window turnover: on a warm engine, opening a window's partitions,
	// filling them and closing the window allocates nothing but the result
	// rows the receiver keeps — one Values and one Group backing array per
	// closed window, counted at the callback and subtracted. One case per
	// plan shape: the slot-less fast path over grouped partitions, the
	// binding-key path with stored (Te) events, and the Algorithm 3 kernel;
	// and overlapping windows whose keys churn, so each generation's sweep
	// frees partition ids the next one reuses for other keys.
	cycle := func(i int) string { return fmt.Sprintf("k%d", i%16%3) }
	churn := func(i int) string { return fmt.Sprintf("c%d", (i/16*5+i%16)%48) }
	for _, tc := range []struct {
		name, query string
		want        Granularity
		key         func(i int) string
	}{
		{"type", `RETURN key, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B)
			WHERE [key] GROUP-BY key WITHIN 16 SLIDE 16`, TypeGrained, cycle},
		{"mixed-slots", `RETURN A.key, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B)
			WHERE [A.key] AND [B.key] AND A.v < NEXT(A).v GROUP-BY A.key WITHIN 16 SLIDE 16`, MixedGrained, cycle},
		{"pattern", `RETURN key, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS skip-till-next-match
			WHERE [key] AND A.v < NEXT(A).v GROUP-BY key WITHIN 16 SLIDE 16`, PatternGrained, cycle},
		{"sliding-churn", `RETURN key, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B)
			WHERE [key] GROUP-BY key WITHIN 16 SLIDE 4`, TypeGrained, churn},
	} {
		plan := MustPlan(query.MustParse(tc.query))
		if plan.Granularity != tc.want {
			t.Fatalf("turnover/%s: granularity = %v, want %v", tc.name, plan.Granularity, tc.want)
		}
		const runs, perWindow, warm = 50, 16, 8
		// Sixteen ticks per AllocsPerRun call (plus its warm-up call, warm
		// to warm the pools and the partition dictionary through a few
		// generations, one to close the last window).
		events := make([]*event.Event, 0, (runs+warm+2)*perWindow)
		for i := 0; i < cap(events); i++ {
			typ, at := "A", i%perWindow
			if at%4 == 3 {
				typ = "B"
			}
			events = append(events, event.New(typ, int64(i)).
				WithSym("key", tc.key(i)).WithNum("v", float64(at*7%5)))
		}
		var rowArrays, lastWid int64
		lastWid = -1
		eng := NewEngine(plan, WithResultCallback(func(r Result) {
			if r.Wid != lastWid {
				lastWid = r.Wid
				rowArrays += 2 // this window's Values and Group arrays
			}
		}))
		next := 0
		window := func() {
			for _, ev := range events[next : next+perWindow] {
				if err := eng.Process(ev); err != nil {
					t.Fatal(err)
				}
			}
			next += perWindow
		}
		for range warm {
			window()
		}
		rowArrays = 0
		allocs := testing.AllocsPerRun(runs, window)
		if rowArrays == 0 {
			t.Fatalf("turnover/%s: no window reported; the pin is vacuous", tc.name)
		}
		if beyond := allocs - float64(rowArrays)/(runs+1); beyond != 0 {
			t.Errorf("turnover/%s: %v allocations per window beyond its result rows", tc.name, beyond)
		}
		if ids := len(eng.parts.parts); tc.name == "sliding-churn" && ids >= 48 {
			t.Errorf("turnover/%s: %d partition ids for 48 keys; no id was reused", tc.name, ids)
		}
	}
}

// TestNegationResetZeroAllocs pins the staged negation reset: a fire of
// the negated type empties the shadow tables it guards in place — it
// used to replace each with a fresh map, one allocation per fire and
// guarded alias, forever.
func TestNegationResetZeroAllocs(t *testing.T) {
	plan := MustPlan(query.MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, NOT(C), B) WITHIN 1000000 SLIDE 1000000`))
	const runs, perRun = 100, 6
	events := make([]*event.Event, 0, (runs+2)*perRun)
	for i := 0; i < cap(events); i++ {
		events = append(events, event.New([]string{"A", "A", "C", "A", "B", "C"}[i%perRun], int64(i)))
	}
	eng := NewEngine(plan)
	next := 0
	chunk := func() {
		for _, ev := range events[next : next+perRun] {
			if err := eng.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		next += perRun
	}
	chunk()
	if n := testing.AllocsPerRun(runs, chunk); n != 0 {
		t.Errorf("%v allocations per %d events with two negation fires, want 0", n, perRun)
	}
	if rs := eng.Close(); len(rs) != 1 || rs[0].Values[0].Count == 0 {
		t.Errorf("negation plan reported %v", rs)
	}
}

// BenchmarkBindingCombine measures combine/startKey on the packed
// (≤2 slot) representation; both must be allocation-free.
func BenchmarkBindingCombine(b *testing.B) {
	bnd := newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"},
	}, nopAccountant{}, false)
	assigns := []slotAssign{{idx: 0, val: bnd.internVal("v1")}}
	partial := bnd.startKey([]slotAssign{{idx: 1, val: bnd.internVal("v2")}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := bnd.combine(partial, assigns); !ok {
			b.Fatal("combine rejected compatible assignment")
		}
	}
}

// BenchmarkBindingCombineWide exercises the interned-vector fallback
// for plans with more than two slots; steady-state combine re-interns
// an already-seen vector without allocating.
func BenchmarkBindingCombineWide(b *testing.B) {
	bnd := newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"}, {Alias: "C", Attr: "z"},
	}, nopAccountant{}, false)
	assigns := []slotAssign{{idx: 0, val: bnd.internVal("v1")}}
	partial := bnd.startKey([]slotAssign{{idx: 2, val: bnd.internVal("v3")}})
	if _, ok := bnd.combine(partial, assigns); !ok { // pre-intern the result vector
		b.Fatal("combine rejected compatible assignment")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := bnd.combine(partial, assigns); !ok {
			b.Fatal("combine rejected compatible assignment")
		}
	}
}

// BenchmarkBindingIntern measures value interning on the repeat path
// (the per-event case: the value has been seen before).
func BenchmarkBindingIntern(b *testing.B) {
	bnd := newBindings([]predicate.Equivalence{{Alias: "A", Attr: "x"}}, nopAccountant{}, false)
	bnd.internVal("account-42")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bnd.internVal("account-42")
	}
}

// BenchmarkResolveView measures a lone event's resolved-view
// construction (a run of one through ResolveRun) — the one probe pass
// that replaces all downstream map lookups.
func BenchmarkResolveView(b *testing.B) {
	q := query.MustParse(`RETURN COUNT(*), AVG(M.rate) PATTERN Measurement M+
		WHERE [patient] AND M.rate < NEXT(M).rate GROUP-BY patient WITHIN 512 SLIDE 512`)
	plan := MustPlan(q)
	ev := event.New("Measurement", 1).WithSym("patient", "p1").WithNum("rate", 60)
	res := NewResolver(plan.Catalog())
	tid, _ := plan.Catalog().TypeID(ev.Type)
	one := []*event.Event{ev}
	var run ResolvedRun
	res.ResolveRun(&run, one, tid, plan.ReferencedAttrIDs()) // warm the run's columns
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res.ResolveRun(&run, one, tid, plan.ReferencedAttrIDs())
	}
}

// BenchmarkAppendEventKey measures per-event partition-key extraction
// into a reused buffer, as the multi-query router does.
func BenchmarkAppendEventKey(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*) PATTERN Measurement M+ WHERE [patient] GROUP-BY patient WITHIN 512 SLIDE 512")
	plan := MustPlan(q)
	ev := event.New("Measurement", 1).WithSym("patient", "p1").WithNum("rate", 60)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendEventKey(buf[:0], ev, plan.StreamKeys); !ok {
			b.Fatal("no key")
		}
	}
}
