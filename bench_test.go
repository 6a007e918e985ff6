// Benchmarks regenerating the performance profile of each experiment
// in §9 as testing.B micro-benchmarks: one benchmark (family) per
// figure and table of the paper. The full multi-approach sweeps with
// DNF handling live in cmd/cograbench; these benches give
// allocation-accurate per-approach numbers at one representative
// sweep point each.
package cogra_test

import (
	"fmt"
	"testing"

	cogra "repro"
	"repro/internal/baselines"
	"repro/internal/baselines/aseq"
	"repro/internal/baselines/greta"
	"repro/internal/baselines/sase"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gen"
	"repro/internal/query"
)

// runCogra measures the COGRA engine over a prepared stream.
func runCogra(b *testing.B, plan *core.Plan, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cloned := make([]*event.Event, len(events))
		for j, e := range events {
			cloned[j] = e.Clone()
		}
		b.StartTimer()
		eng := core.NewEngine(plan)
		if err := eng.ProcessAll(cloned); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
	b.SetBytes(int64(len(events)))
}

func runBaseline(b *testing.B, r baselines.Runner, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cloned := make([]*event.Event, len(events))
		for j, e := range events {
			c := e.Clone()
			c.ID = 0
			cloned[j] = c
		}
		b.StartTimer()
		if _, err := r.Run(cloned); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(events)))
}

// fig5Setup builds the q1-style contiguous query and stream.
func fig5Setup(n int) (*core.Plan, []*event.Event) {
	q := cogra.MustParse(fmt.Sprintf(`
		RETURN patient, COUNT(*), MAX(M.rate)
		PATTERN Measurement M+
		SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate
		GROUP-BY patient
		WITHIN %d SLIDE %d`, n, n))
	return cogra.MustCompile(q), gen.Activity(gen.ActivityConfig{Seed: 5, Events: n, RunLength: 6})
}

// BenchmarkFig5Contiguous reproduces Figure 5's workload (contiguous
// semantics, physical activity) for COGRA and the two-step SASE.
func BenchmarkFig5Contiguous(b *testing.B) {
	plan, events := fig5Setup(20000)
	b.Run("COGRA", func(b *testing.B) { runCogra(b, plan, events) })
	b.Run("SASE", func(b *testing.B) { runBaseline(b, sase.New(plan), events) })
}

// BenchmarkFig6NextMatch reproduces Figure 6's workload
// (skip-till-next-match, public transportation).
func BenchmarkFig6NextMatch(b *testing.B) {
	q := cogra.NewQuery(cogra.Plus(cogra.Seq(cogra.Plus(cogra.TypeAs("Board", "B")), cogra.TypeAs("Ride", "R")))).
		Return(cogra.CountStar()).
		Semantics(cogra.SkipTillNextMatch).
		WhereEquiv(cogra.EquivalencePredicate{Attr: "passenger"}).
		GroupBy(cogra.GroupKey{Attr: "passenger"}).
		Within(20000, 20000).
		MustBuild()
	plan := cogra.MustCompile(q)
	events := gen.Transit(gen.TransitConfig{Seed: 6, Events: 20000})
	b.Run("COGRA", func(b *testing.B) { runCogra(b, plan, events) })
	b.Run("SASE", func(b *testing.B) { runBaseline(b, sase.New(plan), events) })
}

// fig7Setup builds the q3-style ANY query without adjacent predicates.
func fig7Setup(n int) (*core.Plan, []*event.Event) {
	q := cogra.NewQuery(cogra.Seq(cogra.Plus(cogra.TypeAs("Stock", "A")), cogra.Plus(cogra.TypeAs("Stock", "B")))).
		Return(cogra.CountStar(), cogra.Avg("B", "price")).
		Semantics(cogra.SkipTillAnyMatch).
		WhereEquiv(cogra.EquivalencePredicate{Attr: "company"}).
		GroupBy(cogra.GroupKey{Attr: "company"}).
		Within(int64(n), int64(n)).
		MustBuild()
	return cogra.MustCompile(q), gen.Stock(gen.StockConfig{Seed: 7, Events: n})
}

// BenchmarkFig7AnyMatch reproduces Figure 7's workload at a size all
// online approaches survive; the two-step approaches are DNF here and
// appear only in cmd/cograbench.
func BenchmarkFig7AnyMatch(b *testing.B) {
	plan, events := fig7Setup(5000)
	b.Run("COGRA", func(b *testing.B) { runCogra(b, plan, events) })
	b.Run("GRETA", func(b *testing.B) { runBaseline(b, greta.New(plan), events) })
	b.Run("A-Seq", func(b *testing.B) {
		r := aseq.New(plan)
		r.MaxLen = 12
		runBaseline(b, r, events)
	})
}

// BenchmarkFig8HighRate reproduces Figure 8's workload at the high
// event rate only COGRA handles comfortably.
func BenchmarkFig8HighRate(b *testing.B) {
	plan, events := fig7Setup(100000)
	b.Run("COGRA", func(b *testing.B) { runCogra(b, plan, events) })
}

// BenchmarkFig9Selectivity reproduces Figure 9's workload: the
// mixed-grained aggregator under increasing predicate selectivity.
func BenchmarkFig9Selectivity(b *testing.B) {
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		sel := sel
		pass := func(prev, next float64) bool {
			return gen.PairHash(prev, next) < sel
		}
		q := cogra.NewQuery(cogra.Seq(cogra.Plus(cogra.TypeAs("Stock", "A")), cogra.Plus(cogra.TypeAs("Stock", "B")))).
			Return(cogra.CountStar()).
			Semantics(cogra.SkipTillAnyMatch).
			WhereEquiv(cogra.EquivalencePredicate{Attr: "company"}).
			WhereAdjacent(cogra.AdjacentPredicate{Left: "A", LeftAttr: "u", Right: "A", RightAttr: "u", NumFn: pass}).
			WhereAdjacent(cogra.AdjacentPredicate{Left: "A", LeftAttr: "u", Right: "B", RightAttr: "u", NumFn: pass}).
			GroupBy(cogra.GroupKey{Attr: "company"}).
			Within(5000, 5000).
			MustBuild()
		plan := cogra.MustCompile(q)
		if plan.Granularity != core.MixedGrained {
			b.Fatalf("expected mixed granularity")
		}
		events := gen.Stock(gen.StockConfig{Seed: 9, Events: 5000})
		b.Run(fmt.Sprintf("COGRA-sel%.0f%%", sel*100), func(b *testing.B) { runCogra(b, plan, events) })
	}
}

// BenchmarkFig10Grouping reproduces Figure 10's workload: latency vs
// the number of trend groups.
func BenchmarkFig10Grouping(b *testing.B) {
	for _, groups := range []int{5, 30} {
		q := cogra.NewQuery(cogra.Seq(cogra.Plus(cogra.TypeAs("Board", "B")), cogra.TypeAs("Ride", "R"))).
			Return(cogra.CountStar()).
			Semantics(cogra.SkipTillAnyMatch).
			WhereEquiv(cogra.EquivalencePredicate{Attr: "passenger"}).
			GroupBy(cogra.GroupKey{Attr: "passenger"}).
			Within(5000, 5000).
			MustBuild()
		plan := cogra.MustCompile(q)
		events := gen.Transit(gen.TransitConfig{Seed: 10, Events: 5000, Passengers: groups})
		b.Run(fmt.Sprintf("COGRA-groups%d", groups), func(b *testing.B) { runCogra(b, plan, events) })
	}
}

// figure2Stream is the paper's worked-example stream.
func figure2Stream() []*event.Event {
	var out []*event.Event
	for _, s := range []struct {
		typ string
		t   int64
	}{{"A", 1}, {"B", 2}, {"A", 3}, {"A", 4}, {"C", 5}, {"B", 6}, {"A", 7}, {"B", 8}} {
		out = append(out, event.New(s.typ, s.t).WithNum("t", float64(s.t)))
	}
	return out
}

func figure2Plan(sem query.Semantics) *core.Plan {
	q := cogra.NewQuery(cogra.Plus(cogra.Seq(cogra.Plus(cogra.Type("A")), cogra.Type("B")))).
		Return(cogra.CountStar()).
		Semantics(sem).
		Within(100, 100).
		MustBuild()
	return cogra.MustCompile(q)
}

// BenchmarkTable5TypeGrained micro-benchmarks the type-grained
// aggregator on the Table 5 worked example.
func BenchmarkTable5TypeGrained(b *testing.B) {
	runCogra(b, figure2Plan(query.Any), figure2Stream())
}

// BenchmarkTable6MixedGrained micro-benchmarks the mixed-grained
// aggregator on the Table 6 worked example.
func BenchmarkTable6MixedGrained(b *testing.B) {
	q := cogra.NewQuery(cogra.Plus(cogra.Seq(cogra.Plus(cogra.Type("A")), cogra.Type("B")))).
		Return(cogra.CountStar()).
		Semantics(cogra.SkipTillAnyMatch).
		WhereAdjacent(cogra.AdjacentPredicate{
			Left: "B", LeftAttr: "t", Right: "A", RightAttr: "t",
			NumFn: func(prev, next float64) bool {
				return !(prev == 6 && next == 7)
			}}).
		Within(100, 100).
		MustBuild()
	runCogra(b, cogra.MustCompile(q), figure2Stream())
}

// BenchmarkTable7PatternGrained micro-benchmarks the pattern-grained
// aggregator on the Table 7 worked example (NEXT and CONT).
func BenchmarkTable7PatternGrained(b *testing.B) {
	b.Run("NEXT", func(b *testing.B) { runCogra(b, figure2Plan(query.Next), figure2Stream()) })
	b.Run("CONT", func(b *testing.B) { runCogra(b, figure2Plan(query.Cont), figure2Stream()) })
}

// BenchmarkTable3TrendEnumeration measures the two-step trend
// construction cost classes of Table 3 via the enumerator.
func BenchmarkTable3TrendEnumeration(b *testing.B) {
	mk := func(n int) []*event.Event {
		var out []*event.Event
		for i := 1; i <= n; i++ {
			out = append(out, event.New("A", int64(i)))
		}
		return out
	}
	for _, sem := range []query.Semantics{query.Any, query.Next} {
		sem := sem
		n := 14 // 2^14 trends under ANY, 105 under NEXT
		b.Run(sem.String(), func(b *testing.B) {
			q := cogra.NewQuery(cogra.Plus(cogra.Type("A"))).
				Return(cogra.CountStar()).
				Semantics(sem).Within(1000, 1000).MustBuild()
			plan := cogra.MustCompile(q)
			events := mk(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sase.EnumerateWindow(plan, events, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity isolates the granularity design choice
// (§3.3): the same ANY query at type, mixed and event granularity.
func BenchmarkAblationGranularity(b *testing.B) {
	n := 5000
	typePlan, events := fig7Setup(n)
	mixedQ := cogra.NewQuery(cogra.Seq(cogra.Plus(cogra.TypeAs("Stock", "A")), cogra.Plus(cogra.TypeAs("Stock", "B")))).
		Return(cogra.CountStar(), cogra.Avg("B", "price")).
		Semantics(cogra.SkipTillAnyMatch).
		WhereEquiv(cogra.EquivalencePredicate{Attr: "company"}).
		WhereAdjacent(cogra.AdjacentPredicate{
			Left: "A", LeftAttr: "u", Right: "B", RightAttr: "u",
			NumFn: func(prev, next float64) bool { return true }}).
		GroupBy(cogra.GroupKey{Attr: "company"}).
		Within(int64(n), int64(n)).
		MustBuild()
	mixedPlan := cogra.MustCompile(mixedQ)
	b.Run("type", func(b *testing.B) { runCogra(b, typePlan, events) })
	b.Run("mixed", func(b *testing.B) { runCogra(b, mixedPlan, events) })
	b.Run("event", func(b *testing.B) { runBaseline(b, greta.New(typePlan), events) })
}

// BenchmarkParallelExecutor measures the §8 partition-parallel
// speed-up over worker counts (1 is the in-thread worker).
func BenchmarkParallelExecutor(b *testing.B) {
	plan, events := fig5Setup(50000)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cloned := make([]*event.Event, len(events))
				for j, e := range events {
					cloned[j] = e.Clone()
				}
				b.StartTimer()
				sess := cogra.NewSession(cogra.WithWorkers(workers))
				if _, err := sess.Subscribe(plan.Query); err != nil {
					b.Fatal(err)
				}
				if err := sess.PushBatch(cloned); err != nil {
					b.Fatal(err)
				}
				if err := sess.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(events)))
		})
	}
}

// BenchmarkQueryCompilation measures the static analyzer itself.
func BenchmarkQueryCompilation(b *testing.B) {
	src := `
		RETURN sector, A.company, B.company, AVG(B.price)
		PATTERN SEQ(Stock A+, Stock B+)
		SEMANTICS skip-till-any-match
		WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		GROUP-BY sector, A.company, B.company
		WITHIN 10 minutes SLIDE 10 seconds`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := cogra.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cogra.Compile(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchHarnessSmoke runs every §9 experiment at tiny scale to keep
// the harness itself under test.
func TestBenchHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is not short")
	}
	cfg := bench.DefaultConfig()
	cfg.Scale = 0.01
	cfg.TwoStepBudget = 2_000_000
	cfg.OnlineBudget = 20_000_000
	var sink discard
	if err := bench.RunAll(cfg, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Error("harness produced no output")
	}
}

type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
