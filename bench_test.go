// Micro-benchmarks of what cmd/cograbench does not cover — the paper's
// worked examples (Tables 3 and 5–7) and the static analyzer — plus the
// smoke test of the cograbench harness itself. Every §9 figure's query
// and stream are defined once, in internal/bench.
package cogra_test

import (
	"bytes"
	"testing"

	cogra "repro"
	"repro/internal/baselines/sase"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/event"
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

func figure2Plan(sem query.Semantics) *core.Plan {
	return cogra.MustCompile(cogra.MustParse(
		"RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS " + sem.String() + " WITHIN 100 SLIDE 100"))
}

// BenchmarkTable5TypeGrained micro-benchmarks the type-grained
// aggregator on the Table 5 worked example.
func BenchmarkTable5TypeGrained(b *testing.B) {
	runCogra(b, figure2Plan(query.Any), figure2Stream())
}

// BenchmarkTable6MixedGrained micro-benchmarks the mixed-grained
// aggregator on the Table 6 worked example.
func BenchmarkTable6MixedGrained(b *testing.B) {
	q := cogra.MustParse(`RETURN COUNT(*) PATTERN (SEQ(A+, B))+
		WHERE B.w < NEXT(A).w WITHIN 100 SLIDE 100`)
	runCogra(b, cogra.MustCompile(q), table6Stream())
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
			plan := cogra.MustCompile(cogra.MustParse(
				"RETURN COUNT(*) PATTERN A+ SEMANTICS " + sem.String() + " WITHIN 1000 SLIDE 1000"))
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
	var sink bytes.Buffer
	if err := bench.RunAll(cfg, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Error("harness produced no output")
	}
}
