package bench

// Shared-vs-separate multi-query benchmark: the workload motivating
// the shared runtime (internal/runtime). A fleet of standing queries
// watches one stream; executed separately, every engine re-resolves
// every event and re-checks every watermark. The shared runtime
// resolves once against the union catalog and dispatches through the
// per-type index, so each event reaches only the queries whose
// patterns mention its type.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/runtime"
)

// sharedBenchQueryCount is the hosted fleet size (the acceptance bar
// is ≥ 8 queries over one stream).
const sharedBenchQueryCount = 8

// sharedBenchStream emits events of 8 service types, all carrying the
// shared partition attribute and a numeric value, time advancing every
// 4 events. Most events use a hot shared key space; a quarter carry
// type-local session keys, the production shape where an entity id
// only ever occurs on some types — engines that are forced to observe
// foreign types materialise sub-stream state for keys their query can
// never complete a trend on.
func sharedBenchStream(n int) []*event.Event {
	r := uint64(1)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	out := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		ti := next() % 8
		ev := event.New(fmt.Sprintf("S%d", ti), int64(i/4)).
			WithNum("v", float64(next()%1000))
		if next()%4 == 0 {
			ev.WithSym("key", fmt.Sprintf("s%d-%d", ti, next()%512))
		} else {
			ev.WithSym("key", fmt.Sprintf("k%d", next()%64))
		}
		ev.ID = int64(i + 1)
		out = append(out, ev)
	}
	return out
}

// sharedBenchQueries builds the fleet: query i aggregates the
// SEQ(S_i+, S_{i+1}) transition, so each query subscribes to 2 of the
// 8 stream types — the typical production shape where any one query
// cares about a slice of the stream.
func sharedBenchQueries() []*query.Query {
	out := make([]*query.Query, sharedBenchQueryCount)
	for i := range out {
		out[i] = query.MustParse(fmt.Sprintf(`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S%d A+, S%d B)
			WHERE [key] GROUP-BY key WITHIN 256 SLIDE 256`, i, (i+1)%8))
	}
	return out
}

// runShared executes the fleet on one shared runtime.
func runShared(events []*event.Event, queries []*query.Query) ([][]core.Result, error) {
	cat := core.NewCatalog()
	rt := runtime.NewOn(cat)
	for _, q := range queries {
		plan, err := core.NewPlanIn(cat, q)
		if err != nil {
			return nil, err
		}
		if _, err := rt.SubscribePlan(plan); err != nil {
			return nil, err
		}
	}
	if err := rt.ProcessBatch(events); err != nil {
		return nil, err
	}
	return rt.Close(), nil
}

// runSeparate executes the fleet as independent engines, each with its
// own catalog, resolve pass and watermark — the status quo cost of N
// queries before the shared runtime.
func runSeparate(events []*event.Event, queries []*query.Query) ([][]core.Result, error) {
	out := make([][]core.Result, len(queries))
	for i, q := range queries {
		plan, err := core.NewPlan(q)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(plan)
		if err := eng.ProcessAll(events); err != nil {
			return nil, err
		}
		out[i] = eng.Close()
	}
	return out, nil
}

// TestSharedRuntimeMatchesSeparateEngines verifies the benchmark's
// two sides agree byte-for-byte, so the speedup is not buying a
// different answer.
func TestSharedRuntimeMatchesSeparateEngines(t *testing.T) {
	events := sharedBenchStream(8192)
	queries := sharedBenchQueries()
	shared, err := runShared(events, queries)
	if err != nil {
		t.Fatal(err)
	}
	separate, err := runSeparate(events, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got, want := fmt.Sprintf("%v", shared[i]), fmt.Sprintf("%v", separate[i]); got != want {
			t.Errorf("query %d: shared runtime diverges\nshared:   %s\nseparate: %s", i, got, want)
		}
		if len(separate[i]) == 0 {
			t.Errorf("query %d produced no results; benchmark would be vacuous", i)
		}
	}
}

func benchFleet(b *testing.B, run func([]*event.Event, []*query.Query) ([][]core.Result, error)) {
	b.Helper()
	events := sharedBenchStream(8192)
	queries := sharedBenchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(events, queries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkMultiQuerySharedRuntime8 hosts the 8-query fleet on one
// shared runtime: one resolve pass, per-type dispatch, one watermark.
func BenchmarkMultiQuerySharedRuntime8(b *testing.B) {
	benchFleet(b, runShared)
}

// BenchmarkMultiQuerySeparateEngines8 runs the same fleet as 8
// independent engines over the same stream — the N-passes baseline.
func BenchmarkMultiQuerySeparateEngines8(b *testing.B) {
	benchFleet(b, runSeparate)
}
