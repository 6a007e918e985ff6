package bench

// Shared trend aggregation benchmark: the workload motivating the
// compile-time fingerprint registry (internal/core) and the sharing
// groups of internal/runtime. Eight standing queries run the SAME
// Kleene trend body — only their RETURN clauses differ — so one session
// folds them into one sharing group whose host engine computes the
// sub-trend sums once and projects each query's aggregates out of the
// union; eight sessions of one query each pay the full trend
// computation eight times per event.

import (
	"fmt"
	"testing"

	cogra "repro"
)

// sharedFleetReturns are the eight RETURN clauses of the fleet: all
// distinct (every query keeps its own answer shape), all projections
// of one union of aggregation specs.
var sharedFleetReturns = [8]string{
	"COUNT(*)",
	"COUNT(M)",
	"SUM(M.v)",
	"AVG(M.v)",
	"MAX(M.v)",
	"MIN(M.v)",
	"COUNT(*), SUM(M.v)",
	"COUNT(*), AVG(M.v)",
}

// sharedFleetQueries builds the fingerprint-equal fleet: one Kleene
// trend body (ascending M runs per key) under eight RETURN variants.
func sharedFleetQueries() []*cogra.Query {
	const body = `
		PATTERN M+
		SEMANTICS skip-till-next-match
		WHERE [key] AND M.v <= NEXT(M).v
		GROUP-BY key
		WITHIN 64 SLIDE 64`
	out := make([]*cogra.Query, len(sharedFleetReturns))
	for i, ret := range sharedFleetReturns {
		out[i] = cogra.MustParse("RETURN " + ret + "\n" + body)
	}
	return out
}

// sharedFleetStream emits a dense measurement stream: M random walks
// over 16 keys with X noise interleaved, time advancing every fourth
// event, so every window of every key carries long trends.
func sharedFleetStream(n int) []*cogra.Event {
	r := uint64(9)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	vals := [16]float64{}
	for i := range vals {
		vals[i] = 100 + float64(i)
	}
	out := make([]*cogra.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev *cogra.Event
		if next()%8 == 0 {
			ev = cogra.NewEvent("X", int64(i/4)).WithNum("noise", 1)
		} else {
			k := next() % 16
			vals[k] += float64(next()%9) - 4
			ev = cogra.NewEvent("M", int64(i/4)).
				WithSym("key", fmt.Sprintf("k%02d", k)).
				WithNum("v", vals[k])
		}
		ev.ID = int64(i + 1)
		out = append(out, ev)
	}
	return out
}

// benchSharedFleet runs the fleet in one session, or in one session per
// query when perQuery is set.
func benchSharedFleet(b *testing.B, perQuery bool) {
	b.Helper()
	events := sharedFleetStream(8192)
	fleets := [][]*cogra.Query{sharedFleetQueries()}
	if perQuery {
		fleets = nil
		for _, q := range sharedFleetQueries() {
			fleets = append(fleets, []*cogra.Query{q})
		}
	}
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fleet := range fleets {
			sess := cogra.NewSession()
			for _, q := range fleet {
				if _, err := sess.Subscribe(q); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < len(events); j += batch {
				if err := sess.PushBatch(events[j:min(j+batch, len(events))]); err != nil {
					b.Fatal(err)
				}
			}
			if err := sess.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSessionShared8 runs the fingerprint-equal fleet in one
// session (shared) and in one session per query (unshared). The gap IS
// the eight-fold trend computation collapsing into one host pass plus
// eight cheap per-result projections.
func BenchmarkSessionShared8(b *testing.B) {
	b.Run("shared", func(b *testing.B) { benchSharedFleet(b, false) })
	b.Run("unshared", func(b *testing.B) { benchSharedFleet(b, true) })
}
