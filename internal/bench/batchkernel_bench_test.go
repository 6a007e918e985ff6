package bench

// Batch-kernel benchmarks: the same 8-query fleet as the steady-state
// benches, over a stream shaped the way high-rate sources actually
// emit — bursts of same-type readings sharing one timestamp (a sensor
// array sampled on a tick, a market feed's per-symbol burst). On such
// streams the run-building batch path pays dispatch, the subscription
// index, the watermark and the engine prologue once per run instead of
// once per event; the per-event control on the identical workload is
// the denominator of the speedup (and the byte-identity differential
// lives in the root package's batch tests).

import (
	"fmt"
	"testing"

	cogra "repro"
	"repro/internal/event"
	"repro/internal/query"
)

// batchKernelStream emits runs of runLen same-type events per
// timestamp, rotating through the 8 stream types; every event carries
// the fleet's partition key and aggregation operand.
func batchKernelStream(n, runLen int) []*event.Event {
	r := uint64(1)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	out := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		run := i / runLen
		ev := event.New(fmt.Sprintf("S%d", run%8), int64(run)).
			WithNum("v", float64(next()%1000)).
			WithSym("key", fmt.Sprintf("k%d", next()%64))
		ev.ID = int64(i + 1)
		out = append(out, ev)
	}
	return out
}

// batchKernelQueries builds the fleet: like sharedBenchQueries, query
// i aggregates the SEQ(S_i+, S_{i+1}) transition, but as a global
// per-window aggregate (no equivalence or grouping) — the type-grained
// fast path, where one run's predecessor contribution is computed once
// and reused by every event of the run.
func batchKernelQueries() []*query.Query {
	out := make([]*query.Query, sharedBenchQueryCount)
	for i := range out {
		out[i] = query.MustParse(fmt.Sprintf("RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S%d A+, S%d B) WITHIN 256 SLIDE 256", i, (i+1)%8))
	}
	return out
}

func benchBatchKernel(b *testing.B, perEvent bool) {
	b.Helper()
	events := batchKernelStream(8192, 32)
	queries := batchKernelQueries()
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := cogra.NewSession()
		for _, q := range queries {
			if _, err := sess.Subscribe(q); err != nil {
				b.Fatal(err)
			}
		}
		if perEvent {
			for _, e := range events {
				if err := sess.Push(e); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for j := 0; j < len(events); j += batch {
				end := j + batch
				if end > len(events) {
					end = len(events)
				}
				if err := sess.PushBatch(events[j:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSessionBatchKernel8 drives the type-run stream through
// PushBatch: runs execute through the columnar batch kernels.
func BenchmarkSessionBatchKernel8(b *testing.B) {
	benchBatchKernel(b, false)
}

// BenchmarkSessionBatchKernelPerEvent8 is the event-at-a-time control
// on the identical stream and fleet — the denominator of the batch
// kernels' speedup.
func BenchmarkSessionBatchKernelPerEvent8(b *testing.B) {
	benchBatchKernel(b, true)
}
