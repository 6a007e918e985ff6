package bench

// Subscribe/unsubscribe churn benchmark for the Session API: a
// long-lived stream whose query population changes while it runs —
// the serving workload of the paper's §8 deployment sketch and the
// Hamlet follow-up. Membership changes pay a one-time cost (compile,
// index rebuild, window flush); the steady-state per-event path must
// stay at shared-runtime speed. BenchmarkSessionSteady8 is the
// no-churn control on the same fleet and stream.

import (
	"testing"

	cogra "repro"
)

// churnPeriod is how many events flow between membership changes.
const churnPeriod = 1024

func benchSession(b *testing.B, churn bool) {
	b.Helper()
	events := sharedBenchStream(8192)
	queries := sharedBenchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := cogra.NewSession()
		subs := make([]*cogra.Subscription, len(queries))
		for qi, q := range queries {
			sub, err := sess.Subscribe(q)
			if err != nil {
				b.Fatal(err)
			}
			subs[qi] = sub
		}
		next := 0 // round-robin churn victim
		for j, e := range events {
			if err := sess.Push(e); err != nil {
				b.Fatal(err)
			}
			if churn && (j+1)%churnPeriod == 0 {
				// Detach the oldest query (flushing its windows) and
				// re-attach the same spec mid-stream.
				subs[next].Unsubscribe()
				if err := subs[next].Err(); err != nil {
					b.Fatal(err)
				}
				sub, err := sess.Subscribe(queries[next])
				if err != nil {
					b.Fatal(err)
				}
				subs[next] = sub
				next = (next + 1) % len(subs)
			}
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSessionSteady8 hosts the 8-query fleet on one Session with
// no membership changes: the control showing Session overhead over the
// bare shared runtime is nil.
func BenchmarkSessionSteady8(b *testing.B) {
	benchSession(b, false)
}

// BenchmarkSessionSteadyBatch8 is the same steady-state fleet fed
// through PushBatch in routing-sized chunks — the batch-first ingest
// path; it may only improve on the per-event number.
func BenchmarkSessionSteadyBatch8(b *testing.B) {
	events := sharedBenchStream(8192)
	queries := sharedBenchQueries()
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
		for j := 0; j < len(events); j += batch {
			end := j + batch
			if end > len(events) {
				end = len(events)
			}
			if err := sess.PushBatch(events[j:end]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSessionChurn8 performs a subscribe+unsubscribe pair every
// 1024 events while the stream runs: 8 membership changes per pass,
// each paying compile + index rebuild + window flush.
func BenchmarkSessionChurn8(b *testing.B) {
	benchSession(b, true)
}
