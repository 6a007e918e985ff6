package bench

// Snapshot and restore latency on a warm fleet: the 8-query
// shared-runtime workload is fed its full stream, then Snapshot is
// taken repeatedly — the serialization cost of live window tables,
// sub-aggregator state and intern tables, which is also the stall a
// live stream observes while a checkpoint's consistent cut is held.
// Snapshot does not mutate the session, so every iteration serializes
// the same state; Restore rebuilds a fresh session from that one frame
// each iteration — the downtime a crashed process pays before it can
// accept the stream's suffix.

import (
	"bytes"
	"io"
	"testing"

	cogra "repro"
)

// warmSnapshotSession returns the fleet standing at the end of its
// stream.
func warmSnapshotSession(b *testing.B) *cogra.Session {
	events := sharedBenchStream(8192)
	sess := cogra.NewSession()
	for _, q := range sharedBenchQueries() {
		if _, err := sess.Subscribe(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := sess.PushBatch(events); err != nil {
		b.Fatal(err)
	}
	return sess
}

func BenchmarkSessionSnapshot8(b *testing.B) {
	sess := warmSnapshotSession(b)
	defer sess.Close()
	var count countWriter
	if err := sess.Snapshot(&count); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(count), "snapshot-bytes")
}

func BenchmarkSessionRestore8(b *testing.B) {
	sess := warmSnapshotSession(b)
	var frame bytes.Buffer
	if err := sess.Snapshot(&frame); err != nil {
		b.Fatal(err)
	}
	sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := cogra.Restore(bytes.NewReader(frame.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		restored.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(frame.Len()), "snapshot-bytes")
}

// countWriter counts bytes written; the benchmark reports the snapshot
// size alongside its latency.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
