package cogra_test

// Tests for sink panic containment: a panic inside a user-supplied
// Sink must fail that one subscription (Err wraps ErrSinkPanic) instead of crashing the goroutine that delivered the
// result — the stream and the rest of the fleet keep running. CI runs
// this under -race (parallel-mode drains deliver to sinks too).

import (
	"errors"
	"fmt"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

func TestSinkPanicFailsSubscriptionOnly(t *testing.T) {
	events := sessionTestStream(2000)
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			sess := cogra.NewSession(opts...)
			var delivered int
			panicky, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["type"]),
				cogra.WithSink(cogra.SinkFunc(func(cogra.Result) {
					delivered++
					panic("sink exploded")
				})))
			if err != nil {
				t.Fatal(err)
			}
			standing, err := sess.Subscribe(cogra.MustParse(diff.PatientQueries()["mixed"]))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.PushBatch(events); err != nil {
				t.Fatal(err)
			}
			// Parallel sessions deliver to sinks at gather points, not
			// inside Push; force one so the panic has fired in both modes.
			panicky.Drain()
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(panicky.Err(), cogra.ErrSinkPanic) {
				t.Fatalf("panicking sink: Err() = %v, want ErrSinkPanic", panicky.Err())
			}
			if delivered != 1 {
				t.Errorf("sink called %d times after panicking, want exactly 1", delivered)
			}
			got := standing.Drain()
			want := soloRun(t, diff.PatientQueries()["mixed"], events)
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("healthy subscription disturbed by a sibling's sink panic\ngot:  %v\nwant: %v", got, want)
			}
			if len(want) == 0 {
				t.Error("no results; test is vacuous")
			}
		})
	}
}
