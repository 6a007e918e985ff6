package cogra_test

// Tests for the batch-first, disorder-tolerant data plane (Session
// v2): Push/PushBatch ingest, WithSlack reordering with the late-event
// policies, pull-based Results iterators, typed sentinel errors and
// context cancellation.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	cogra "repro"
)

// TestSessionLatePolicies: beyond-slack events are dropped and counted
// under DropLate (the default) and fail Push with ErrLateEvent under
// RejectLate; in both cases the results equal a run without the
// straggler.
func TestSessionLatePolicies(t *testing.T) {
	src := `RETURN COUNT(*) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`
	mk := func() []*cogra.Event {
		var out []*cogra.Event
		for i, tm := range []int64{1, 2, 8, 9, 22, 23} {
			e := cogra.NewEvent("A", tm).WithSym("k", "g")
			e.ID = int64(i + 1)
			out = append(out, e)
		}
		return out
	}
	straggler := cogra.NewEvent("A", 2).WithSym("k", "g") // 20 units late at t=22

	want := soloRun(t, src, mk())

	t.Run("drop", func(t *testing.T) {
		sess := cogra.NewSession(cogra.WithSlack(3))
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		events := mk()
		if err := sess.PushBatch(events[:5]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Push(straggler.Clone()); err != nil {
			t.Fatalf("DropLate surfaced an error: %v", err)
		}
		if err := sess.Push(events[5]); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.LateDropped != 1 {
			t.Errorf("LateDropped = %d, want 1", st.LateDropped)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sub.Drain(); fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Errorf("dropped straggler changed results\ngot:  %v\nwant: %v", got, want)
		}
	})

	t.Run("reject", func(t *testing.T) {
		sess := cogra.NewSession(cogra.WithSlack(3), cogra.WithLatePolicy(cogra.RejectLate))
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		events := mk()
		if err := sess.PushBatch(events[:5]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Push(straggler.Clone()); !errors.Is(err, cogra.ErrLateEvent) {
			t.Fatalf("RejectLate error = %v, want ErrLateEvent", err)
		}
		// The session stays usable after the rejection.
		if err := sess.Push(events[5]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sub.Drain(); fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Errorf("rejected straggler changed results\ngot:  %v\nwant: %v", got, want)
		}
	})
}

// TestSessionTypedErrors: every lifecycle failure is matchable with
// errors.Is against the public sentinels, in both session modes.
func TestSessionTypedErrors(t *testing.T) {
	src := `RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			sess := cogra.NewSession(opts...)
			sub, err := sess.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Push(cogra.NewEvent("A", 5)); err != nil {
				t.Fatal(err)
			}
			sub.Unsubscribe()
			if sub.Err() != nil {
				t.Fatal(sub.Err())
			}
			sub.Unsubscribe()
			if !errors.Is(sub.Err(), cogra.ErrNotHosted) {
				t.Errorf("double Unsubscribe err = %v, want ErrNotHosted", sub.Err())
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); !errors.Is(err, cogra.ErrClosed) {
				t.Errorf("double Close err = %v, want ErrClosed", err)
			}
			if err := sess.Push(cogra.NewEvent("A", 9)); !errors.Is(err, cogra.ErrClosed) {
				t.Errorf("Push after Close err = %v, want ErrClosed", err)
			}
			if err := sess.PushBatch([]*cogra.Event{cogra.NewEvent("A", 9)}); !errors.Is(err, cogra.ErrClosed) {
				t.Errorf("PushBatch after Close err = %v, want ErrClosed", err)
			}
			if _, err := sess.Subscribe(cogra.MustParse(src)); !errors.Is(err, cogra.ErrClosed) {
				t.Errorf("Subscribe after Close err = %v, want ErrClosed", err)
			}
			sub.Unsubscribe()
			if !errors.Is(sub.Err(), cogra.ErrClosed) {
				t.Errorf("Unsubscribe after Close err = %v, want ErrClosed", sub.Err())
			}
		})
	}

	// An out-of-order Push fails SYNCHRONOUSLY with ErrLateEvent under
	// every executor shape (worker goroutines are asynchronous, so the
	// session checks ordering itself — one guard, one message), the bad
	// event is not ingested, and the session remains usable.
	for mode, opts := range map[string][]cogra.SessionOption{
		"inline":   nil,
		"workers1": {cogra.WithWorkers(1)},
		"workers4": {cogra.WithWorkers(4)},
	} {
		t.Run("late/"+mode, func(t *testing.T) {
			sess := cogra.NewSession(opts...)
			sub, err := sess.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Push(cogra.NewEvent("A", 5)); err != nil {
				t.Fatal(err)
			}
			err = sess.Push(cogra.NewEvent("A", 1))
			if !errors.Is(err, cogra.ErrLateEvent) {
				t.Fatalf("out-of-order Push err = %v, want ErrLateEvent", err)
			}
			if got, want := err.Error(), "cogra: out-of-order event at time 1 after 5: "+cogra.ErrLateEvent.Error(); got != want {
				t.Errorf("out-of-order Push message = %q, want %q", got, want)
			}
			err = sess.PushBatch([]*cogra.Event{cogra.NewEvent("A", 6), cogra.NewEvent("A", 2)})
			if !errors.Is(err, cogra.ErrLateEvent) {
				t.Fatalf("out-of-order PushBatch err = %v, want ErrLateEvent", err)
			}
			if got, want := err.Error(), "cogra: out-of-order event at time 2 after 6: "+cogra.ErrLateEvent.Error(); got != want {
				t.Errorf("out-of-order PushBatch message = %q, want %q", got, want)
			}
			if st, err := sess.Stats(); err != nil || st.Watermark != 6 || !st.WatermarkValid || st.Events != 2 {
				t.Errorf("after the rejections: stats = %+v, err = %v; want watermark 6 over 2 events", st, err)
			}
			if err := sess.Push(cogra.NewEvent("A", 15)); err != nil {
				t.Fatalf("session unusable after rejected event: %v", err)
			}
			if err := sess.Close(); err != nil {
				t.Fatalf("Close after rejected events: %v", err)
			}
			// Ingested: t=5, t=6 (batch prefix), t=15 — windows [0,10) and [10,20).
			if got := len(sub.Drain()); got != 2 {
				t.Errorf("results = %d windows, want 2", got)
			}
		})
	}
}

// TestSessionSlackStampsTieOrder: events without source-assigned IDs
// (the common case — NewEvent and CSV rows carry ID 0) keep their
// arrival order through the slack buffer even on equal time stamps,
// so a WithSlack session over an already-ordered stream is
// result-identical to a slack-less one. Regression test: unstamped
// heap ties pop in arbitrary order.
func TestSessionSlackStampsTieOrder(t *testing.T) {
	src := `
		RETURN COUNT(*)
		PATTERN M+
		SEMANTICS skip-till-any-match
		WHERE [k] AND M.rate < NEXT(M).rate
		GROUP-BY k
		WITHIN 16 SLIDE 16`
	mk := func() []*cogra.Event {
		rng := rand.New(rand.NewSource(5))
		var out []*cogra.Event
		for i := 0; i < 200; i++ {
			// Runs of 4 equal time stamps; rates vary within each run,
			// so the NEXT() adjacency is sensitive to tie order.
			out = append(out, cogra.NewEvent("M", int64(i/4)).
				WithSym("k", "g").
				WithNum("rate", float64(rng.Intn(40))))
		}
		return out
	}
	run := func(opts ...cogra.SessionOption) []cogra.Result {
		sess := cogra.NewSession(opts...)
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.PushBatch(mk()); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		return sub.Drain()
	}
	want := run()
	got := run(cogra.WithSlack(4))
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Errorf("slack buffer permuted ID-0 ties\ngot:  %v\nwant: %v", got, want)
	}
	if len(want) == 0 {
		t.Error("no results; test is vacuous")
	}
}

// TestSessionResultsPull: Results() is a single-use pull iterator —
// consumed results are gone, an early break keeps the rest buffered,
// and after Close the remaining windows surface.
func TestSessionResultsPull(t *testing.T) {
	src := `RETURN COUNT(*) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(cogra.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	// Three groups per window over four windows.
	for tm := int64(0); tm < 40; tm++ {
		for g := 0; g < 3; g++ {
			e := cogra.NewEvent("A", tm).WithSym("k", fmt.Sprintf("g%d", g))
			if err := sess.Push(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three windows have closed ([0,10), [10,20), [20,30)): 9 results.
	var first []cogra.Result
	for r := range sub.Results() {
		first = append(first, r)
		if len(first) == 4 {
			break // the rest must stay buffered
		}
	}
	if len(first) != 4 {
		t.Fatalf("pulled %d results, want 4", len(first))
	}
	var second []cogra.Result
	for r := range sub.Results() {
		second = append(second, r)
	}
	if len(first)+len(second) != 9 {
		t.Fatalf("pulled %d + %d results before Close, want 9", len(first), len(second))
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	var tail []cogra.Result
	for r := range sub.Results() {
		tail = append(tail, r)
	}
	if len(tail) != 3 { // the flushed [30,40) window
		t.Fatalf("pulled %d results after Close, want 3", len(tail))
	}
	if n := len(sub.Drain()); n != 0 {
		t.Errorf("%d results left after full pull", n)
	}

	// The combined pulls equal one undisturbed solo run.
	var events []*cogra.Event
	for tm := int64(0); tm < 40; tm++ {
		for g := 0; g < 3; g++ {
			events = append(events, cogra.NewEvent("A", tm).WithSym("k", fmt.Sprintf("g%d", g)))
		}
	}
	want := soloRun(t, src, events)
	got := append(append(first, second...), tail...)
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Errorf("pulled results diverge from solo run\ngot:  %v\nwant: %v", got, want)
	}
}

// TestSessionSinkStreams: WithSink streams results as they emit and
// leaves nothing for the pull surface.
func TestSessionSinkStreams(t *testing.T) {
	src := `RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`
	var sunk []cogra.Result
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(cogra.MustParse(src),
		cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) { sunk = append(sunk, r) })))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch([]*cogra.Event{
		cogra.NewEvent("A", 1), cogra.NewEvent("A", 2), cogra.NewEvent("A", 15),
	}); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 {
		t.Fatalf("sink saw %d results before Close, want 1", len(sunk))
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 2 {
		t.Fatalf("sink saw %d results, want 2", len(sunk))
	}
	for range sub.Results() {
		t.Fatal("Results yielded despite an installed sink")
	}
}

// TestSessionStrictRouting: once events have flowed in a parallel
// session, a StrictRouting subscription whose partition keys do not
// cover the routing attributes is rejected with ErrFrozenRouting;
// without the option it is hosted on the fallback worker, and inline
// sessions (no routing) accept it either way.
func TestSessionStrictRouting(t *testing.T) {
	patientQ := `RETURN COUNT(*) PATTERN A+ WHERE [patient] GROUP-BY patient WITHIN 10 SLIDE 10`
	wardQ := `RETURN COUNT(*) PATTERN A+ WHERE [ward] GROUP-BY ward WITHIN 10 SLIDE 10`
	ev := func(tm int64) *cogra.Event {
		return cogra.NewEvent("A", tm).WithSym("patient", "p0").WithSym("ward", "w0")
	}

	t.Run("parallel", func(t *testing.T) {
		sess := cogra.NewSession(cogra.WithWorkers(4))
		if _, err := sess.Subscribe(cogra.MustParse(patientQ)); err != nil {
			t.Fatal(err)
		}
		// Before any event the routing is fluid: strict subscribes are
		// fine (the routing recomputes over the new fleet).
		early, err := sess.Subscribe(cogra.MustParse(patientQ), cogra.StrictRouting())
		if err != nil {
			t.Fatalf("strict subscribe before first event: %v", err)
		}
		early.Unsubscribe()
		if err := early.Err(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Push(ev(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Subscribe(cogra.MustParse(wardQ), cogra.StrictRouting()); !errors.Is(err, cogra.ErrFrozenRouting) {
			t.Errorf("strict locality-breaking subscribe err = %v, want ErrFrozenRouting", err)
		}
		// Covering queries still subscribe strictly mid-stream.
		if _, err := sess.Subscribe(cogra.MustParse(patientQ), cogra.StrictRouting()); err != nil {
			t.Errorf("strict covering subscribe rejected: %v", err)
		}
		// Without StrictRouting the same query is hosted (fallback).
		if _, err := sess.Subscribe(cogra.MustParse(wardQ)); err != nil {
			t.Errorf("fallback subscribe rejected: %v", err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("inline", func(t *testing.T) {
		sess := cogra.NewSession()
		if _, err := sess.Subscribe(cogra.MustParse(patientQ)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Push(ev(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Subscribe(cogra.MustParse(wardQ), cogra.StrictRouting()); err != nil {
			t.Errorf("inline strict subscribe rejected: %v", err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPushBatchErrorCountsPrefix: a batch refused at its i-th event
// returns a *BatchError with Ingested i — the prefix the session holds —
// that still matches the sentinel, with and without a slack buffer.
func TestPushBatchErrorCountsPrefix(t *testing.T) {
	for name, opts := range map[string][]cogra.SessionOption{
		"ordered": nil,
		"slack":   {cogra.WithSlack(0), cogra.WithLatePolicy(cogra.RejectLate)},
	} {
		t.Run(name, func(t *testing.T) {
			sess := cogra.NewSession(opts...)
			defer sess.Close()
			batch := []*cogra.Event{cogra.NewEvent("A", 1), cogra.NewEvent("A", 2), cogra.NewEvent("A", 3),
				cogra.NewEvent("A", 0), cogra.NewEvent("A", 4)}
			err := sess.PushBatch(batch)
			var be *cogra.BatchError
			if !errors.As(err, &be) || be.Ingested != 3 || !errors.Is(err, cogra.ErrLateEvent) {
				t.Fatalf("PushBatch = %v (%#v), want a BatchError with Ingested 3 wrapping ErrLateEvent", err, be)
			}
		})
	}
}
