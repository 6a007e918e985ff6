package cogra_test

// Runnable godoc examples for the batch-first ingest and the pull/push
// egress surface of Session. `go test` executes these against their
// Output blocks, so the documented surface cannot drift.

import (
	"bytes"
	"errors"
	"fmt"

	cogra "repro"
)

// Example_quickstart is the running example of the paper (Figure 2):
// the pattern (SEQ(A+, B))+ over the stream a1 b2 a3 a4 c5 b6 a7 b8
// under all three event matching semantics. COGRA counts 43 trends
// under skip-till-any-match, 8 under skip-till-next-match and 2 under
// contiguous — without constructing a single trend. One Session hosts
// all three queries, the stream is pushed once, and each
// subscription's results are pulled after Close.
func Example_quickstart() {
	stream := []*cogra.Event{
		cogra.NewEvent("A", 1),
		cogra.NewEvent("B", 2),
		cogra.NewEvent("A", 3),
		cogra.NewEvent("A", 4),
		cogra.NewEvent("C", 5), // irrelevant: skipped by ANY/NEXT, resets CONT
		cogra.NewEvent("B", 6),
		cogra.NewEvent("A", 7),
		cogra.NewEvent("B", 8),
	}
	semantics := []string{"skip-till-any-match", "skip-till-next-match", "contiguous"}
	sess := cogra.NewSession()
	subs := make([]*cogra.Subscription, len(semantics))
	for i, sem := range semantics {
		q, err := cogra.Parse(fmt.Sprintf(`
			RETURN COUNT(*)
			PATTERN (SEQ(A+, B))+
			SEMANTICS %s
			WITHIN 100 SLIDE 100`, sem))
		if err != nil {
			fmt.Println(err)
			return
		}
		if subs[i], err = sess.Subscribe(q); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := sess.PushBatch(stream); err != nil {
		fmt.Println(err)
		return
	}
	if err := sess.Close(); err != nil {
		fmt.Println(err)
		return
	}
	for i, sub := range subs {
		for r := range sub.Results() {
			fmt.Printf("%-22s granularity=%-8s %s\n", semantics[i], sub.Plan().Granularity, r)
		}
	}
	// Output:
	// skip-till-any-match    granularity=type     window [0,100): COUNT(*)=43
	// skip-till-next-match   granularity=pattern  window [0,100): COUNT(*)=8
	// contiguous             granularity=pattern  window [0,100): COUNT(*)=2
}

// ExampleSession_Push feeds an in-order stream one event at a time and
// pulls the results after Close.
func ExampleSession_Push() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WITHIN 100 SLIDE 100`)
	sess := cogra.NewSession()
	sub, _ := sess.Subscribe(q)
	for _, e := range []*cogra.Event{
		cogra.NewEvent("A", 1), cogra.NewEvent("B", 2),
		cogra.NewEvent("A", 3), cogra.NewEvent("A", 4),
		cogra.NewEvent("B", 6), cogra.NewEvent("A", 7),
		cogra.NewEvent("B", 8),
	} {
		if err := sess.Push(e); err != nil {
			fmt.Println(err)
			return
		}
	}
	sess.Close()
	for r := range sub.Results() {
		fmt.Println(r)
	}
	// Output:
	// window [0,100): COUNT(*)=43
}

// ExampleSession_PushBatch ingests a disordered batch: WithSlack
// re-sorts events within the bound, so the results equal the sorted
// stream's.
func ExampleSession_PushBatch() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 10 SLIDE 10`)
	sess := cogra.NewSession(cogra.WithSlack(3))
	sub, _ := sess.Subscribe(q)
	// Events jittered within 3 ticks of in-order arrival.
	batch := []*cogra.Event{
		cogra.NewEvent("A", 2), cogra.NewEvent("A", 1),
		cogra.NewEvent("A", 4), cogra.NewEvent("A", 3),
		cogra.NewEvent("A", 12),
	}
	if err := sess.PushBatch(batch); err != nil {
		fmt.Println(err)
		return
	}
	sess.Close()
	for r := range sub.Results() {
		fmt.Println(r)
	}
	// Output:
	// window [0,10): COUNT(*)=15
	// window [10,20): COUNT(*)=1
}

// ExampleSubscription_Results pulls incrementally while the stream
// runs: each Results call yields what the watermark has closed since
// the last pull.
func ExampleSubscription_Results() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 10 SLIDE 10`)
	sess := cogra.NewSession()
	sub, _ := sess.Subscribe(q)

	sess.PushBatch([]*cogra.Event{cogra.NewEvent("A", 1), cogra.NewEvent("A", 2)})
	sess.Push(cogra.NewEvent("A", 11)) // closes window [0,10)
	for r := range sub.Results() {
		fmt.Println("mid-stream:", r)
	}
	sess.Close() // flushes window [10,20)
	for r := range sub.Results() {
		fmt.Println("after close:", r)
	}
	// Output:
	// mid-stream: window [0,10): COUNT(*)=3
	// after close: window [10,20): COUNT(*)=1
}

// ExampleWithSink streams results as windows close instead of
// buffering them — the push half of the egress surface.
func ExampleWithSink() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 10 SLIDE 10`)
	sess := cogra.NewSession()
	sess.Subscribe(q, cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) {
		fmt.Println("sink:", r)
	})))
	sess.PushBatch([]*cogra.Event{
		cogra.NewEvent("A", 1), cogra.NewEvent("A", 2), cogra.NewEvent("A", 15),
	})
	sess.Close()
	// Output:
	// sink: window [0,10): COUNT(*)=3
	// sink: window [10,20): COUNT(*)=1
}

// ExampleWithMaxReorderDepth caps the slack buffer so a source with a
// stalled watermark cannot balloon it: under the Reject policy a full
// buffer refuses further events with ErrBackpressure until the stream
// advances (the default ShedOldest policy would force-drain the oldest
// buffered events instead, counted in Stats().ReorderShed).
func ExampleWithMaxReorderDepth() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 100 SLIDE 100`)
	sess := cogra.NewSession(
		cogra.WithSlack(1000), // generous slack: only the cap bounds the buffer
		cogra.WithMaxReorderDepth(3),
		cogra.WithDepthPolicy(cogra.Reject))
	sess.Subscribe(q)
	for t := int64(1); t <= 3; t++ {
		sess.Push(cogra.NewEvent("A", t)) // buffered: all within slack
	}
	err := sess.Push(cogra.NewEvent("A", 4)) // buffer full, nothing drains
	fmt.Println("backpressure:", errors.Is(err, cogra.ErrBackpressure))
	if err := sess.Push(cogra.NewEvent("A", 2000)); err != nil {
		// A watermark-advancing event drains the buffer and is admitted.
		fmt.Println(err)
	}
	st, _ := sess.Stats()
	fmt.Println("buffered after drain:", st.ReorderDepth)
	// Output:
	// backpressure: true
	// buffered after drain: 1
}

// ExampleSession_Snapshot checkpoints a live session mid-stream,
// "crashes" it, restores, and feeds the rest of the stream: the
// results are those of a run that never stopped. Restored
// subscriptions have no sinks (code does not survive serialization) —
// re-acquire them with Subscriptions and pull.
func ExampleSession_Snapshot() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 10 SLIDE 10`)
	sess := cogra.NewSession()
	sub, _ := sess.Subscribe(q)
	sess.Push(cogra.NewEvent("A", 1))
	sess.Push(cogra.NewEvent("A", 3)) // two open partial trends in [0,10)

	var checkpoint bytes.Buffer
	if err := sess.Snapshot(&checkpoint); err != nil {
		fmt.Println(err)
		return
	}
	sess.Close() // the "crash": in-flight state beyond the checkpoint is lost

	restored, err := cogra.Restore(bytes.NewReader(checkpoint.Bytes()))
	if err != nil {
		fmt.Println(err)
		return
	}
	restored.Push(cogra.NewEvent("A", 5)) // the suffix, from the cut onward
	restored.Push(cogra.NewEvent("A", 12))
	restored.Close()
	sub = restored.Subscriptions()[sub.ID()]
	for r := range sub.Results() {
		fmt.Println(r)
	}
	// Output:
	// window [0,10): COUNT(*)=7
	// window [10,20): COUNT(*)=1
}

// ExampleWithLatePolicy shows the typed late-event error: beyond-slack
// events fail Push under RejectLate and are matchable with errors.Is.
func ExampleWithLatePolicy() {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WITHIN 100 SLIDE 100`)
	sess := cogra.NewSession(cogra.WithSlack(2), cogra.WithLatePolicy(cogra.RejectLate))
	sess.Subscribe(q)
	sess.Push(cogra.NewEvent("A", 50))
	err := sess.Push(cogra.NewEvent("A", 10)) // 40 ticks late, slack is 2
	fmt.Println("late event rejected:", errors.Is(err, cogra.ErrLateEvent))
	// Output:
	// late event rejected: true
}
