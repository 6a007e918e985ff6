package cogra_test

// Differential test for the worker-mode Drain barrier: a session whose
// workers run on goroutines, with every subscription drained after
// every PushBatch, hands out in each drain exactly what the inline
// session's drain hands out at the same stream position, byte for
// byte — and so, over all drains and the final one after Close, the
// inline session's results. Each drain, inline or not, is ordered by
// window then group with one result per (window, group). A drain parks each hosting worker at the
// executor's watermark, so a worker whose partitions were quiet has
// closed the same windows as the inline session, and a (window, group)
// whose partition classes span workers is merged into one row in the
// drain that closes it, never split over two. The fleet spans all
// three granularities, one query whose groups span workers, and one
// late joiner that does not cover the frozen routing attributes, so it
// runs on the fallback worker. A second goroutine polls Stats
// throughout, as a metrics scraper would.
//
// Runs under -race in CI like the rest of the spine.

import (
	"math/rand"
	"sync"
	"testing"

	cogra "repro"
	"repro/internal/core"
	"repro/internal/fuzz/diff"
)

// drainFleet returns the resident queries of the drain differential:
// the session test queries plus a ward-grouped query partitioned by
// patient and ward, whose groups span the patient-routed workers.
func drainFleet() map[string]string {
	fleet := sessionTestQueries()
	fleet["ward-span"] = `
		RETURN COUNT(*), SUM(A.v)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] AND [ward] GROUP-BY ward
		WITHIN 64 SLIDE 32`
	return fleet
}

// drainLateJoiner partitions by ward alone: subscribed after routing
// froze on patient, it runs on the fallback worker.
const drainLateJoiner = `
	RETURN COUNT(*), MAX(M.rate)
	PATTERN M+
	SEMANTICS skip-till-any-match
	WHERE [ward] AND M.rate < NEXT(M).rate
	GROUP-BY ward
	WITHIN 64 SLIDE 64`

// drainEveryBatchRun feeds events in the given batch cuts, draining
// every subscription after every PushBatch, subscribes the late joiner
// before batch joinAt, and returns each subscription's drains in order
// (the last one after Close).
func drainEveryBatchRun(t *testing.T, opts []cogra.SessionOption, events []*cogra.Event, cuts []int, joinAt int) map[string][][]cogra.Result {
	t.Helper()
	sess := cogra.NewSession(opts...)
	subs := map[string]*cogra.Subscription{}
	for name, src := range drainFleet() {
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		subs[name] = sub
	}
	got := map[string][][]cogra.Result{}
	drainAll := func() {
		for name, sub := range subs {
			out := sub.Drain()
			if err := sub.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := 1; i < len(out); i++ {
				if core.CompareResults(out[i-1], out[i]) >= 0 {
					t.Fatalf("%s: a drain is out of window-then-group order or repeats a (window, group): %v then %v", name, out[i-1], out[i])
				}
			}
			got[name] = append(got[name], out)
		}
	}

	stop, polling := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			if _, err := sess.Stats(); err != nil {
				t.Error(err)
			}
			if first {
				close(polling)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	<-polling

	lo := 0
	for b, hi := range cuts {
		if b == joinAt {
			sub, err := sess.Subscribe(cogra.MustParse(drainLateJoiner))
			if err != nil {
				t.Fatal(err)
			}
			subs["late"] = sub
		}
		if err := sess.PushBatch(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		drainAll()
		lo = hi
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	drainAll()
	return got
}

// TestDrainEveryBatchDifferential: with 2 and 4 workers, each drain of
// every subscription after every PushBatch returns exactly what the
// inline session's drain returns at the same stream position.
func TestDrainEveryBatchDifferential(t *testing.T) {
	events := runShapedStream(4000)
	// Batches of 1–600 events: some stay below the router's 256-event
	// hand-over, some cross it more than once.
	rng := rand.New(rand.NewSource(17))
	var cuts []int
	for hi := 0; hi < len(events); {
		hi = min(hi+1+rng.Intn(600), len(events))
		cuts = append(cuts, hi)
	}
	joinAt := len(cuts) / 3
	want := drainEveryBatchRun(t, nil, events, cuts, joinAt)
	for name, drains := range want {
		nonEmpty := 0
		for _, d := range drains {
			if len(d) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Errorf("%s: results arrived in %d drains; the per-drain check is vacuous", name, nonEmpty)
		}
	}
	for _, workers := range []int{2, 4} {
		got := drainEveryBatchRun(t, []cogra.SessionOption{cogra.WithWorkers(workers)}, events, cuts, joinAt)
		for name, drains := range want {
			for i, w := range drains {
				if g := got[name][i]; !diff.Equal(g, w) {
					t.Errorf("%d workers, %s: drain %d of %d diverges from the inline drain\n%s", workers, name, i+1, len(drains), diff.Diff(g, w))
					break
				}
			}
		}
	}
}
