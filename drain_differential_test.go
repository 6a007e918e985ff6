package cogra_test

// Differential test for the worker-mode Drain barrier: a session whose
// workers run on goroutines, with every subscription drained after
// every PushBatch, hands out — per subscription, over all its drains
// and the final one after Close — exactly the results of an inline
// session fed the same batches. Each drain is ordered by window then
// group with one result per (window, group). Across drains, workers
// close windows as their own events advance them, so a lagging
// worker's windows, and its partials of a (window, group) another
// worker already reported, surface in a later drain: the concatenation
// is compared after settling it into window-then-group order with
// split partials merged (agg.MergeValues). The fleet spans all three
// granularities, one query whose groups span workers (each worker
// reports a partial per (window, group), merged at the drain), and one
// late joiner that does not cover the frozen routing attributes, so it
// runs on the fallback worker. A second goroutine polls Stats
// throughout, as a metrics scraper would.
//
// Runs under -race in CI like the rest of the spine.

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"

	cogra "repro"
	"repro/internal/agg"
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
// before batch joinAt, and returns each subscription's concatenated
// drains (the last one after Close) with the number of non-empty
// drains it saw.
func drainEveryBatchRun(t *testing.T, opts []cogra.SessionOption, events []*cogra.Event, cuts []int, joinAt int) (map[string][]cogra.Result, map[string]int) {
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
	got, drains := map[string][]cogra.Result{}, map[string]int{}
	drainAll := func() {
		for name, sub := range subs {
			out := sub.Drain()
			if err := sub.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out) > 0 {
				drains[name]++
			}
			for i := 1; i < len(out); i++ {
				if cmpResult(out[i-1], out[i]) >= 0 {
					t.Fatalf("%s: a drain is out of window-then-group order or repeats a (window, group): %v then %v", name, out[i-1], out[i])
				}
			}
			got[name] = append(got[name], out...)
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
	return got, drains
}

// cmpResult orders results by window, then by group values.
func cmpResult(a, b cogra.Result) int {
	if c := cmp.Compare(a.Wid, b.Wid); c != 0 {
		return c
	}
	return slices.Compare(a.Group, b.Group)
}

// settle puts results gathered over several drains into window-then-
// group order, merging the partials of one (window, group) that
// different workers reported in different drains.
func settle(rs []cogra.Result) []cogra.Result {
	out := slices.Clone(rs)
	slices.SortStableFunc(out, cmpResult)
	w := 0
	for i := range out {
		if w > 0 && cmpResult(out[w-1], out[i]) == 0 {
			merged := slices.Clone(out[w-1].Values)
			agg.MergeValues(merged, out[i].Values)
			out[w-1].Values = merged
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// TestDrainEveryBatchDifferential: with 2 and 4 workers, draining every
// subscription after every PushBatch returns, per subscription, exactly
// the inline session's results.
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
	want, _ := drainEveryBatchRun(t, nil, events, cuts, joinAt)
	for _, workers := range []int{2, 4} {
		opts := []cogra.SessionOption{cogra.WithWorkers(workers)}
		got, drains := drainEveryBatchRun(t, opts, events, cuts, joinAt)
		for name := range want {
			if len(want[name]) == 0 {
				t.Errorf("%s: no results; the differential is vacuous", name)
			}
			if drains[name] < 2 {
				t.Errorf("%d workers, %s: results arrived in %d drains; the per-drain check is vacuous", workers, name, drains[name])
			}
			if g, w := settle(got[name]), settle(want[name]); !diff.Equal(g, w) {
				t.Errorf("%d workers, %s: the drains diverge from the inline session\n%s", workers, name, diff.Diff(g, w))
			}
		}
	}
}
