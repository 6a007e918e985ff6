package cogra_test

// Tests pinning the Session API: Stats and intern release, the typed
// lifecycle errors, Drain's hand-over and buffer recycling, result
// ownership and the rules for calls from inside sinks. Subscribe at k,
// unsubscribe at k and churn against solo runs are the solo oracle's,
// replayed over testdata/scenarios (TestScenarioCorpus).

import (
	"fmt"
	goruntime "runtime"
	"testing"

	cogra "repro"
	"repro/internal/agg"
	"repro/internal/fuzz/diff"
)

// sessionTestStream is the patient stream in its default tempo: dense
// equal-time runs and idle gaps spanning windows.
func sessionTestStream(n int) []*cogra.Event {
	return diff.PatientStream(diff.PatientShape{Seed: 17}, n)
}

// soloRun executes one query alone over a slice of the stream — the
// pre-stream-subscriber reference — and returns its results
// (diff.SoloRun with the error lifted to t.Fatal).
func soloRun(t *testing.T, src string, events []*cogra.Event) []cogra.Result {
	t.Helper()
	rs, err := diff.SoloRun(src, events)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func sessionModes() map[string][]cogra.SessionOption {
	return map[string][]cogra.SessionOption{
		"inline":   nil,
		"workers4": {cogra.WithWorkers(4)},
	}
}

// TestSessionStatsAndInternRelease: Session.Stats exposes the intern
// id-space and the engines' binding intern footprint, and
// unsubscribing the last query referencing a high-cardinality
// equivalence attribute releases that footprint — in both session
// modes; the inline mode also pins the in-thread executor's shape.
func TestSessionStatsAndInternRelease(t *testing.T) {
	hot := `
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WHERE [A.tag] AND [patient]
		GROUP-BY patient
		WITHIN 100000 SLIDE 100000`
	cold := `
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 100000 SLIDE 100000`
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			sess := cogra.NewSession(opts...)
			hotSub, err := sess.Subscribe(cogra.MustParse(hot))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Subscribe(cogra.MustParse(cold)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1024; i++ {
				ev := cogra.NewEvent("A", int64(i)).
					WithSym("patient", fmt.Sprintf("p%d", i%3)).
					WithSym("tag", fmt.Sprintf("tag-%d", i)) // high cardinality
				ev.ID = int64(i + 1)
				if err := sess.Push(ev); err != nil {
					t.Fatal(err)
				}
			}
			st, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Queries != 2 || st.Events != 1024 {
				t.Errorf("stats = %+v", st)
			}
			if st.InternedTypes == 0 || st.InternedAttrs == 0 {
				t.Errorf("intern id spaces empty: %+v", st)
			}
			if st.BindingInternBytes <= 0 {
				t.Fatalf("high-cardinality equivalence interned nothing: %+v", st)
			}
			if st.PeakBytes <= 0 {
				t.Errorf("peak bytes not tracked: %+v", st)
			}
			if mode == "inline" {
				// The in-thread shape: one worker, nothing routed — so
				// nothing skipped, even for events lacking every partition
				// attribute — and its accountant charges exactly what the
				// pre-executor inline session did on this stream (80810 is
				// that session's PeakBytes, measured at commit 75f9e97).
				for i := 0; i < 5; i++ {
					if err := sess.Push(cogra.NewEvent("A", int64(2000+i)).WithSym("tag", "x")); err != nil {
						t.Fatal(err)
					}
				}
				in, err := sess.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if in.Workers != 1 || in.ExecutorGroups != 0 || in.RoutingAttrs != nil || in.Skipped != 0 ||
					in.Events != 1029 || in.PeakBytes != 80810 {
					t.Errorf("in-thread stats = %+v; want 1 worker, 0 groups, nil routing attrs, 0 skipped of 1029 events, peak 80810", in)
				}
			}

			if res := hotSub.Unsubscribe(); len(res) == 0 || hotSub.Err() != nil {
				t.Fatalf("unsubscribe: results=%d err=%v", len(res), hotSub.Err())
			}
			st, err = sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.BindingInternBytes != 0 {
				t.Errorf("binding intern bytes after releasing the only slotted query = %d, want 0",
					st.BindingInternBytes)
			}
			if st.Queries != 1 {
				t.Errorf("queries = %d, want 1", st.Queries)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionLifecycleErrors pins the error surface: process/subscribe
// after close, double unsubscribe, unsubscribe after close.
func TestSessionLifecycleErrors(t *testing.T) {
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(cogra.NewEvent("A", 5)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(cogra.NewEvent("A", 1)); err == nil {
		t.Error("out-of-order event accepted")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err == nil {
		t.Error("double Close accepted")
	}
	if err := sess.Push(cogra.NewEvent("A", 9)); err == nil {
		t.Error("Process after Close accepted")
	}
	if _, err := sess.Subscribe(cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`)); err == nil {
		t.Error("Subscribe after Close accepted")
	}
	if res := sub.Drain(); len(res) != 1 {
		t.Errorf("results after close = %v", res)
	}
	if sub.Unsubscribe(); sub.Err() == nil {
		t.Error("Unsubscribe after Close recorded no error")
	}
}

// TestSessionDrainHandsOverWithoutCopying: with nothing pending, Drain
// returns the slice the executor handed over instead of copying it. A
// push that closes one window and the Drain that collects its result
// allocate twice: the result's rows and the buffer holding it (a copy
// in Drain made it three).
func TestSessionDrainHandsOverWithoutCopying(t *testing.T) {
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`))
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 50, 100
	events := make([]*cogra.Event, warm+runs+1)
	for i := range events {
		events[i] = cogra.NewEvent("A", int64(10*i))
		events[i].ID = int64(i + 1)
	}
	next := 0
	pushDrain := func() {
		if err := sess.Push(events[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if next > 1 && len(sub.Drain()) != 1 {
			t.Fatal("a push past a window boundary drained no result")
		}
	}
	for next < warm {
		pushDrain()
	}
	if got := testing.AllocsPerRun(runs-1, pushDrain); got != 2 {
		t.Errorf("push + Drain of one closed window: %v allocations, want 2", got)
	}
}

// TestWorkerDrainRecyclesResultBuffers: a Drain that merges two
// workers' results copies them into the merged slice and hands each
// worker its buffer back for the next windows. A warm 2-worker Drain of
// one closed window over eight groups therefore allocates the merged
// slice and the window's rows — a value slab and a group-tuple slab on
// each worker — and nothing else: five allocations. A fresh worker
// buffer per drain, or one that regrew, would add to them. The count
// is taken around Drain alone: the batch the push routes comes from a
// sync.Pool, which drops a share of what it is given under the race
// detector.
func TestWorkerDrainRecyclesResultBuffers(t *testing.T) {
	sess := cogra.NewSession(cogra.WithWorkers(2))
	defer sess.Close()
	sub, err := sess.Subscribe(cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`))
	if err != nil {
		t.Fatal(err)
	}
	const groups, warm, runs = 8, 20, 50
	var before, after goruntime.MemStats
	var mallocs uint64
	for w := 0; w <= warm+runs; w++ {
		batch := make([]*cogra.Event, groups)
		for g := range batch {
			batch[g] = cogra.NewEvent("A", int64(10*w+g)).WithSym("k", fmt.Sprint("k", g))
			batch[g].ID = int64(w*groups + g + 1)
		}
		if err := sess.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&before)
		got := sub.Drain()
		goruntime.ReadMemStats(&after)
		if w > 0 && len(got) != groups {
			t.Fatalf("a push past a window boundary drained %d results, want %d", len(got), groups)
		}
		if w > warm {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if got := mallocs / runs; got != 5 { // truncated, as testing.AllocsPerRun does
		t.Errorf("Drain merging two workers: %v allocations, want 5", got)
	}
}

// TestResultSpecIsACopy: a row's spec points at its plan's compiled
// copy of the RETURN clause, but Spec hands out a copy: writing to it
// reaches neither the plan's clause nor the rows delivered later, and
// writing the subscribed query's clause reaches no row.
func TestResultSpecIsACopy(t *testing.T) {
	sess := cogra.NewSession()
	defer sess.Close()
	q := cogra.MustParse(`RETURN COUNT(*), MAX(A.x) PATTERN A+ WITHIN 10 SLIDE 10`)
	sub, err := sess.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	push := func(at int64) []cogra.Result {
		if err := sess.Push(cogra.NewEvent("A", at).WithNum("x", float64(at))); err != nil {
			t.Fatal(err)
		}
		return sub.Drain()
	}
	push(1)
	first := push(11)
	if len(first) != 1 {
		t.Fatalf("first window: %d results, want 1", len(first))
	}
	spec := first[0].Values[1].Spec()
	spec.Func, spec.Attr = agg.Min, "y"
	later := push(21)
	if len(later) != 1 {
		t.Fatalf("second window: %d results, want 1", len(later))
	}
	want := "MAX(A.x)"
	if got := sub.Plan().Query.Returns[1].String(); got != want {
		t.Errorf("the plan's RETURN clause reads %s after a row's spec copy was written, want %s", got, want)
	}
	q.Returns[1].Func = agg.Min // the caller's query, after Subscribe
	last := push(31)
	if len(last) != 1 {
		t.Fatalf("third window: %d results, want 1", len(last))
	}
	for _, r := range []cogra.Result{first[0], later[0], last[0]} {
		if got := r.Values[1].Spec().String(); got != want {
			t.Errorf("%v: spec %s, want %s", r, got, want)
		}
	}
}

// TestSessionUnsubscribeFromCallbackIsRetriable: an Unsubscribe issued
// inside a sink is rejected (Push is mid-dispatch) but must leave the
// subscription active, so deferring it until Push returns — as the
// error advises — works and recovers the query's results.
func TestSessionUnsubscribeFromCallbackIsRetriable(t *testing.T) {
	sess := cogra.NewSession()
	var watched *cogra.Subscription
	fired := false
	watched, err := sess.Subscribe(
		cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`),
		cogra.WithSink(cogra.SinkFunc(func(cogra.Result) {
			fired = true
			watched.Unsubscribe() // mid-dispatch: must be rejected
		})))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(cogra.NewEvent("A", 1)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(cogra.NewEvent("A", 15)); err != nil { // closes [0,10)
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("callback never fired; test is vacuous")
	}
	if watched.Err() == nil {
		t.Error("mid-dispatch Unsubscribe recorded no error")
	}
	if !watched.Active() {
		t.Fatal("rejected Unsubscribe deactivated the subscription")
	}
	watched.Unsubscribe() // deferred retry, outside Process
	if watched.Active() {
		t.Error("deferred Unsubscribe did not detach the query")
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 0 {
		t.Errorf("queries after deferred unsubscribe = %d, want 0", st.Queries)
	}
}

// TestSessionPushFromSinkIsRejected: a Push issued inside a sink fails
// before it touches the session, so the outer Push's batch of one is
// not overwritten: every query sees exactly the pushed stream.
func TestSessionPushFromSinkIsRejected(t *testing.T) {
	const src = `RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`
	run := func(reenter bool) ([]cogra.Result, error) {
		sess := cogra.NewSession()
		var inner error
		if _, err := sess.Subscribe(cogra.MustParse(src), cogra.WithSink(cogra.SinkFunc(func(cogra.Result) {
			if reenter {
				inner = sess.Push(cogra.NewEvent("A", 100))
			}
		}))); err != nil {
			t.Fatal(err)
		}
		watched, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range []int64{1, 2, 15, 16, 31} {
			if err := sess.Push(cogra.NewEvent("A", tm)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		return watched.Drain(), inner
	}
	want, _ := run(false)
	got, inner := run(true)
	if inner == nil {
		t.Error("Push from inside a sink was accepted")
	}
	if len(want) == 0 {
		t.Fatal("no results; test is vacuous")
	}
	if !diff.Equal(got, want) {
		t.Errorf("a rejected inner Push changed what the fleet saw\n%s", diff.Diff(got, want))
	}
}
