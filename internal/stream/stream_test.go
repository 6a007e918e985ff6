package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/snap"
)

// parallelQuery is a partitioned q1-style query.
func parallelQuery() *query.Query {
	return query.MustParse(`RETURN COUNT(*), MAX(M.rate) PATTERN M+ SEMANTICS contiguous
		WHERE [patient] GROUP-BY patient WITHIN 50 SLIDE 25`)
}

func parallelStream(n, groups int) []*event.Event {
	rng := rand.New(rand.NewSource(42))
	var out []*event.Event
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(2))
		out = append(out, event.New("M", tm).
			WithSym("patient", fmt.Sprintf("p%d", rng.Intn(groups))).
			WithNum("rate", float64(50+rng.Intn(50))))
	}
	return out
}

// startExecutor starts an n-worker executor (1: the in-thread worker)
// hosting the plans, which must share one catalog.
func startExecutor(t *testing.T, n int, plans ...*core.Plan) (*MultiExecutor, []*Sub) {
	t.Helper()
	m := NewMultiExecutorOn(plans[0].Catalog(), n)
	var subs []*Sub
	for _, plan := range plans {
		sub, err := m.SubscribePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	return m, subs
}

func cloneEvents(events []*event.Event) []*event.Event {
	cloned := make([]*event.Event, len(events))
	for i, e := range events {
		cloned[i] = e.Clone()
	}
	return cloned
}

// TestParallelMatchesSequential is the §8 correctness claim: stream
// partitioning preserves results exactly — for the in-thread worker
// and for any number of worker goroutines.
func TestParallelMatchesSequential(t *testing.T) {
	plan := core.MustPlan(parallelQuery())
	events := parallelStream(500, 7)

	seqEng := core.NewEngine(plan)
	for _, e := range events {
		if err := seqEng.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	want := seqEng.Close()

	for _, workers := range []int{1, 2, 4, 8} {
		p, _ := startExecutor(t, workers, plan)
		if err := p.ProcessBatch(cloneEvents(events)); err != nil {
			t.Fatal(err)
		}
		all, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := all[0]
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Wid != want[i].Wid ||
				fmt.Sprint(got[i].Group) != fmt.Sprint(want[i].Group) ||
				!agg.ApproxEqual(got[i].Values, want[i].Values, 0) {
				t.Fatalf("workers=%d: result %d differs:\n%v\n%v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelSkipsKeylessEvents: a router skips (and counts) an event
// lacking the routing attribute; the in-thread worker routes nothing,
// so it skips nothing.
func TestParallelSkipsKeylessEvents(t *testing.T) {
	plan := core.MustPlan(parallelQuery())
	for workers, want := range map[int]int64{1: 0, 2: 1} {
		p, _ := startExecutor(t, workers, plan)
		keyless := event.New("M", 1).WithNum("rate", 60) // no patient attr
		if err := p.ProcessBatch([]*event.Event{keyless}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != want || st.Events != 1 {
			t.Errorf("workers=%d: skipped = %d of %d events, want %d of 1", workers, st.Skipped, st.Events, want)
		}
	}
}

func TestParallelLifecycleErrors(t *testing.T) {
	plan := core.MustPlan(parallelQuery())
	for _, workers := range []int{1, 2} {
		p, _ := startExecutor(t, workers, plan)
		if _, err := p.Close(); err != nil {
			t.Fatal(err)
		}
		ev := event.New("M", 1).WithSym("patient", "p").WithNum("rate", 1)
		if err := p.ProcessBatch([]*event.Event{ev}); !errors.Is(err, core.ErrClosed) {
			t.Errorf("workers=%d: ProcessBatch after Close = %v, want ErrClosed", workers, err)
		}
		if _, err := p.SubscribePlan(plan); !errors.Is(err, core.ErrClosed) {
			t.Errorf("workers=%d: SubscribePlan after Close = %v, want ErrClosed", workers, err)
		}
		if _, err := p.Close(); !errors.Is(err, core.ErrClosed) {
			t.Errorf("workers=%d: double Close = %v, want ErrClosed", workers, err)
		}
	}
}

// TestParallelPropagatesEngineErrors: an out-of-order event fails the
// in-thread worker's ProcessBatch at once; a worker goroutine reports
// it at Close.
func TestParallelPropagatesEngineErrors(t *testing.T) {
	plan := core.MustPlan(parallelQuery())
	mk := func(tm int64) *event.Event {
		return event.New("M", tm).WithSym("patient", "p").WithNum("rate", 60)
	}
	p, _ := startExecutor(t, 1, plan)
	if err := p.ProcessBatch([]*event.Event{mk(10), mk(5)}); !errors.Is(err, core.ErrLateEvent) {
		t.Errorf("in-thread: out-of-order ProcessBatch = %v, want ErrLateEvent", err)
	}
	p, _ = startExecutor(t, 2, plan)
	if err := p.ProcessBatch([]*event.Event{mk(10), mk(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); !errors.Is(err, core.ErrLateEvent) {
		t.Errorf("worker goroutine: Close = %v, want the worker's ErrLateEvent", err)
	}
}

func TestParallelPeakBytes(t *testing.T) {
	plan := core.MustPlan(parallelQuery())
	for _, workers := range []int{1, 4} {
		p, _ := startExecutor(t, workers, plan)
		if err := p.ProcessBatch(parallelStream(200, 5)); err != nil {
			t.Fatal(err)
		}
		live, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Close(); err != nil {
			t.Fatal(err)
		}
		closed, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if live.PeakBytes <= 0 || closed.PeakBytes < live.PeakBytes {
			t.Errorf("workers=%d: peak bytes not tracked: %d live, %d after Close", workers, live.PeakBytes, closed.PeakBytes)
		}
	}
}

// multiQueries returns a heterogeneous query set for the multi-query
// executor: all partition by patient (the shared routing attribute),
// one adds a second partition attribute, and semantics span all three
// granularities.
func multiQueries() []*query.Query {
	return []*query.Query{
		parallelQuery(), // contiguous, pattern-grained
		query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [patient] GROUP-BY patient WITHIN 40 SLIDE 40"),
		query.MustParse(`RETURN COUNT(*), MIN(M.rate) PATTERN M+
			WHERE [patient] AND [ward] AND M.rate < NEXT(M).rate GROUP-BY patient WITHIN 60 SLIDE 30`),
	}
}

func multiStream(n, groups int) []*event.Event {
	rng := rand.New(rand.NewSource(7))
	var out []*event.Event
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(2))
		out = append(out, event.New("M", tm).
			WithSym("patient", fmt.Sprintf("p%d", rng.Intn(groups))).
			WithSym("ward", fmt.Sprintf("w%d", rng.Intn(3))).
			WithNum("rate", float64(50+rng.Intn(50))))
	}
	return out
}

// TestMultiExecutorMatchesSoloEngines: the multi-query executor routes
// by the shared partition attributes and produces, per query, exactly
// the results of a solo engine run — for any worker count.
func TestMultiExecutorMatchesSoloEngines(t *testing.T) {
	queries := multiQueries()
	events := multiStream(600, 7)

	var want [][]core.Result
	for _, q := range queries {
		eng := core.NewEngine(core.MustPlan(q))
		for _, e := range events {
			if err := eng.Process(e.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, eng.Close())
	}

	for _, workers := range []int{1, 2, 4} {
		cat := core.NewCatalog()
		plans := make([]*core.Plan, len(queries))
		for i, q := range queries {
			var err error
			if plans[i], err = core.NewPlanIn(cat, q); err != nil {
				t.Fatal(err)
			}
		}
		m := NewMultiExecutorOn(cat, workers)
		var viaCallback []core.Result
		for i, plan := range plans {
			var opts []SubscribeOpt
			if i == 1 {
				opts = append(opts, WithCallback(func(r core.Result) { viaCallback = append(viaCallback, r) }))
			}
			if _, err := m.SubscribePlan(plan, opts...); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.ProcessBatch(cloneEvents(events)); err != nil {
			t.Fatal(err)
		}
		got, err := m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != nil {
			t.Errorf("workers=%d: callback query also returned %d results", workers, len(got[1]))
		}
		got[1] = viaCallback // callback query returns through WithCallback
		for qi := range queries {
			if fmt.Sprintf("%v", got[qi]) != fmt.Sprintf("%v", want[qi]) {
				t.Errorf("workers=%d query=%d: multi-executor diverges\ngot:  %v\nwant: %v",
					workers, qi, got[qi], want[qi])
			}
			if len(want[qi]) == 0 {
				t.Errorf("query %d produced no results; test is vacuous", qi)
			}
		}
	}
}

// TestMultiExecutorRejectsMixedCatalogs: plans must share the
// executor's catalog.
func TestMultiExecutorRejectsMixedCatalogs(t *testing.T) {
	q := parallelQuery()
	m, _ := startExecutor(t, 2, core.MustPlan(q))
	if _, err := m.SubscribePlan(core.MustPlan(q)); !errors.Is(err, core.ErrNotHosted) {
		t.Errorf("plan from a different catalog: %v, want ErrNotHosted", err)
	}
	if _, err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedRouteAttrs pins the routing-attribute intersection rule.
func TestSharedRouteAttrs(t *testing.T) {
	cat := core.NewCatalog()
	mk := func(attrs ...string) *core.Plan {
		where := ""
		if len(attrs) > 0 {
			where = "WHERE [" + strings.Join(attrs, "] AND [") + "]"
		}
		p, err := core.NewPlanIn(cat, query.MustParse("RETURN COUNT(*) PATTERN M+ "+where+" WITHIN 10 SLIDE 10"))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	got := sharedRouteAttrs([]*core.Plan{mk("patient", "ward"), mk("ward", "room")})
	if fmt.Sprint(got) != "[ward]" {
		t.Errorf("sharedRouteAttrs = %v, want [ward]", got)
	}
	if got := sharedRouteAttrs([]*core.Plan{mk("patient"), mk()}); len(got) != 0 {
		t.Errorf("unpartitioned plan should clear the routing set, got %v", got)
	}
}

// TestMultiExecutorDynamicMembership: a query subscribed mid-stream on
// the executor joins every partition worker at one consistent stream
// position and, from its first fully covered window on, matches a solo
// engine fed the same suffix; unsubscribing flushes and returns the
// query's windows without disturbing the rest of the fleet.
func TestMultiExecutorDynamicMembership(t *testing.T) {
	queries := multiQueries()
	events := multiStream(600, 7)
	for i := range events {
		events[i].ID = int64(i + 1) // pre-assign: events fan out to workers
	}
	k := len(events) / 3
	joinTime := events[k-1].Time

	cat := core.NewCatalog()
	base, err := core.NewPlanIn(cat, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	m, _ := startExecutor(t, 4, base)
	if err := m.ProcessBatch(events[:k]); err != nil {
		t.Fatal(err)
	}
	latePlan, err := core.NewPlanIn(cat, queries[1])
	if err != nil {
		t.Fatal(err)
	}
	late, err := m.SubscribePlan(latePlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[k:] { // a single event is a batch of one
		if err := m.ProcessBatch([]*event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	lateGot, err := late.Unsubscribe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.Unsubscribe(); err == nil {
		t.Error("double Unsubscribe accepted")
	}
	results, err := m.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Reference for the late joiner: a solo engine over the suffix,
	// keeping only fully covered windows (start strictly after the
	// join watermark).
	eng := core.NewEngine(core.MustPlan(queries[1]))
	for _, e := range events[k:] {
		if err := eng.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var lateWant []core.Result
	for _, r := range eng.Close() {
		if r.Start > joinTime {
			lateWant = append(lateWant, r)
		}
	}
	if fmt.Sprintf("%v", lateGot) != fmt.Sprintf("%v", lateWant) {
		t.Errorf("late joiner diverges from suffix solo run\ngot:  %v\nwant: %v", lateGot, lateWant)
	}
	if len(lateWant) == 0 {
		t.Error("late joiner produced no results; test is vacuous")
	}

	// The founding query must be untouched by the membership changes.
	ref := core.NewEngine(core.MustPlan(queries[0]))
	for _, e := range events {
		if err := ref.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprintf("%v", results[0]), fmt.Sprintf("%v", ref.Close()); got != want {
		t.Errorf("founding query diverges after churn\ngot:  %v\nwant: %v", got, want)
	}
}

// TestMultiExecutorLocalityFallback: a mid-stream query whose
// partition keys do not cover the frozen routing attributes is hosted
// on the dedicated full-stream worker and still produces exactly the
// solo-engine suffix results.
func TestMultiExecutorLocalityFallback(t *testing.T) {
	events := multiStream(600, 7)
	for i := range events {
		events[i].ID = int64(i + 1)
	}
	k := len(events) / 2
	joinTime := events[k-1].Time

	cat := core.NewCatalog()
	base, err := core.NewPlanIn(cat, parallelQuery()) // routes on [patient]
	if err != nil {
		t.Fatal(err)
	}
	m, _ := startExecutor(t, 4, base)
	if err := m.ProcessBatch(events[:k]); err != nil {
		t.Fatal(err)
	}
	// Keyed on ward only: [patient] is not covered, locality breaks.
	wardQ := query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [ward] GROUP-BY ward WITHIN 40 SLIDE 40")
	wardPlan, err := core.NewPlanIn(cat, wardQ)
	if err != nil {
		t.Fatal(err)
	}
	ward, err := m.SubscribePlan(wardPlan)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 5 { // 4 partition workers + full-stream fallback
		t.Errorf("workers = %d, want 5 (fallback running)", st.Workers)
	}
	for _, e := range events[k:] { // a single event is a batch of one
		if err := m.ProcessBatch([]*event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	stBefore, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wardGot, err := ward.Unsubscribe()
	if err != nil {
		t.Fatal(err)
	}
	// The fallback worker retires with its last subscriber: the stream
	// stops paying the duplicate delivery — but the fleet peak stays a
	// monotone high-water mark.
	st, err = m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("workers after fallback retirement = %d, want 4", st.Workers)
	}
	if st.PeakBytes < stBefore.PeakBytes {
		t.Errorf("peak regressed across retirement: %d -> %d", stBefore.PeakBytes, st.PeakBytes)
	}
	if _, err := m.Close(); err != nil {
		t.Fatal(err)
	}

	eng := core.NewEngine(core.MustPlan(wardQ))
	for _, e := range events[k:] {
		if err := eng.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var want []core.Result
	for _, r := range eng.Close() {
		if r.Start > joinTime {
			want = append(want, r)
		}
	}
	if got := fmt.Sprintf("%v", wardGot); got != fmt.Sprintf("%v", want) {
		t.Errorf("fallback-hosted query diverges\ngot:  %v\nwant: %v", got, want)
	}
	if len(want) == 0 {
		t.Error("fallback query produced no results; test is vacuous")
	}
}

// TestRestoreRejectsGroupsBesideInThreadWorker: a frame claiming a
// fallback worker (the executor group) or routing attributes next to
// the in-thread worker describes a shape no executor can have — nothing
// routes, so nothing would feed the fallback — and must fail as a bad
// snapshot rather than build workers this executor cannot run.
func TestRestoreRejectsGroupsBesideInThreadWorker(t *testing.T) {
	for _, tc := range []struct {
		fallback bool
		route    []string
	}{{true, nil}, {false, []string{"ward"}}} {
		var w snap.Writer
		enc := snap.Encoder(&w)
		one, none, subs := uint32(1), int64(0), 0
		enc.U32(&one)
		enc.Bool(&tc.fallback)
		snap.Slice(enc, &tc.route, 4, (*snap.Coder).Str)
		enc.I64(&none) // seq
		enc.I64(&none) // lastTime
		w.U8(0)        // sawEvent
		for range 4 {  // skipped, then the retired peak, handovers and saved operations
			enc.I64(&none)
		}
		enc.Len(&subs, 1)
		dec := snap.Decoder(w.Reader())
		m := RestoreMultiExecutor(core.NewCatalog(), dec, nil)
		if m != nil || !errors.Is(dec.Err(), snap.ErrBadSnapshot) || !strings.Contains(dec.Err().Error(), "single in-thread worker") {
			t.Errorf("fallback %v, routing %v beside the in-thread worker: executor %v, error %v, want ErrBadSnapshot", tc.fallback, tc.route, m, dec.Err())
		}
	}
}
