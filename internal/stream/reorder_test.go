package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

// mustOffer feeds one event and fails the test on a policy error. The
// returned slice is copied out of the Reorderer's scratch buffer so
// tests can accumulate emissions across calls.
func mustOffer(t *testing.T, r *Reorderer, e *event.Event) []*event.Event {
	t.Helper()
	out, err := r.Offer(e)
	if err != nil {
		t.Fatalf("Offer(%v): %v", e, err)
	}
	return append([]*event.Event(nil), out...)
}

func TestReordererRepairsBoundedDisorder(t *testing.T) {
	r := NewReorderer(3)
	input := []int64{5, 3, 7, 6, 4, 10, 9, 8, 12}
	var emitted []int64
	for i, tm := range input {
		for _, e := range mustOffer(t, r, &event.Event{Time: tm, ID: int64(i)}) {
			emitted = append(emitted, e.Time)
		}
	}
	for _, e := range r.Flush() {
		emitted = append(emitted, e.Time)
	}
	if len(emitted) != len(input) {
		t.Fatalf("emitted %d of %d events", len(emitted), len(input))
	}
	for i := 1; i < len(emitted); i++ {
		if emitted[i-1] > emitted[i] {
			t.Fatalf("out of order after repair: %v", emitted)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d", r.Dropped())
	}
}

func TestReordererDropsBeyondSlack(t *testing.T) {
	r := NewReorderer(2)
	mustOffer(t, r, &event.Event{Time: 10, ID: 1})
	if got := mustOffer(t, r, &event.Event{Time: 7, ID: 2}); len(got) != 0 {
		t.Errorf("too-late event emitted: %v", got)
	}
	if r.Dropped() != 1 {
		t.Errorf("dropped = %d", r.Dropped())
	}
	// Exactly at the boundary (10-2=8) is accepted.
	mustOffer(t, r, &event.Event{Time: 8, ID: 3})
	if r.Dropped() != 1 {
		t.Error("boundary event dropped")
	}
}

// TestReordererTimestampTies: events sharing a time stamp re-emit in
// ID order (the stream tie-breaker), wherever they arrived in the
// disorder window.
func TestReordererTimestampTies(t *testing.T) {
	r := NewReorderer(4)
	input := []*event.Event{
		{Time: 3, ID: 5}, {Time: 3, ID: 2}, {Time: 1, ID: 1},
		{Time: 3, ID: 4}, {Time: 5, ID: 6}, {Time: 3, ID: 3},
		{Time: 9, ID: 7},
	}
	var got []*event.Event
	for _, e := range input {
		got = append(got, mustOffer(t, r, e)...)
	}
	got = append(got, r.Flush()...)
	if len(got) != len(input) {
		t.Fatalf("emitted %d of %d", len(got), len(input))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Before(got[i]) {
			t.Fatalf("emission %d not in (time, ID) order: %v then %v", i, got[i-1], got[i])
		}
	}
}

// TestReordererDuplicateIDs: duplicate (time, ID) pairs — a source
// that retries, or two sources reusing a sequence — are both kept and
// both re-emitted; the buffer deduplicates nothing.
func TestReordererDuplicateIDs(t *testing.T) {
	r := NewReorderer(2)
	var got []*event.Event
	for _, e := range []*event.Event{
		{Time: 1, ID: 1}, {Time: 2, ID: 1}, {Time: 2, ID: 1}, {Time: 4, ID: 2},
	} {
		got = append(got, mustOffer(t, r, e)...)
	}
	got = append(got, r.Flush()...)
	if len(got) != 4 {
		t.Fatalf("emitted %d events, want 4 (duplicates kept)", len(got))
	}
	dups := 0
	for _, e := range got {
		if e.Time == 2 && e.ID == 1 {
			dups++
		}
	}
	if dups != 2 {
		t.Errorf("duplicate pair emitted %d times, want 2", dups)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d", r.Dropped())
	}
}

// TestReordererSlackBoundaryDrops pins the drop boundary: an event at
// exactly maxSeen-slack is admitted, one time unit older is dropped,
// and the watermark never regresses when a drop happens.
func TestReordererSlackBoundaryDrops(t *testing.T) {
	r := NewReorderer(3)
	mustOffer(t, r, &event.Event{Time: 10, ID: 1})
	// The boundary event sits exactly at the watermark (maxSeen-slack):
	// admitted, but held — ties of it are still admissible.
	if got := mustOffer(t, r, &event.Event{Time: 7, ID: 2}); len(got) != 0 {
		t.Fatalf("boundary event (maxSeen-slack) released early: %v", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("boundary event counted as dropped")
	}
	if mustOffer(t, r, &event.Event{Time: 6, ID: 3}); r.Dropped() != 1 {
		t.Fatalf("dropped = %d after sub-boundary event, want 1", r.Dropped())
	}
	// A drop leaves the buffer intact: both admitted events are still
	// pending and re-emit in order on flush.
	if buf := r.Buffered(); buf != 2 {
		t.Errorf("buffered = %d, want 2", buf)
	}
	out := r.Flush()
	if len(out) != 2 || out[0].Time != 7 || out[1].Time != 10 {
		t.Errorf("flush = %v", out)
	}
}

// TestReordererBoundaryUnderflow is the regression test for the drop
// boundary wrapping: maxSeen - slack underflows int64 for time stamps
// near math.MinInt64 or a huge slack, which silently turned the
// boundary into a large POSITIVE number and dropped every admissible
// event. The clamped boundary admits everything instead.
func TestReordererBoundaryUnderflow(t *testing.T) {
	t.Run("min-int64 timestamps", func(t *testing.T) {
		r := NewReorderer(10)
		mustOffer(t, r, &event.Event{Time: math.MinInt64 + 5, ID: 1})
		// maxSeen-slack = MinInt64+5-10 wraps positive without the clamp;
		// an in-window event must stay admissible.
		if got := mustOffer(t, r, &event.Event{Time: math.MinInt64, ID: 2}); len(got) != 0 {
			t.Fatalf("held event released early: %v", got)
		}
		if r.Dropped() != 0 {
			t.Fatalf("admissible event near MinInt64 dropped (boundary wrapped)")
		}
		if out := r.Flush(); len(out) != 2 || out[0].Time != math.MinInt64 {
			t.Fatalf("flush = %v", out)
		}
	})
	t.Run("huge slack", func(t *testing.T) {
		// 10 - MaxInt64 is still representable (barely above MinInt64):
		// the boundary must sit there, not wrap.
		r := NewReorderer(math.MaxInt64)
		mustOffer(t, r, &event.Event{Time: 10, ID: 1})
		mustOffer(t, r, &event.Event{Time: math.MinInt64 + 20, ID: 2})
		// -10 - MaxInt64 underflows int64; the clamp must widen the
		// window to everything instead of wrapping it shut.
		r2 := NewReorderer(math.MaxInt64)
		mustOffer(t, r2, &event.Event{Time: -10, ID: 1})
		mustOffer(t, r2, &event.Event{Time: math.MinInt64, ID: 2})
		if r.Dropped() != 0 || r2.Dropped() != 0 {
			t.Fatalf("dropped = %d/%d under effectively-infinite slack", r.Dropped(), r2.Dropped())
		}
	})
	t.Run("negative slack clamps to zero", func(t *testing.T) {
		r := NewReorderer(-5)
		mustOffer(t, r, &event.Event{Time: 10, ID: 1})
		mustOffer(t, r, &event.Event{Time: 9, ID: 2})
		if r.Dropped() != 1 {
			t.Fatalf("negative slack must behave as 0; dropped = %d", r.Dropped())
		}
	})
}

// TestReordererShedOldest pins the ShedOldest depth policy: at the
// cap, the oldest buffered events are force-drained (in order, counted
// by Shed), later arrivals older than the shed floor are dropped as
// late, and arrivals at the floor are still admitted.
func TestReordererShedOldest(t *testing.T) {
	r := NewReorderer(100) // huge slack: only the cap bounds the buffer
	r.SetMaxDepth(3, ShedOldest)
	var got []*event.Event
	for _, e := range []*event.Event{
		{Time: 4, ID: 1}, {Time: 2, ID: 2}, {Time: 8, ID: 3},
	} {
		got = append(got, mustOffer(t, r, e)...)
	}
	if len(got) != 0 || r.Buffered() != 3 {
		t.Fatalf("cap not reached: emitted %v, buffered %d", got, r.Buffered())
	}
	// The 4th event overflows: the oldest (t=2) is force-drained.
	got = append(got, mustOffer(t, r, &event.Event{Time: 6, ID: 4})...)
	if len(got) != 1 || got[0].Time != 2 {
		t.Fatalf("shed emission = %v, want the t=2 event", got)
	}
	if r.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", r.Shed())
	}
	if r.Buffered() != 3 {
		t.Fatalf("buffered = %d after shed, want 3", r.Buffered())
	}
	// An arrival older than the shed floor would be emitted out of
	// order downstream: dropped as late, even though it is within slack.
	if out := mustOffer(t, r, &event.Event{Time: 1, ID: 5}); len(out) != 0 || r.Dropped() != 1 {
		t.Fatalf("behind-floor arrival: out=%v dropped=%d, want dropped", out, r.Dropped())
	}
	// An arrival AT the shed floor is admissible (engines accept ties).
	if mustOffer(t, r, &event.Event{Time: 2, ID: 6}); r.Dropped() != 1 {
		t.Fatalf("arrival at the shed floor dropped")
	}
	// Emission order overall stays non-decreasing in time.
	got = append(got, r.Flush()...)
	for i := 1; i < len(got); i++ {
		if got[i-1].Time > got[i].Time {
			t.Fatalf("emissions out of time order after shedding: %v", got)
		}
	}
}

// TestReordererRejectPolicy pins the Reject depth policy: a full
// buffer refuses events that would not release anything, with an error
// wrapping core.ErrBackpressure, but admits watermark-advancing events
// that drain the buffer (refusing those would deadlock the stream).
func TestReordererRejectPolicy(t *testing.T) {
	r := NewReorderer(100)
	r.SetMaxDepth(2, Reject)
	mustOffer(t, r, &event.Event{Time: 5, ID: 1})
	mustOffer(t, r, &event.Event{Time: 7, ID: 2})
	// Full, and t=6 advances nothing: rejected, not ingested.
	out, err := r.Offer(&event.Event{Time: 6, ID: 3})
	if !errors.Is(err, core.ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if len(out) != 0 || r.Buffered() != 2 || r.Dropped() != 0 {
		t.Fatalf("rejected event mutated the buffer: out=%v buffered=%d dropped=%d", out, r.Buffered(), r.Dropped())
	}
	// t=200 pushes the watermark past both buffered events: admitted,
	// and the buffer drains.
	out, err = r.Offer(&event.Event{Time: 200, ID: 4})
	if err != nil {
		t.Fatalf("watermark-advancing event rejected: %v", err)
	}
	if len(out) != 2 || out[0].Time != 5 || out[1].Time != 7 {
		t.Fatalf("drain after admit = %v", out)
	}
	if r.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (the new event)", r.Buffered())
	}
}

func TestReordererZeroSlackHoldsTiesOnly(t *testing.T) {
	// Slack 0 still admits ties at the current maximum, so events are
	// held until time strictly advances (their ties may be in flight)
	// and released in ID order.
	r := NewReorderer(0)
	if out := mustOffer(t, r, &event.Event{Time: 1, ID: 2}); len(out) != 0 {
		t.Fatalf("event released while its ties are admissible: %v", out)
	}
	if out := mustOffer(t, r, &event.Event{Time: 1, ID: 1}); len(out) != 0 {
		t.Fatalf("tie released early: %v", out)
	}
	out := mustOffer(t, r, &event.Event{Time: 2, ID: 3})
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 2 {
		t.Fatalf("time advance released %v, want both t=1 events in ID order", out)
	}
	if got := r.Flush(); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("flush = %v", got)
	}
}

// TestReordererBoundaryTieStaysOrdered is the regression test for the
// boundary-tie bug: with slack 2, after 3 then 5 arrive, a late tie
// at time 3 is still admissible (3 >= 5-2) — it must be emitted in ID
// order with the earlier time-3 event, not after it.
func TestReordererBoundaryTieStaysOrdered(t *testing.T) {
	r := NewReorderer(2)
	var got []*event.Event
	got = append(got, mustOffer(t, r, &event.Event{Time: 3, ID: 5})...)
	got = append(got, mustOffer(t, r, &event.Event{Time: 5, ID: 9})...)
	got = append(got, mustOffer(t, r, &event.Event{Time: 3, ID: 1})...) // boundary tie
	got = append(got, r.Flush()...)
	if r.Dropped() != 0 {
		t.Fatalf("boundary tie dropped")
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d of 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Before(got[i]) {
			t.Fatalf("emission not in (time, ID) order: %v", got)
		}
	}
}

// TestReordererOfferSteadyStateAllocs pins the scratch-buffer reuse:
// once the emission buffer has grown, steady-state Offer calls
// (including ones that drain) do not allocate.
func TestReordererOfferSteadyStateAllocs(t *testing.T) {
	r := NewReorderer(2)
	events := make([]*event.Event, 512)
	for i := range events {
		events[i] = &event.Event{Time: int64(i), ID: int64(i + 1)}
	}
	i := 0
	// Warm up heap and scratch capacity.
	for ; i < 64; i++ {
		if _, err := r.Offer(events[i]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(256, func() {
		if _, err := r.Offer(events[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("steady-state Offer allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestReordererFeedsEngine is the end-to-end contract: slack-repaired
// streams are accepted by the engine and produce the same results as
// the originally ordered stream.
func TestReordererFeedsEngine(t *testing.T) {
	plan := core.MustPlan(query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 20 SLIDE 10"))

	rng := rand.New(rand.NewSource(4))
	var ordered []*event.Event
	tm := int64(0)
	for i := 0; i < 60; i++ {
		tm += int64(rng.Intn(3))
		ordered = append(ordered, event.New("A", tm))
	}
	ref := core.NewEngine(plan)
	for _, e := range ordered {
		if err := ref.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Close()

	// Shuffle within windows of 4 positions (disorder <= ~6 ticks).
	shuffled := make([]*event.Event, len(ordered))
	for i := range ordered {
		shuffled[i] = ordered[i].Clone()
		shuffled[i].ID = 0
	}
	for i := 0; i+3 < len(shuffled); i += 4 {
		rng.Shuffle(4, func(a, b int) {
			shuffled[i+a], shuffled[i+b] = shuffled[i+b], shuffled[i+a]
		})
	}
	re := NewReorderer(10)
	eng := core.NewEngine(plan)
	feed := func(evs []*event.Event) {
		for _, e := range evs {
			if err := eng.Process(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range shuffled {
		out, err := re.Offer(e)
		if err != nil {
			t.Fatal(err)
		}
		feed(out)
	}
	feed(re.Flush())
	got := eng.Close()
	if re.Dropped() != 0 {
		t.Fatalf("dropped %d within slack", re.Dropped())
	}
	if len(got) != len(want) {
		t.Fatalf("%d results vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("result %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// BenchmarkReordererOffer measures the slack hot path: one Offer per
// event over a mildly disordered stream. The scratch-buffer reuse
// keeps steady state at 0 allocs/op (asserted by
// TestReordererOfferSteadyStateAllocs; the bench reports it so the CI
// allocation gate tracks it too).
func BenchmarkReordererOffer(b *testing.B) {
	const n = 4096
	events := make([]*event.Event, n)
	for i := range events {
		tm := int64(i)
		if i%4 == 1 {
			tm -= 2 // bounded disorder within slack
		}
		events[i] = &event.Event{Time: tm, ID: int64(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReorderer(4)
		for _, e := range events {
			if _, err := r.Offer(e); err != nil {
				b.Fatal(err)
			}
		}
		r.Flush()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
