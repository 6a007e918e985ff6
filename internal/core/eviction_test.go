package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/snap"
)

// evictionQuery is a two-alias sequence with binding slots on both
// aliases: wide enough to exercise value interning, and (with a third
// slot added) vector interning. Windows are 64 ticks long (one epoch)
// and start every slide ticks.
func evictionQuery(t *testing.T, slots int, slide int64) *query.Query {
	t.Helper()
	where := ""
	if slots > 0 {
		where = "WHERE " + strings.Join([]string{"[A.u]", "[B.u]", "[A.w]"}[:slots], " AND ")
	}
	return query.MustParse(fmt.Sprintf("RETURN COUNT(*) PATTERN SEQ(A+, B) %s WITHIN 64 SLIDE %d", where, slide))
}

// rotatingStream emits A/B pairs whose slot values rotate with stream
// time: each 64-tick epoch introduces card fresh values and never
// reuses old ones, so an unbounded intern table grows forever while a
// window-expiry-evicted one plateaus.
func rotatingStream(n int, card int) []*event.Event {
	out := make([]*event.Event, 0, 2*n)
	id := int64(0)
	for i := 0; i < n; i++ {
		tm := int64(i)
		u := fmt.Sprintf("u%d-%d", tm/64, i%card)
		w := fmt.Sprintf("w%d-%d", tm/64, (i+1)%card)
		a := event.New("A", tm).WithSym("u", u).WithSym("w", w)
		bv := event.New("B", tm).WithSym("u", u).WithSym("w", w)
		id++
		a.ID = id
		id++
		bv.ID = id
		out = append(out, a, bv)
	}
	return out
}

// TestEngineInternEvictionDifferential pins eviction to be a pure
// memory optimisation: an eviction-enabled engine emits byte-identical
// results to an unbounded one, for packed (<=2 slots) and vector-
// interned (3 slots) bindings, while its intern footprint ends far
// below the unbounded ramp.
func TestEngineInternEvictionDifferential(t *testing.T) {
	for _, slots := range []int{2, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			q := evictionQuery(t, slots, 64)
			events := rotatingStream(1200, 3)

			ref := NewEngine(MustPlan(q))
			for _, e := range events {
				if err := ref.Process(e.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			want := ref.Close()

			eng := NewEngine(MustPlan(q), WithInternEviction())
			for _, e := range events {
				if err := eng.Process(e.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			got := eng.Close()

			if len(want) == 0 {
				t.Fatal("no results; differential test is vacuous")
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("eviction changed results\ngot:  %v\nwant: %v", got, want)
			}
			if ref.InternBytes() <= eng.InternBytes() {
				t.Errorf("eviction reclaimed nothing: unbounded %dB vs evicted %dB",
					ref.InternBytes(), eng.InternBytes())
			}
		})
	}
}

// TestRestoreUnstampedFrameIntoEvictingEngine: a frame written by an
// engine without eviction carries no epoch stamps. Restored mid-window
// into an evicting engine, none of its intern entries may be reclaimed
// while a window open at the cut still references them. The cut lies in
// epoch 10 (times 640–703; windows of 64 ticks start every 16); "x" and
// "v" are not touched again after the cut in that epoch, yet the window
// [656, 720), open until epoch 11, holds their A trends: reclaimed on
// entering epoch 11, their ids would go to "z", so A z would extend a
// trend of another value and A v would miss its own. The suffix crosses
// three epoch boundaries and must give the undisturbed unbounded
// engine's results, while "y", last touched in epoch 11, is reclaimed on
// entering epoch 13.
func TestRestoreUnstampedFrameIntoEvictingEngine(t *testing.T) {
	ev := func(typ string, tm int64, u string) *event.Event {
		return event.New(typ, tm).WithSym("u", u).WithSym("w", "w"+u)
	}
	prefix := []*event.Event{ev("A", 660, "x"), ev("A", 661, "v"), ev("A", 662, "y")}
	suffix := []*event.Event{
		ev("A", 662, "y"), ev("A", 670, "y"),
		ev("A", 705, "z"), ev("A", 706, "v"), ev("B", 710, "x"), ev("B", 715, "y"),
		ev("A", 770, "x"), ev("B", 775, "x"), ev("B", 780, "z"), ev("B", 840, "x"),
	}
	feed := func(e *Engine, events []*event.Event) {
		t.Helper()
		for _, x := range events {
			if err := e.Process(x.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, slots := range []int{2, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			q := evictionQuery(t, slots, 16)
			ref := NewEngine(MustPlan(q))
			feed(ref, prefix)
			feed(ref, suffix)
			want := ref.Close()

			src := NewEngine(MustPlan(q))
			feed(src, prefix)
			var w snap.Writer
			src.Code(snap.Encoder(&w), math.MaxInt64)
			r := w.Reader()
			eng := NewEngine(MustPlan(q), WithInternEviction())
			eng.Code(snap.Decoder(r), math.MaxInt64)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			feed(eng, suffix)
			got := eng.Close()

			if len(want) == 0 {
				t.Fatal("no results; differential test is vacuous")
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("restore into an evicting engine changed results\ngot:  %v\nwant: %v", got, want)
			}
			if eng.InternBytes() >= ref.InternBytes() {
				t.Errorf("eviction reclaimed nothing: unbounded %dB vs evicted %dB", ref.InternBytes(), eng.InternBytes())
			}
		})
	}
}

// TestEngineInternEvictionPlateau asserts the footprint shape: under
// rotating key cardinality the evicted engine's InternBytes stops
// growing after the rotation is in steady state, while the unbounded
// engine keeps ramping.
func TestEngineInternEvictionPlateau(t *testing.T) {
	q := evictionQuery(t, 2, 64)
	events := rotatingStream(4000, 3)
	eng := NewEngine(MustPlan(q), WithInternEviction())
	ref := NewEngine(MustPlan(q))
	var peakAfterWarmup, warmup int64
	for i, e := range events {
		if err := eng.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Process(e.Clone()); err != nil {
			t.Fatal(err)
		}
		// Warm up through four full epochs, then record the plateau.
		if e.Time == 4*64 && warmup == 0 {
			warmup = eng.InternBytes()
		}
		if e.Time > 4*64 && eng.InternBytes() > peakAfterWarmup {
			peakAfterWarmup = eng.InternBytes()
		}
		_ = i
	}
	if warmup == 0 || peakAfterWarmup == 0 {
		t.Fatal("stream too short to measure a plateau")
	}
	// The live set is ~2 epochs of values; allow slack for epoch phase
	// but reject any ramp (the unbounded table grows ~16x over the
	// remaining 58 epochs).
	if peakAfterWarmup > 2*warmup {
		t.Errorf("evicted intern footprint ramps: warmup %dB, later peak %dB", warmup, peakAfterWarmup)
	}
	if ref.InternBytes() < 4*peakAfterWarmup {
		t.Errorf("unbounded reference did not ramp (%dB) — plateau assertion is vacuous (evicted peak %dB)",
			ref.InternBytes(), peakAfterWarmup)
	}
}

// TestBindingsEvictionRecyclesIDs exercises the intern tables directly:
// ids reclaimed by expire are reused by later interns, decode stays
// correct across the recycle, and the accounted footprint returns to
// the live set.
func TestBindingsEvictionRecyclesIDs(t *testing.T) {
	b := newBindings([]predicate.Equivalence{{Alias: "A", Attr: "x"}}, nopAccountant{}, true)
	b.expire(0) // adopt epoch 0 as the base

	id1 := b.internVal("alpha")
	key1, _ := b.combine(0, []slotAssign{{idx: 0, val: id1}})
	if got := b.appendDecoded(nil, key1); got[0] != "alpha" {
		t.Fatalf("decode = %v", got)
	}
	grown := b.footprint()

	// Two epochs later "alpha" was never touched again: reclaimed.
	b.expire(1)
	if b.footprint() != grown {
		t.Fatalf("expire(1) reclaimed a value still within the horizon")
	}
	b.expire(2)
	if b.footprint() >= grown {
		t.Fatalf("expire(2) did not reclaim: footprint %d >= %d", b.footprint(), grown)
	}

	// The freed id is recycled for the next value; the new binding
	// decodes to the new value.
	id2 := b.internVal("beta")
	if id2 != id1 {
		t.Errorf("freed id %d not recycled (got %d)", id1, id2)
	}
	key2, _ := b.combine(0, []slotAssign{{idx: 0, val: id2}})
	if got := b.appendDecoded(nil, key2); got[0] != "beta" {
		t.Fatalf("decode after recycle = %v", got)
	}

	// Touching a value refreshes its stamp: it survives the next epoch.
	b.expire(3)
	b.internVal("beta")
	b.expire(4)
	if _, ok := b.valIDs["beta"]; !ok {
		t.Fatal("freshly touched value evicted")
	}
}
