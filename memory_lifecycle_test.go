package cogra_test

// Tests for the bounded-state session: binding-intern epoch rotation
// (every session engine evicts), catalog id-space compaction at
// unsubscribe, the depth-capped reorder buffer (WithMaxReorderDepth with the
// ShedOldest/Reject policies and the ErrBackpressure sentinel), and
// the concurrency contract of Session.Stats.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// lifecycleStream is the patient stream with every ward renamed per
// 64-tick frame, so a value bound in a slot is never seen again: binding
// intern tables ramp without eviction and plateau with it.
func lifecycleStream(n int) []*cogra.Event {
	return diff.PatientStream(diff.PatientShape{Seed: 23, Step: diff.DenseStep, Rotate: true}, n)
}

// typeSlots binds the ward of every A: over lifecycleStream its value
// interns rotate.
const typeSlots = `
	RETURN COUNT(*), SUM(A.v)
	PATTERN (SEQ(A+, B))+
	SEMANTICS skip-till-any-match
	WHERE [patient] AND [A.ward]
	GROUP-BY patient
	WITHIN 64 SLIDE 32`

// TestSessionInternPlateau samples the evicted footprint over a long
// rotating-cardinality run and asserts a plateau: after warmup the
// footprint never exceeds a small multiple of its warmup level, even
// though fresh slot values keep arriving for ~60 more epochs.
func TestSessionInternPlateau(t *testing.T) {
	events := lifecycleStream(8000)
	src := typeSlots
	sess := cogra.NewSession(cogra.WithSlack(4))
	if _, err := sess.Subscribe(cogra.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	var warmup, later int64
	for i, e := range events {
		if err := sess.Push(e); err != nil {
			t.Fatal(err)
		}
		if i == len(events)/4 {
			st, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			warmup = st.BindingInternBytes
		}
		if i > len(events)/4 && i%512 == 0 {
			st, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.BindingInternBytes > later {
				later = st.BindingInternBytes
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if warmup == 0 || later == 0 {
		t.Fatal("plateau not measured")
	}
	if later > 2*warmup {
		t.Errorf("BindingInternBytes ramps under eviction: warmup %dB, later peak %dB", warmup, later)
	}
}

// TestSessionCatalogCompaction: unsubscribe retires the symbols only
// the leaving query referenced — the catalog id-space sizes shrink and
// a compaction is published — and churning distinct queries no longer
// ratchets the id spaces up (retired ids are recycled).
func TestSessionCatalogCompaction(t *testing.T) {
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			events := lifecycleStream(600)
			sess := cogra.NewSession(opts...)
			if _, err := sess.Subscribe(cogra.MustParse(typeSlots)); err != nil {
				t.Fatal(err)
			}
			if err := sess.PushBatch(events[:200]); err != nil {
				t.Fatal(err)
			}
			base, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}

			// Churn: each round subscribes a query over its own unique
			// event type and attribute, then unsubscribes it mid-stream.
			peakTypes, peakAttrs := 0, 0
			for round := 0; round < 12; round++ {
				src := fmt.Sprintf(`
					RETURN COUNT(*)
					PATTERN Churn%d+
					SEMANTICS skip-till-any-match
					WHERE [patient] AND [Churn%d.extra%d]
					GROUP-BY patient
					WITHIN 64 SLIDE 64`, round, round, round)
				sub, err := sess.Subscribe(cogra.MustParse(src))
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.PushBatch(events[200+round*30 : 230+round*30]); err != nil {
					t.Fatal(err)
				}
				st, err := sess.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.InternedTypes > peakTypes {
					peakTypes = st.InternedTypes
				}
				if st.InternedAttrs > peakAttrs {
					peakAttrs = st.InternedAttrs
				}
				sub.Unsubscribe()
				if err := sub.Err(); err != nil {
					t.Fatal(err)
				}
			}
			st, err := sess.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.CatalogCompactions == 0 {
				t.Error("no compaction published across 12 unsubscribe cycles")
			}
			// After the churn the id spaces are back at the resident
			// fleet's footprint: each round's type/attr were retired.
			if st.InternedTypes != base.InternedTypes || st.InternedAttrs != base.InternedAttrs {
				t.Errorf("id spaces did not shrink back: types %d->%d, attrs %d->%d",
					base.InternedTypes, st.InternedTypes, base.InternedAttrs, st.InternedAttrs)
			}
			// And the peak while churning stays one round's worth above
			// the base — recycling, not ratcheting.
			if peakTypes > base.InternedTypes+1 || peakAttrs > base.InternedAttrs+1 {
				t.Errorf("id spaces ratcheted during churn: peak types %d (base %d), peak attrs %d (base %d)",
					peakTypes, base.InternedTypes, peakAttrs, base.InternedAttrs)
			}
			// The resident query is untouched throughout.
			if err := sess.PushBatch(events[560:]); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionCatalogSlotTruncation pins the physical side of
// compaction: retiring the highest-id symbols truncates their slots
// off the id arrays (Stats().InternedTypeSlots/InternedAttrSlots)
// rather than leaving tombstones to probe forever. Interior
// tombstones — retired while a later subscriber still holds higher
// ids — stay in place until everything above them goes, then the
// whole dead tail truncates at once.
func TestSessionCatalogSlotTruncation(t *testing.T) {
	events := lifecycleStream(300)
	sess := cogra.NewSession()
	defer sess.Close()
	if _, err := sess.Subscribe(cogra.MustParse(typeSlots)); err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events[:100]); err != nil {
		t.Fatal(err)
	}
	base, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if base.InternedTypeSlots != base.InternedTypes || base.InternedAttrSlots != base.InternedAttrs {
		t.Fatalf("fresh session has tombstones: type slots %d live %d, attr slots %d live %d",
			base.InternedTypeSlots, base.InternedTypes, base.InternedAttrSlots, base.InternedAttrs)
	}

	churn := func(i int) string {
		return fmt.Sprintf(`
			RETURN COUNT(*)
			PATTERN Trunc%d+
			SEMANTICS skip-till-any-match
			WHERE [patient] AND [Trunc%d.slot%d]
			GROUP-BY patient
			WITHIN 64 SLIDE 64`, i, i, i)
	}
	// Two churn subscribers stacked: lo holds lower ids than hi.
	lo, err := sess.Subscribe(cogra.MustParse(churn(0)))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sess.Subscribe(cogra.MustParse(churn(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events[100:200]); err != nil {
		t.Fatal(err)
	}
	grown, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if grown.InternedTypeSlots <= base.InternedTypeSlots || grown.InternedAttrSlots <= base.InternedAttrSlots {
		t.Fatalf("churn subscribers did not grow the id spaces: type slots %d->%d, attr slots %d->%d",
			base.InternedTypeSlots, grown.InternedTypeSlots, base.InternedAttrSlots, grown.InternedAttrSlots)
	}

	// Retiring lo leaves interior tombstones: hi still pins the ids
	// above them, so no physical shrink yet.
	lo.Unsubscribe()
	mid, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if mid.InternedTypeSlots != grown.InternedTypeSlots || mid.InternedAttrSlots != grown.InternedAttrSlots {
		t.Errorf("interior tombstones moved live ids: type slots %d->%d, attr slots %d->%d",
			grown.InternedTypeSlots, mid.InternedTypeSlots, grown.InternedAttrSlots, mid.InternedAttrSlots)
	}
	if mid.InternedTypes != base.InternedTypes+1 || mid.InternedAttrs != base.InternedAttrs+1 {
		t.Errorf("live counts after retiring lo: types %d (want %d), attrs %d (want %d)",
			mid.InternedTypes, base.InternedTypes+1, mid.InternedAttrs, base.InternedAttrs+1)
	}

	// Retiring hi makes the entire dead tail trailing — lo's interior
	// tombstones included — and the arrays truncate back to the
	// resident footprint.
	hi.Unsubscribe()
	final, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if final.InternedTypeSlots != base.InternedTypeSlots || final.InternedAttrSlots != base.InternedAttrSlots {
		t.Errorf("dead tail not truncated: type slots %d (want %d), attr slots %d (want %d)",
			final.InternedTypeSlots, base.InternedTypeSlots, final.InternedAttrSlots, base.InternedAttrSlots)
	}
	if final.InternedTypeSlots != final.InternedTypes || final.InternedAttrSlots != final.InternedAttrs {
		t.Errorf("tombstones survive full churn: type slots %d live %d, attr slots %d live %d",
			final.InternedTypeSlots, final.InternedTypes, final.InternedAttrSlots, final.InternedAttrs)
	}
	// The resident query is untouched.
	if err := sess.PushBatch(events[200:]); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCompactionKeepsResidentResults pins compaction as
// invisible to the surviving fleet: a session that churns disjoint
// queries mid-stream leaves the resident query byte-identical to an
// undisturbed solo run.
func TestSessionCompactionKeepsResidentResults(t *testing.T) {
	events := lifecycleStream(2000)
	src := typeSlots
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			want := soloRun(t, src, events)

			sess := cogra.NewSession(opts...)
			sub, err := sess.Subscribe(cogra.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(events); i += 250 {
				end := min(i+250, len(events))
				if err := sess.PushBatch(events[i:end]); err != nil {
					t.Fatal(err)
				}
				csrc := fmt.Sprintf(`
					RETURN COUNT(*)
					PATTERN Side%d+
					SEMANTICS skip-till-any-match
					WHERE [patient] AND [Side%d.x%d]
					GROUP-BY patient WITHIN 32 SLIDE 32`, i, i, i)
				csub, err := sess.Subscribe(cogra.MustParse(csrc))
				if err != nil {
					t.Fatal(err)
				}
				csub.Unsubscribe()
				if err := csub.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			got := sub.Drain()
			if len(want) == 0 {
				t.Fatal("no results; test is vacuous")
			}
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("churn-compaction disturbed the resident query\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

// TestSessionFailedSubscribeDoesNotLeakSymbols: a Subscribe that
// compiles its query but is then rejected (frozen routing under
// StrictRouting) must not leave the compiled symbols behind — a
// fleet retrying failed subscribes would otherwise ratchet the id
// spaces (and the per-event resolver probe loop) without bound.
func TestSessionFailedSubscribeDoesNotLeakSymbols(t *testing.T) {
	events := lifecycleStream(300)
	sess := cogra.NewSession(cogra.WithWorkers(4))
	if _, err := sess.Subscribe(cogra.MustParse(typeSlots)); err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(events); err != nil {
		t.Fatal(err) // routing now frozen on [patient]
	}
	base, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf(`
			RETURN COUNT(*)
			PATTERN Novel%d+
			SEMANTICS skip-till-any-match
			WHERE [novel%d]
			GROUP-BY novel%d
			WITHIN 10 SLIDE 10`, i, i, i)
		_, err := sess.Subscribe(cogra.MustParse(src), cogra.StrictRouting())
		if !errors.Is(err, cogra.ErrFrozenRouting) {
			t.Fatalf("subscribe %d: err = %v, want ErrFrozenRouting", i, err)
		}
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.InternedTypes != base.InternedTypes || st.InternedAttrs != base.InternedAttrs {
		t.Errorf("failed subscribes leaked symbols: types %d->%d, attrs %d->%d",
			base.InternedTypes, st.InternedTypes, base.InternedAttrs, st.InternedAttrs)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStalePlanRejected: a plan compiled against the session's
// catalog but never hosted loses its symbols to a compaction; hosting
// it afterwards fails with ErrNotHosted instead of dispatching through
// recycled ids.
func TestSessionStalePlanRejected(t *testing.T) {
	sess := cogra.NewSession()
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN Zed+
		SEMANTICS skip-till-any-match
		WHERE [patient] AND [Zed.zattr]
		GROUP-BY patient WITHIN 10 SLIDE 10`)
	stale, err := cogra.CompileIn(sess.Catalog(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Host and drop another query over the same symbols: its
	// unsubscribe retires Zed/zattr (the stale plan holds no refs).
	sub, err := sess.Subscribe(cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN Zed+
		SEMANTICS skip-till-any-match
		WHERE [patient] AND [Zed.zattr]
		GROUP-BY patient WITHIN 10 SLIDE 10`))
	if err != nil {
		t.Fatal(err)
	}
	sub.Unsubscribe()
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubscribePlan(stale); !errors.Is(err, cogra.ErrNotHosted) {
		t.Fatalf("stale plan accepted after compaction: err = %v", err)
	}
	// Recompiling picks up fresh ids and hosts fine.
	fresh, err := cogra.CompileIn(sess.Catalog(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubscribePlan(fresh); err != nil {
		t.Fatalf("recompiled plan rejected: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBackpressure: a full depth-capped buffer under the Reject
// policy fails Push with ErrBackpressure without ingesting the event,
// and the session recovers as soon as the watermark advances; under
// ShedOldest the overflow is dispatched instead and counted.
func TestSessionBackpressure(t *testing.T) {
	t.Run("reject", func(t *testing.T) {
		sess := cogra.NewSession(cogra.WithSlack(1000),
			cogra.WithMaxReorderDepth(4), cogra.WithDepthPolicy(cogra.Reject))
		if _, err := sess.Subscribe(cogra.MustParse(typeSlots)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := sess.Push(cogra.NewEvent("A", int64(i)).WithSym("patient", "p0").WithSym("u", "u")); err != nil {
				t.Fatal(err)
			}
		}
		rejected := cogra.NewEvent("A", 2).WithSym("patient", "p0").WithSym("u", "u")
		err := sess.Push(rejected)
		if !errors.Is(err, cogra.ErrBackpressure) {
			t.Fatalf("err = %v, want ErrBackpressure", err)
		}
		if rejected.ID != 0 {
			t.Fatalf("rejected event kept arrival-order stamp %d; a retry would emit out of arrival order", rejected.ID)
		}
		// A watermark-advancing event is still admitted and drains.
		if err := sess.Push(cogra.NewEvent("A", 2000).WithSym("patient", "p0").WithSym("u", "u")); err != nil {
			t.Fatalf("watermark-advancing push rejected: %v", err)
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ReorderDepth > 4 {
			t.Fatalf("depth %d exceeds cap", st.ReorderDepth)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shed", func(t *testing.T) {
		sess := cogra.NewSession(cogra.WithSlack(1000), cogra.WithMaxReorderDepth(4))
		if _, err := sess.Subscribe(cogra.MustParse(typeSlots)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := sess.Push(cogra.NewEvent("A", int64(i)).WithSym("patient", "p0").WithSym("u", "u")); err != nil {
				t.Fatal(err)
			}
		}
		st, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ReorderShed != 8 {
			t.Errorf("ReorderShed = %d, want 8 (12 pushed, cap 4)", st.ReorderShed)
		}
		if st.ReorderDepth != 4 {
			t.Errorf("ReorderDepth = %d, want 4", st.ReorderDepth)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionStatsConcurrentWithPush is the data-race regression test:
// Stats must be callable from a monitoring goroutine while the feeding
// goroutine pushes batches through the slack buffer (run under -race
// in CI).
func TestSessionStatsConcurrentWithPush(t *testing.T) {
	events := lifecycleStream(3000)
	shuffled, slack := diff.ShuffleBounded(events, 4, 11)
	for mode, opts := range sessionModes() {
		t.Run(mode, func(t *testing.T) {
			sess := cogra.NewSession(append(opts[:len(opts):len(opts)],
				cogra.WithSlack(slack))...)
			sub, err := sess.Subscribe(cogra.MustParse(typeSlots))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := sess.Stats(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < len(shuffled); i += 64 {
				end := min(i+64, len(shuffled))
				if err := sess.PushBatch(shuffled[i:end]); err != nil {
					t.Fatal(err)
				}
				// Drain between pushes: result pulling on the feeding
				// goroutine shares router/engine state with Stats too.
				sub.Drain()
			}
			close(done)
			wg.Wait()
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
