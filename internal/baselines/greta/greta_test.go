package greta

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

func figure2Plan() *core.Plan {
	return core.MustPlan(query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100"))
}

func figure2Events() []*event.Event {
	var out []*event.Event
	for _, s := range []struct {
		typ string
		t   int64
	}{{"A", 1}, {"B", 2}, {"A", 3}, {"A", 4}, {"C", 5}, {"B", 6}, {"A", 7}, {"B", 8}} {
		out = append(out, event.New(s.typ, s.t))
	}
	return out
}

func TestGretaFigure2Count(t *testing.T) {
	r := New(figure2Plan())
	results, err := r.Run(figure2Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Values[0].Count != 43 {
		t.Fatalf("results = %v", results)
	}
}

func TestGretaRejectsOtherSemantics(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ SEMANTICS skip-till-next-match WITHIN 10 SLIDE 10")
	_, err := New(core.MustPlan(q)).Run(nil)
	var unsup baselines.ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("err = %v", err)
	}
}

func TestGretaSupportsAdjacentPredicates(t *testing.T) {
	// Unlike A-Seq, GRETA evaluates predicates on adjacent events
	// (Table 9): A+ with increasing x over 1,3,2 -> 5 trends.
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ WHERE A.x < NEXT(A).x WITHIN 10 SLIDE 10")
	events := []*event.Event{
		event.New("A", 1).WithNum("x", 1),
		event.New("A", 2).WithNum("x", 3),
		event.New("A", 3).WithNum("x", 2),
	}
	results, err := New(core.MustPlan(q)).Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 5 {
		t.Errorf("count = %d, want 5", results[0].Values[0].Count)
	}
}

func TestGretaBudgetDNF(t *testing.T) {
	r := New(figure2Plan())
	r.BudgetUnits = 3
	_, err := r.Run(figure2Events())
	var dnf baselines.ErrBudget
	if !errors.As(err, &dnf) {
		t.Fatalf("err = %v", err)
	}
}

// TestGretaMemoryGrowsWithEvents pins GRETA's defining weakness: the
// graph keeps every matched event, so peak memory grows linearly in
// the stream (Figures 8b, 10b), unlike COGRA's constant state.
func TestGretaMemoryGrowsWithEvents(t *testing.T) {
	peak := func(n int) int64 {
		q := query.MustParse(fmt.Sprintf("RETURN COUNT(*) PATTERN A+ WITHIN %d SLIDE %[1]d", n))
		var events []*event.Event
		for i := 0; i < n; i++ {
			events = append(events, event.New("A", int64(i)))
		}
		r := New(core.MustPlan(q))
		var acct metrics.Accountant
		r.Acct = &acct
		if _, err := r.Run(events); err != nil {
			t.Fatal(err)
		}
		return acct.Peak()
	}
	small, large := peak(100), peak(1000)
	if large < 8*small {
		t.Errorf("graph memory did not grow linearly: %d -> %d", small, large)
	}
}

func TestGretaReleasesMemory(t *testing.T) {
	r := New(figure2Plan())
	var acct metrics.Accountant
	r.Acct = &acct
	if _, err := r.Run(figure2Events()); err != nil {
		t.Fatal(err)
	}
	if acct.Current() != 0 {
		t.Errorf("%d bytes leaked", acct.Current())
	}
}
