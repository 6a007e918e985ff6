package flinklite

import (
	"errors"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

// plan compiles COUNT(*) over the pattern pat under sem, with an
// optional WHERE clause.
func plan(sem query.Semantics, pat string, where ...string) *core.Plan {
	src := "RETURN COUNT(*) PATTERN " + pat + " SEMANTICS " + sem.String()
	if len(where) > 0 {
		src += " WHERE " + where[0]
	}
	return core.MustPlan(query.MustParse(src + " WITHIN 1000 SLIDE 1000"))
}

func seq(types ...string) []*event.Event {
	var out []*event.Event
	for i, s := range types {
		out = append(out, event.New(s, int64(i+1)).WithNum("x", float64(i+1)))
	}
	return out
}

func TestFlinkAnyCountsViaFlattenedWorkload(t *testing.T) {
	// A+ over 6 events under ANY: 2^6-1 = 63 sequences across the
	// flattened queries.
	results, err := New(plan(query.Any, "A+")).
		Run(seq("A", "A", "A", "A", "A", "A"))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 63 {
		t.Errorf("count = %d, want 63", results[0].Values[0].Count)
	}
}

func TestFlinkContiguousMatches(t *testing.T) {
	// SEQ(A+, B) CONT over a a c a b: only (a4, b5) is contiguous.
	results, err := New(plan(query.Cont, "SEQ(A+, B)")).
		Run(seq("A", "A", "C", "A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 1 {
		t.Errorf("count = %d, want 1", results[0].Values[0].Count)
	}
}

func TestFlinkRejectsNextAndNegation(t *testing.T) {
	var unsup baselines.ErrUnsupported
	if _, err := New(plan(query.Next, "A+")).Run(nil); !errors.As(err, &unsup) {
		t.Errorf("NEXT: %v", err)
	}
	if _, err := New(plan(query.Any, "SEQ(A+, NOT(N), B)")).Run(nil); !errors.As(err, &unsup) {
		t.Errorf("negation: %v", err)
	}
}

func TestFlinkAdjacentPredicates(t *testing.T) {
	// Flink supports predicates on adjacent events (Table 9).
	p := plan(query.Any, "A+", "A.x < NEXT(A).x")
	events := []*event.Event{
		event.New("A", 1).WithNum("x", 1),
		event.New("A", 2).WithNum("x", 3),
		event.New("A", 3).WithNum("x", 2),
	}
	results, err := New(p).Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 5 {
		t.Errorf("count = %d, want 5", results[0].Values[0].Count)
	}
}

// TestFlinkMaterialisesMatches pins the two-step property: peak memory
// covers every constructed match of a window, growing with the match
// count (Figure 7b's exponential memory curve).
func TestFlinkMaterialisesMatches(t *testing.T) {
	peak := func(n int) int64 {
		r := New(plan(query.Any, "A+"))
		var acct metrics.Accountant
		r.Acct = &acct
		var events []*event.Event
		for i := 1; i <= n; i++ {
			events = append(events, event.New("A", int64(i)))
		}
		if _, err := r.Run(events); err != nil {
			t.Fatal(err)
		}
		return acct.Peak()
	}
	// 2^10 vs 2^6 matches: memory must grow far superlinearly.
	if p6, p10 := peak(6), peak(10); p10 < 8*p6 {
		t.Errorf("match buffer did not grow with match count: %d -> %d", p6, p10)
	}
}

func TestFlinkBudgetDNF(t *testing.T) {
	r := New(plan(query.Any, "A+"))
	r.BudgetUnits = 100
	var events []*event.Event
	for i := 1; i <= 25; i++ {
		events = append(events, event.New("A", int64(i)))
	}
	_, err := r.Run(events)
	var dnf baselines.ErrBudget
	if !errors.As(err, &dnf) {
		t.Fatalf("err = %v", err)
	}
}

func TestLongestCandidateRun(t *testing.T) {
	p := plan(query.Cont, "SEQ(A+, B)")
	events := seq("A", "A", "C", "A", "A", "A", "B")
	if got := longestCandidateRun(p, events); got != 4 {
		t.Errorf("longestCandidateRun = %d, want 4 (a4 a5 a6 b7)", got)
	}
	// Adjacent predicates shorten the bound.
	pp := plan(query.Cont, "A+", "A.x < NEXT(A).x")
	evs := []*event.Event{
		event.New("A", 1).WithNum("x", 1),
		event.New("A", 2).WithNum("x", 2),
		event.New("A", 3).WithNum("x", 1), // drop breaks the run
		event.New("A", 4).WithNum("x", 2),
	}
	if got := longestCandidateRun(pp, evs); got != 2 {
		t.Errorf("predicate-bounded run = %d, want 2", got)
	}
	// Simultaneous events break contiguity.
	same := []*event.Event{event.New("A", 1), event.New("A", 1)}
	if got := longestCandidateRun(p, same); got != 1 {
		t.Errorf("tie run = %d, want 1", got)
	}
}

func TestFlinkCapLimitsMatchLength(t *testing.T) {
	r := New(plan(query.Any, "A+"))
	r.MaxLen = 2
	results, err := r.Run(seq("A", "A", "A", "A"))
	if err != nil {
		t.Fatal(err)
	}
	// 4 singletons + 6 pairs.
	if results[0].Values[0].Count != 10 {
		t.Errorf("capped count = %d, want 10", results[0].Values[0].Count)
	}
}
