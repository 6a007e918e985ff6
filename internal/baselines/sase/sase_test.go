package sase

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

// planFor compiles COUNT(*) over the pattern pat under sem, with an
// optional WHERE clause.
func planFor(sem query.Semantics, pat string, where ...string) *core.Plan {
	src := "RETURN COUNT(*) PATTERN " + pat + " SEMANTICS " + sem.String()
	if len(where) > 0 {
		src += " WHERE " + where[0]
	}
	return core.MustPlan(query.MustParse(src + " WITHIN 1000 SLIDE 1000"))
}

func evs(specs ...string) []*event.Event {
	var out []*event.Event
	for i, s := range specs {
		out = append(out, event.New(s, int64(i+1)).WithNum("x", float64(i+1)))
	}
	return out
}

func trendKeys(trends []Trend) []string {
	var out []string
	for _, tr := range trends {
		var parts []string
		for i, e := range tr.Events {
			parts = append(parts, tr.Aliases[i]+fmtInt(e.Time))
		}
		out = append(out, strings.Join(parts, "."))
	}
	return out
}

func fmtInt(v int64) string {
	return string(rune('0' + v)) // single digits in these fixtures
}

func TestEnumerateAnySimple(t *testing.T) {
	// SEQ(A+, B) over a1 a2 b3: A-subsets {a1},{a2},{a1,a2} each with b3.
	plan := planFor(query.Any, "SEQ(A+, B)")
	trends, err := EnumerateWindow(plan, evs("A", "A", "B"), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range trendKeys(trends) {
		got[k] = true
	}
	want := []string{"A1.B3", "A2.B3", "A1.A2.B3"}
	if len(trends) != len(want) {
		t.Fatalf("trends = %v", trendKeys(trends))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing trend %s in %v", w, trendKeys(trends))
		}
	}
}

func TestEnumerateNextChainBreak(t *testing.T) {
	// SEQ(A+, B) NEXT over a1 b2 a3 b4: the b2 finishes the first
	// chain, a3 restarts; (a1, b4) must not appear.
	plan := planFor(query.Next, "SEQ(A+, B)")
	trends, err := EnumerateWindow(plan, evs("A", "B", "A", "B"), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := trendKeys(trends)
	if len(keys) != 2 || keys[0] != "A1.B2" && keys[1] != "A1.B2" {
		t.Errorf("NEXT trends = %v, want [A1.B2 A3.B4]", keys)
	}
	for _, k := range keys {
		if k == "A1.B4" {
			t.Error("chain-crossing trend enumerated")
		}
	}
}

func TestEnumerateContRequiresImmediateAdjacency(t *testing.T) {
	// A+ CONT over a1 a2 c3 a4: c3 resets, so {a1,a2,a4} style trends
	// are impossible; trends are a1, a2, a1a2, a4.
	plan := planFor(query.Cont, "A+")
	trends, err := EnumerateWindow(plan, evs("A", "A", "C", "A"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 4 {
		t.Errorf("CONT trends = %v", trendKeys(trends))
	}
}

func TestEnumerateRespectsAdjacentPredicates(t *testing.T) {
	// A+ ANY with increasing x: values 1,3,2 -> {1},{3},{2},{1,3},{1,2}.
	plan := planFor(query.Any, "A+", "A.x < NEXT(A).x")
	events := []*event.Event{
		event.New("A", 1).WithNum("x", 1),
		event.New("A", 2).WithNum("x", 3),
		event.New("A", 3).WithNum("x", 2),
	}
	trends, err := EnumerateWindow(plan, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 5 {
		t.Errorf("%d trends: %v", len(trends), trendKeys(trends))
	}
}

func TestEnumerateBindings(t *testing.T) {
	// SEQ(S A+, S B+) with [A.c]: A-events must share c.
	plan := planFor(query.Any, "SEQ(S A+, S B+)", "[A.c]")
	events := []*event.Event{
		event.New("S", 1).WithSym("c", "x"),
		event.New("S", 2).WithSym("c", "y"),
		event.New("S", 3).WithSym("c", "x"),
	}
	trends, err := EnumerateWindow(plan, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trends {
		seen := map[string]bool{}
		for i, e := range tr.Events {
			if tr.Aliases[i] == "A" {
				seen[e.Sym["c"]] = true
			}
		}
		if len(seen) > 1 {
			t.Errorf("trend with mixed A companies: %v", trendKeys([]Trend{tr}))
		}
	}
}

func TestBudgetTripsMidEnumeration(t *testing.T) {
	plan := planFor(query.Any, "A+")
	var events []*event.Event
	for i := 1; i <= 30; i++ {
		events = append(events, event.New("A", int64(i)))
	}
	_, err := EnumerateWindow(plan, events, 1000)
	var dnf baselines.ErrBudget
	if !errors.As(err, &dnf) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestRunnerMemoryReturnsToZero(t *testing.T) {
	plan := planFor(query.Any, "SEQ(A+, B)")
	r := New(plan)
	var acct metrics.Accountant
	r.Acct = &acct
	if _, err := r.Run(evs("A", "A", "B", "A", "B")); err != nil {
		t.Fatal(err)
	}
	if acct.Peak() == 0 {
		t.Error("no memory accounted")
	}
	if acct.Current() != 0 {
		t.Errorf("%d bytes leaked", acct.Current())
	}
}

func TestRunnerMultiWindow(t *testing.T) {
	plan := core.MustPlan(query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 2 SLIDE 2"))
	r := New(plan)
	results, err := r.Run([]*event.Event{
		event.New("A", 0), event.New("A", 1), // window 0: 3 trends
		event.New("A", 2), // window 1: 1 trend
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Values[0].Count != 3 || results[1].Values[0].Count != 1 {
		t.Errorf("results = %v", results)
	}
}

func TestNegationBlocksPairs(t *testing.T) {
	plan := planFor(query.Any, "SEQ(A+, NOT(N), B)")
	events := []*event.Event{
		event.New("A", 1), event.New("N", 2), event.New("A", 3), event.New("B", 4),
	}
	trends, err := EnumerateWindow(plan, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Valid trends: last A after the N -> {a3,b4}, {a1,a3,b4}.
	if len(trends) != 2 {
		t.Errorf("trends = %v", trendKeys(trends))
	}
}
