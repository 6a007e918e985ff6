package aseq

import (
	"errors"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
)

// anyPlan compiles COUNT(*) over body, the query's PATTERN clause and
// any WHERE and GROUP-BY clauses, under skip-till-any-match.
func anyPlan(body string) *core.Plan {
	return core.MustPlan(query.MustParse("RETURN COUNT(*) " + body + " WITHIN 1000 SLIDE 1000"))
}

func aEvents(n int) []*event.Event {
	var out []*event.Event
	for i := 1; i <= n; i++ {
		out = append(out, event.New("A", int64(i)))
	}
	return out
}

func TestASeqCountsKleeneViaFlattening(t *testing.T) {
	// A+ over n events: 2^n - 1 trends, summed across the flattened
	// fixed-length queries (one per length).
	plan := anyPlan("PATTERN A+")
	for _, n := range []int{1, 3, 6, 10} {
		results, err := New(plan).Run(aEvents(n))
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1)<<n - 1
		if results[0].Values[0].Count != want {
			t.Errorf("n=%d: count = %d, want %d", n, results[0].Values[0].Count, want)
		}
	}
}

func TestASeqMaxLenCapsTrendLength(t *testing.T) {
	// With MaxLen 2, only trends of length <= 2 are counted:
	// n=4 -> 4 singletons + C(4,2)=6 pairs = 10.
	plan := anyPlan("PATTERN A+")
	r := New(plan)
	r.MaxLen = 2
	results, err := r.Run(aEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 10 {
		t.Errorf("capped count = %d, want 10", results[0].Values[0].Count)
	}
}

func TestASeqRejectsUnsupportedFeatures(t *testing.T) {
	var unsup baselines.ErrUnsupported
	nextPlan := core.MustPlan(query.MustParse("RETURN COUNT(*) PATTERN A+ SEMANTICS skip-till-next-match WITHIN 10 SLIDE 10"))
	if _, err := New(nextPlan).Run(nil); !errors.As(err, &unsup) {
		t.Errorf("NEXT: %v", err)
	}
	adjPlan := anyPlan("PATTERN A+ WHERE A.x < NEXT(A).x")
	if _, err := New(adjPlan).Run(nil); !errors.As(err, &unsup) {
		t.Errorf("adjacent predicates: %v", err)
	}
	negPlan := anyPlan("PATTERN SEQ(A+, NOT(N), B)")
	if _, err := New(negPlan).Run(nil); !errors.As(err, &unsup) {
		t.Errorf("negation: %v", err)
	}
}

func TestASeqSlotPathMatchesFastPathSemantics(t *testing.T) {
	// The alias-equivalence (slot) path and the fast path must agree
	// with COGRA; exercised on the shared-type pattern.
	slotPlan := anyPlan("PATTERN SEQ(S A+, S B+) WHERE [A.c] GROUP-BY A.c")
	events := []*event.Event{
		event.New("S", 1).WithSym("c", "x"),
		event.New("S", 2).WithSym("c", "y"),
		event.New("S", 3).WithSym("c", "x"),
		event.New("S", 4).WithSym("c", "y"),
	}
	clone := func() []*event.Event {
		out := make([]*event.Event, len(events))
		for i, e := range events {
			out[i] = e.Clone()
		}
		return out
	}
	got, err := New(slotPlan).Run(clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := baselines.NewCogra(slotPlan).Run(clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results: %v vs %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("result %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestASeqStateGrowsWithFlattening pins the paper's point: A-Seq's
// memory grows with the number of flattened queries, i.e. with the
// trend length bound (Figure 8b).
func TestASeqStateGrowsWithFlattening(t *testing.T) {
	plan := anyPlan("PATTERN A+")
	peak := func(maxLen int) int64 {
		r := New(plan)
		r.MaxLen = maxLen
		var acct metrics.Accountant
		r.Acct = &acct
		if _, err := r.Run(aEvents(30)); err != nil {
			t.Fatal(err)
		}
		return acct.Peak()
	}
	if p10, p30 := peak(10), peak(30); p30 < 4*p10 {
		t.Errorf("state did not grow with flattening: %d -> %d", p10, p30)
	}
}

func TestASeqBudgetDNF(t *testing.T) {
	plan := anyPlan("PATTERN A+")
	r := New(plan)
	r.BudgetUnits = 50
	_, err := r.Run(aEvents(40))
	var dnf baselines.ErrBudget
	if !errors.As(err, &dnf) {
		t.Fatalf("err = %v", err)
	}
}

func TestASeqSimultaneousEventsDoNotChain(t *testing.T) {
	plan := anyPlan("PATTERN A+")
	events := []*event.Event{event.New("A", 1), event.New("A", 1)}
	results, err := New(plan).Run(events)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Values[0].Count != 2 {
		t.Errorf("count = %d, want 2 (no pair across equal time stamps)", results[0].Values[0].Count)
	}
}

// TestASeqRunAllocatesPerWindow: the flattened workload's counters are
// allocated once per window and every extension goes through one
// scratch node, so a Run's allocations follow its windows, not its
// events. SEQ(A+, B) with MaxLen 12 flattens into 11 sequence queries;
// before the scratch node a 200-event window cost 22,546 allocations,
// two per (event, flattened position).
func TestASeqRunAllocatesPerWindow(t *testing.T) {
	allocs := func(n int, window string) float64 {
		plan := core.MustPlan(query.MustParse("RETURN COUNT(*), SUM(A.x) PATTERN SEQ(A+, B) " + window))
		events := make([]*event.Event, n)
		for i := range events {
			typ := "A"
			if i%4 == 3 {
				typ = "B"
			}
			events[i] = event.New(typ, int64(i+1)).WithNum("x", float64(i%7))
		}
		r := New(plan)
		r.MaxLen = 12
		return testing.AllocsPerRun(3, func() {
			if _, err := r.Run(events); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(200, "WITHIN 1000 SLIDE 1000")
	if more := allocs(800, "WITHIN 1000 SLIDE 1000"); more > one+4 {
		t.Errorf("one window: %v allocations over 200 events, %v over 800; the events should cost none", one, more)
	}
	if four := allocs(200, "WITHIN 50 SLIDE 50"); four > 4*one {
		t.Errorf("200 events: %v allocations in one window, %v in four; want at most four times one", one, four)
	}
}
