package baselines_test

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

// extenderPlan returns all six functions over A; no spec targets B.
func extenderPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.NewPlan(query.MustParse(`RETURN COUNT(*), COUNT(A), MIN(A.x), MAX(A.x), SUM(A.x), AVG(A.x)
		PATTERN SEQ(A+, B) WITHIN 10 SLIDE 10`))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func xEvent(ts int64, x float64) *event.Event { return event.New("A", ts).WithNum("x", x) }

// TestExtenderExtend pins Extend to hand-derived Table 8 values: pred
// holds 2 trends with COUNT(A) 3, MIN 3, MAX 5 and SUM 8.
func TestExtenderExtend(t *testing.T) {
	plan := extenderPlan(t)
	x := baselines.NewExtender(plan)
	pred := agg.Node{Count: 2, Aux: []agg.Aux{{}, {N: 3},
		{F: 3, Valid: true}, {F: 5, Valid: true}, {F: 8, Valid: true}, {N: 3, F: 8, Valid: true}}}
	cases := []struct {
		name    string
		alias   string
		e       *event.Event
		started uint64
		want    string
	}{
		{"A starts a trend", "A", xEvent(1, 4), 1,
			"COUNT(*)=3, COUNT(A)=6, MIN(A.x)=3, MAX(A.x)=5, SUM(A.x)=20, AVG(A.x)=3.3333333333333335"},
		{"A lowers MIN", "A", xEvent(1, 1), 0,
			"COUNT(*)=2, COUNT(A)=5, MIN(A.x)=1, MAX(A.x)=5, SUM(A.x)=10, AVG(A.x)=2"},
		{"A without x counts but adds no value", "A", event.New("A", 1), 0,
			"COUNT(*)=2, COUNT(A)=5, MIN(A.x)=3, MAX(A.x)=5, SUM(A.x)=8, AVG(A.x)=1.6"},
		{"B is no spec's alias", "B", event.New("B", 1).WithNum("x", 100), 0,
			"COUNT(*)=2, COUNT(A)=3, MIN(A.x)=3, MAX(A.x)=5, SUM(A.x)=8, AVG(A.x)=2.6666666666666665"},
	}
	var kept []agg.Node
	for _, c := range cases {
		out := x.Extend(pred, c.alias, c.e, c.started)
		if got := agg.FormatValues(plan.Specs.Report(out)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
		kept = append(kept, out)
	}
	if pred.Count != 2 || pred.Aux[1].N != 3 || pred.Aux[4].F != 8 {
		t.Errorf("Extend mutated pred: %+v", pred)
	}
	// GRETA and A-Seq keep what Extend returns: each node owns its Aux.
	if kept[0].Aux[1].N != 6 || kept[1].Aux[2].F != 1 {
		t.Errorf("a later Extend overwrote an earlier node: %+v %+v", kept[0], kept[1])
	}
	// An A event without x leaves MIN, MAX and SUM of a fresh trend unset.
	out := x.Extend(plan.Specs.Zero(), "A", event.New("A", 1), 1)
	want := "COUNT(*)=1, COUNT(A)=1, MIN(A.x)=null, MAX(A.x)=null, SUM(A.x)=null, AVG(A.x)=null"
	if got := agg.FormatValues(plan.Specs.Report(out)); got != want {
		t.Errorf("fresh trend without x: %s, want %s", got, want)
	}
}

// TestExtenderFold pins Fold to a hand-derived trend: a3 a a5 b100,
// whose second A event carries no x.
func TestExtenderFold(t *testing.T) {
	plan := extenderPlan(t)
	x := baselines.NewExtender(plan)
	aliases := []string{"A", "A", "A", "B"}
	events := []*event.Event{xEvent(1, 3), event.New("A", 2), xEvent(3, 5),
		event.New("B", 4).WithNum("x", 100)}
	want := "COUNT(*)=1, COUNT(A)=3, MIN(A.x)=3, MAX(A.x)=5, SUM(A.x)=8, AVG(A.x)=2.6666666666666665"
	for i := range 2 { // a second fold over the reused scratch is the same
		if got := agg.FormatValues(plan.Specs.Report(x.Fold(aliases, events))); got != want {
			t.Errorf("fold %d: %s, want %s", i, got, want)
		}
	}
	want = "COUNT(*)=1, COUNT(A)=1, MIN(A.x)=7, MAX(A.x)=7, SUM(A.x)=7, AVG(A.x)=7"
	if got := agg.FormatValues(plan.Specs.Report(x.Fold(aliases[:1], []*event.Event{xEvent(1, 7)}))); got != want {
		t.Errorf("one-event fold: %s, want %s", got, want)
	}
}

// TestExtenderFoldAllocatesNothing: a warm Fold reuses its scratch
// nodes and passes its source by pointer.
func TestExtenderFoldAllocatesNothing(t *testing.T) {
	x := baselines.NewExtender(extenderPlan(t))
	aliases := []string{"A", "A", "B"}
	events := []*event.Event{xEvent(1, 3), xEvent(2, 5), event.New("B", 3)}
	x.Fold(aliases, events)
	if n := testing.AllocsPerRun(100, func() { x.Fold(aliases, events) }); n != 0 {
		t.Errorf("warm Fold allocates %v times, want 0", n)
	}
}
