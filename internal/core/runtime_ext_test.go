package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/runtime"
)

// hostAll hosts each plan on a runtime over cat, the first with opts.
func hostAll(t *testing.T, cat *core.Catalog, opts []core.Option, plans ...*core.Plan) *runtime.Runtime {
	t.Helper()
	rt := runtime.NewOn(cat)
	for i, p := range plans {
		var o []core.Option
		if i == 0 {
			o = opts
		}
		if _, err := rt.SubscribePlan(p, o...); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

func planIn(t *testing.T, cat *core.Catalog, src string) *core.Plan {
	t.Helper()
	p, err := core.NewPlanIn(cat, query.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEventBytesMatchesFootprintInRuntime is TestEventBytesMatchesFootprint
// through a Runtime whose catalog also hosts a plan that reads more
// attributes: the runtime resolves the union of both, and the
// accountant of the plan under test equals a walk-charged twin's after
// every event.
func TestEventBytesMatchesFootprintInRuntime(t *testing.T) {
	for _, q := range core.EventBytesQueries() {
		t.Run(q[0], func(t *testing.T) {
			cat := core.NewCatalog()
			plan := planIn(t, cat, q[1])
			wide := planIn(t, cat, core.EventBytesWide)
			var acct, walkAcct metrics.Accountant
			rt := hostAll(t, cat, []core.Option{core.WithAccountant(&acct)}, plan, wide)
			walk := hostAll(t, cat, []core.Option{core.WithAccountant(&walkAcct)}, core.WalkCharged(plan), wide)
			for i, ev := range core.EventBytesStream() {
				if err := rt.ProcessBatch([]*event.Event{ev.Clone()}); err != nil {
					t.Fatal(err)
				}
				if err := walk.ProcessBatch([]*event.Event{ev.Clone()}); err != nil {
					t.Fatal(err)
				}
				if acct.Current() != walkAcct.Current() || acct.Peak() != walkAcct.Peak() {
					t.Fatalf("event %d %v: accountant %d/%d, walk-charged %d/%d",
						i, ev, acct.Current(), acct.Peak(), walkAcct.Current(), walkAcct.Peak())
				}
			}
			if acct.Peak() == 0 {
				t.Fatal("nothing was charged; the comparison is vacuous")
			}
			if got, want := fmt.Sprint(rt.Close()), fmt.Sprint(walk.Close()); got != want {
				t.Fatalf("results differ\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestDualKindAttributeAcrossPlans: events carrying v in both maps, fed
// to plans that read v numerically only, symbolically, and through a
// string constant. On one catalog v is symNeeded and resolves from both
// maps; a numeric plan's private catalog resolves it from the number
// alone. Every reader takes the number first, so the rows agree with
// the private-catalog engines and with the counts derived by hand.
func TestDualKindAttributeAcrossPlans(t *testing.T) {
	cases := []struct{ src, want string }{
		// Increasing A subsequences {1} {2} {0} {1,2}, each closed by B.
		{`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) WHERE A.v < NEXT(A).v WITHIN 100 SLIDE 100`,
			"[window [0,100): COUNT(*)=4, SUM(A.v)=6]"},
		// Partition "x" holds A@1, A@2 and B@4: {1} {2} {1,2}, closed by B.
		{`RETURN v, COUNT(*) PATTERN SEQ(A+, B) WHERE [v] GROUP-BY v WITHIN 100 SLIDE 100`,
			"[window [0,100) group=(x): COUNT(*)=3]"},
		// v reads as a number first, and a number never equals 'x'.
		{`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE A.v = 'x' WITHIN 100 SLIDE 100`, "[]"},
	}
	cat := core.NewCatalog()
	var plans []*core.Plan
	for _, c := range cases {
		plans = append(plans, planIn(t, cat, c.src))
	}
	rt := hostAll(t, cat, nil, plans...)
	for _, ev := range core.DualKindStream() {
		if err := rt.ProcessBatch([]*event.Event{ev.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	shared := rt.Close()
	for i, c := range cases {
		eng := core.NewEngine(core.MustPlan(query.MustParse(c.src)))
		for _, ev := range core.DualKindStream() {
			if err := eng.Process(ev.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		private := fmt.Sprint(eng.Close())
		if private != c.want {
			t.Errorf("query %d, private catalog: %s, want %s", i, private, c.want)
		}
		if got := fmt.Sprint(shared[i]); got != c.want {
			t.Errorf("query %d, shared catalog: %s, want %s", i, got, c.want)
		}
	}
}
