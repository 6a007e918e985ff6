package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/snap"
)

// eventBytesQueries are the plans whose kernels charge event bytes:
// pattern-grained (the el event) and mixed (stored Te events), each
// ungrouped — so events without attributes still match and are charged —
// and grouped by g, whose partition slot is symNeeded.
var eventBytesQueries = []struct {
	name string
	src  string
	gran Granularity
}{
	{"pattern", `RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS contiguous
		WHERE A.v < NEXT(A).v WITHIN 100 SLIDE 100`, PatternGrained},
	{"pattern-grouped", `RETURN g, COUNT(*) PATTERN A+ SEMANTICS contiguous
		WHERE [g] AND A.v < NEXT(A).v GROUP-BY g WITHIN 100 SLIDE 100`, PatternGrained},
	{"mixed", `RETURN COUNT(*), SUM(A.v) PATTERN SEQ(A+, B)
		WHERE A.v < NEXT(A).v WITHIN 100 SLIDE 100`, MixedGrained},
	{"mixed-grouped", `RETURN g, COUNT(*) PATTERN SEQ(A+, B)
		WHERE [g] AND A.v < NEXT(A).v GROUP-BY g WITHIN 100 SLIDE 100`, MixedGrained},
}

// eventBytesWide reads more than every plan above: w and k, and v
// symbolically (a binding slot), which makes v symNeeded in a catalog
// both compile into.
const eventBytesWide = `RETURN k, COUNT(*), SUM(A.w) PATTERN SEQ(A+, B)
	WHERE [k] AND [A.v] GROUP-BY k WITHIN 100 SLIDE 100`

// eventBytesStream holds, for A and B alike, an event with only the
// plans' attributes, an extra Num key, an extra Sym key, one name in
// both maps, nil and empty maps, and numeric values under the symNeeded
// g (and, next to eventBytesWide, v).
func eventBytesStream() []*event.Event {
	var evs []*event.Event
	tm := int64(0)
	for _, typ := range []string{"A", "B"} {
		for i := 0; i < 2; i++ {
			at := func() int64 { tm++; return tm }
			v := float64(10*i + len(evs))
			evs = append(evs,
				event.New(typ, at()).WithNum("v", v).WithSym("g", "x"),
				event.New(typ, at()).WithNum("v", v+1).WithNum("w", 5).WithSym("g", "x"),
				event.New(typ, at()).WithNum("v", v+2).WithSym("g", "x").WithSym("k", "kk"),
				event.New(typ, at()).WithNum("v", v+3).WithSym("v", "four").WithSym("g", "x"),
				event.New(typ, at()),
				&event.Event{Type: typ, Time: at(), Num: map[string]float64{}, Sym: map[string]string{}},
				event.New(typ, at()).WithNum("v", v+4).WithNum("g", 7),
				event.New(typ, at()).WithNum("v", v+5).WithSym("v", "").WithNum("g", 7).WithNum("w", 1).WithSym("k", ""),
			)
		}
	}
	return evs
}

// rowView is the resolved view of row i of a run.
func rowView(run *ResolvedRun, i int) *resolvedVals {
	s := run.stride
	return &resolvedVals{ev: run.Events[i], num: run.num[i*s : (i+1)*s], sym: run.sym[i*s : (i+1)*s], has: run.has[i*s : (i+1)*s]}
}

// TestEventBytesMatchesFootprint: the bytes the kernels charge for an
// event, read off the plan's resolved slots, equal Event.FootprintBytes
// on every event shape — resolved over the plan's own attributes
// (Engine.Process) and over the union with a plan that reads more (what
// a Runtime resolves; runtime_ext_test.go drives a real one) — and an
// engine so charged keeps the accountant of a walk-charged one after
// every event. Nothing here may change peak_state_bytes.
func TestEventBytesMatchesFootprint(t *testing.T) {
	for _, tc := range eventBytesQueries {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.src)
			plan := MustPlan(q)
			if plan.Granularity != tc.gran {
				t.Fatalf("granularity = %v, want %v", plan.Granularity, tc.gran)
			}
			var acct, walkAcct metrics.Accountant
			eng := NewEngine(plan, WithAccountant(&acct))
			walk := NewEngine(WalkCharged(plan), WithAccountant(&walkAcct))

			cat := NewCatalog()
			shared := mustPlanIn(t, cat, tc.src)
			wide := mustPlanIn(t, cat, eventBytesWide)
			union := append(append([]int32(nil), shared.ReferencedAttrIDs()...), wide.ReferencedAttrIDs()...)
			res := NewResolver(cat)
			var run ResolvedRun

			for i, ev := range eventBytesStream() {
				want := ev.FootprintBytes()
				if err := eng.Process(ev.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := walk.Process(ev.Clone()); err != nil {
					t.Fatal(err)
				}
				own := &eng.solo.run
				own.Events = []*event.Event{ev}
				if got := plan.eventBytes(rowView(own, 0)); got != want {
					t.Errorf("event %d %v: own-attribute view charges %d bytes, FootprintBytes %d", i, ev, got, want)
				}
				if acct.Current() != walkAcct.Current() || acct.Peak() != walkAcct.Peak() {
					t.Fatalf("event %d %v: accountant %d/%d, walk-charged %d/%d",
						i, ev, acct.Current(), acct.Peak(), walkAcct.Current(), walkAcct.Peak())
				}

				tid, _ := cat.TypeID(ev.Type)
				res.ResolveRun(&run, []*event.Event{ev}, tid, union)
				if got := shared.eventBytes(rowView(&run, 0)); got != want {
					t.Errorf("event %d %v: union view charges %d bytes, FootprintBytes %d", i, ev, got, want)
				}
			}
			if acct.Peak() == 0 {
				t.Fatal("nothing was charged; the comparison is vacuous")
			}
			if got, want := fmt.Sprint(eng.Close()), fmt.Sprint(walk.Close()); got != want {
				t.Fatalf("results differ\ngot:  %s\nwant: %s", got, want)
			}
			if acct.Current() != walkAcct.Current() {
				t.Fatalf("after Close: %d bytes, walk-charged %d", acct.Current(), walkAcct.Current())
			}
		})
	}
}

func mustPlanIn(t *testing.T, cat *Catalog, src string) *Plan {
	t.Helper()
	p, err := NewPlanIn(cat, query.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dualKindStream is the stream of TestDualKindSlotCut; every event
// carries v in both maps.
func dualKindStream() []*event.Event {
	ev := func(typ string, tm int64, v float64, s string) *event.Event {
		return event.New(typ, tm).WithNum("v", v).WithSym("v", s)
	}
	return []*event.Event{ev("A", 1, 1, "x"), ev("A", 2, 2, "x"), ev("A", 3, 0, "y"), ev("B", 4, 5, "x")}
}

// TestDualKindSlotCut: an attribute no plan reads symbolically is
// resolved from the numeric map alone, so the left operand a mixed plan
// stores for an event carrying v in both maps holds only the number. A
// checkpoint cut holding such operands restores to the same state —
// re-encoding it writes the same frame — and the restored engine
// continues to the undisturbed run's results and final frame.
func TestDualKindSlotCut(t *testing.T) {
	q := query.MustParse(`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(A+, B)
		WHERE A.v < NEXT(A).v WITHIN 100 SLIDE 100`)
	stream := dualKindStream()
	feed := func(e *Engine, evs []*event.Event) {
		t.Helper()
		for _, x := range evs {
			if err := e.Process(x.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	encode := func(e *Engine) *snap.Writer {
		var w snap.Writer
		e.Code(snap.Encoder(&w), math.MaxInt64)
		return &w
	}
	frame := func(e *Engine) string {
		var b bytes.Buffer
		if err := encode(e).Frame(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const cut = 3 // A@1 and A@2 committed and stored, A@3 staged

	ref := NewEngine(MustPlan(q))
	feed(ref, stream)
	refFrame := frame(ref)
	want := fmt.Sprint(ref.Close())
	// Increasing A subsequences {1} {2} {0} {1,2}, each closed by B:
	// 4 trends, and their A.v sum to 1+2+0+3.
	if want != "[window [0,100): COUNT(*)=4, SUM(A.v)=6]" {
		t.Fatalf("undisturbed run = %s, want the hand-derived count 4 and sum 6", want)
	}

	src := NewEngine(MustPlan(q))
	feed(src, stream[:cut])
	var stored int
	for _, ws := range src.statesAt(src.lastTime) {
		for _, sa := range ws.sas {
			if sa == nil {
				continue
			}
			for _, entries := range sa.(*mixedGrained).te.stored {
				for _, se := range entries {
					stored++
					if len(se.left) != 1 || se.left[0].has != hasNum || se.left[0].sym != "" {
						t.Fatalf("stored left operand %+v, want the number alone", se.left)
					}
				}
			}
		}
	}
	if stored == 0 {
		t.Fatal("the cut holds no stored event; it proves nothing")
	}
	cutFrame := frame(src)
	r := encode(src).Reader()
	eng := NewEngine(MustPlan(q))
	eng.Code(snap.Decoder(r), math.MaxInt64)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if frame(eng) != cutFrame {
		t.Fatal("the restored engine re-encodes to a different frame")
	}
	feed(eng, stream[cut:])
	if frame(eng) != refFrame {
		t.Fatal("the restored run's final frame differs from the undisturbed run's")
	}
	if got := fmt.Sprint(eng.Close()); got != want {
		t.Fatalf("restored run = %s, undisturbed %s", got, want)
	}
}
