// Cross-validation of every execution strategy: COGRA's three
// granularities must return exactly the same aggregates as the
// two-step oracle (SASE) and, where their expressive power suffices
// (Table 9), as GRETA, A-Seq and Flink. This is the paper's
// correctness criterion: "the same aggregates must be returned as by
// the two-step approach".
package baselines_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/baselines/aseq"
	"repro/internal/baselines/flinklite"
	"repro/internal/baselines/greta"
	"repro/internal/baselines/sase"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fuzz/diff"
	"repro/internal/gen"
	"repro/internal/query"
)

// figure2Events is the stream of Figure 2: a1 b2 a3 a4 c5 b6 a7 b8.
func figure2Events() []*event.Event {
	var out []*event.Event
	for _, s := range []struct {
		typ string
		t   int64
	}{{"A", 1}, {"B", 2}, {"A", 3}, {"A", 4}, {"C", 5}, {"B", 6}, {"A", 7}, {"B", 8}} {
		out = append(out, event.New(s.typ, s.t).WithNum("x", float64(s.t)))
	}
	return out
}

func figure2Query(sem query.Semantics) *query.Query {
	return query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS " + sem.String() + " WITHIN 100 SLIDE 100")
}

// TestFigure2TrendCounts checks the materialised trend sets of the
// running example: 43 trends under ANY, 8 under NEXT, 2 under CONT.
func TestFigure2TrendCounts(t *testing.T) {
	want := map[query.Semantics]int{query.Any: 43, query.Next: 8, query.Cont: 2}
	for sem, n := range want {
		plan := core.MustPlan(figure2Query(sem))
		trends, err := sase.EnumerateWindow(plan, figure2Events(), 0)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if len(trends) != n {
			t.Errorf("%v: %d trends, want %d", sem, len(trends), n)
		}
		// Every trend must be accepted by the pattern language.
		for _, tr := range trends {
			if !plan.FSA.AcceptsAliasSeq(tr.Aliases) {
				t.Errorf("%v: enumerated trend %v not in pattern language", sem, tr.Aliases)
			}
		}
	}
}

// TestFigure2ContiguousTrends pins the exact CONT trends (Example 4).
func TestFigure2ContiguousTrends(t *testing.T) {
	plan := core.MustPlan(figure2Query(query.Cont))
	trends, err := sase.EnumerateWindow(plan, figure2Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tr := range trends {
		key := ""
		for _, e := range tr.Events {
			key += fmt.Sprintf("%s%d", e.Type, e.Time)
		}
		got[key] = true
	}
	if !got["A1B2"] || !got["A7B8"] || len(got) != 2 {
		t.Errorf("CONT trends = %v, want {A1B2, A7B8}", got)
	}
}

// runAll executes every runner that supports the query and compares
// all results against COGRA's.
func runAll(t *testing.T, q *query.Query, events []*event.Event, tag string) {
	t.Helper()
	plan, err := core.NewPlan(q)
	if err != nil {
		t.Fatalf("%s: plan: %v", tag, err)
	}
	ref, err := baselines.NewCogra(plan).Run(cloneEvents(events))
	if err != nil {
		t.Fatalf("%s: COGRA: %v", tag, err)
	}
	runners := []baselines.Runner{
		sase.New(plan),
		greta.New(plan),
		aseq.New(plan),
		flinklite.New(plan),
	}
	for _, r := range runners {
		// Oracle selection reads the Table 9 capability row; an
		// ErrUnsupported from Run after the row said yes (or a success
		// after it said no) would be a capability-table bug, so it is
		// a test failure below, not a skip.
		if r.Capabilities().Supports(plan) != nil {
			if _, err := r.Run(cloneEvents(events)); !errors.As(err, new(baselines.ErrUnsupported)) {
				t.Errorf("%s: %s: capability row disclaims the query but Run returned %v",
					tag, r.Name(), err)
			}
			continue
		}
		got, err := r.Run(cloneEvents(events))
		if err != nil {
			t.Errorf("%s: %s: %v", tag, r.Name(), err)
			continue
		}
		if diff.Compare(got, ref, 0) != "" {
			t.Errorf("%s: %s disagrees with COGRA:\nCOGRA: %v\n%s: %v",
				tag, r.Name(), fmtResults(ref), r.Name(), fmtResults(got))
		}
	}
}

func cloneEvents(events []*event.Event) []*event.Event {
	out := make([]*event.Event, len(events))
	for i, e := range events {
		c := e.Clone()
		c.ID = 0 // fresh IDs per run
		out[i] = c
	}
	return out
}

func fmtResults(rs []core.Result) string {
	s := ""
	for _, r := range rs {
		s += "\n  " + r.String()
	}
	if s == "" {
		return "(none)"
	}
	return s
}

// TestCrossCheckFigure2 compares all approaches on the running
// example under every semantics.
func TestCrossCheckFigure2(t *testing.T) {
	for _, sem := range []query.Semantics{query.Any, query.Next, query.Cont} {
		runAll(t, figure2Query(sem), figure2Events(), sem.String())
	}
}

// TestCrossCheckAggregateFunctions exercises every aggregation
// function across approaches.
func TestCrossCheckAggregateFunctions(t *testing.T) {
	q := query.MustParse(`RETURN COUNT(*), COUNT(A), MIN(A.x), MAX(B.x), SUM(A.x), AVG(B.x)
		PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100`)
	runAll(t, q, figure2Events(), "all-aggs")
}

// randomStream builds a reproducible random stream over the given
// event types with numeric attribute x, symbolic attributes k
// (partition) and c (company).
func randomStream(rng *rand.Rand, types []string, n int, tieProb float64) []*event.Event {
	var out []*event.Event
	tm := int64(0)
	for i := 0; i < n; i++ {
		if i == 0 || rng.Float64() >= tieProb {
			tm += 1 + int64(rng.Intn(3))
		}
		e := event.New(types[rng.Intn(len(types))], tm).
			WithNum("x", float64(rng.Intn(6))).
			WithSym("k", fmt.Sprintf("g%d", rng.Intn(2))).
			WithSym("c", fmt.Sprintf("c%d", rng.Intn(2)))
		out = append(out, e)
	}
	return out
}

// queryCase is one randomized query configuration.
type queryCase struct {
	name    string
	pattern string
	types   []string
	// allowedSems filters semantics (multi-alias patterns cannot run
	// under NEXT/CONT).
	sems []query.Semantics
	// aliasForPreds is the alias used for adjacent/local predicates.
	predAlias string
}

func patternCases() []queryCase {
	all := []query.Semantics{query.Any, query.Next, query.Cont}
	return []queryCase{
		{
			name:      "kleene-single",
			pattern:   "A+",
			types:     []string{"A", "C"},
			sems:      all,
			predAlias: "A",
		},
		{
			name:      "seq-kleene",
			pattern:   "SEQ(A+, B)",
			types:     []string{"A", "B", "C"},
			sems:      all,
			predAlias: "A",
		},
		{
			name:      "figure2",
			pattern:   "(SEQ(A+, B))+",
			types:     []string{"A", "B", "C"},
			sems:      all,
			predAlias: "A",
		},
		{
			name:      "nested-kleene",
			pattern:   "SEQ(A, (SEQ(B, C))+, D)",
			types:     []string{"A", "B", "C", "D"},
			sems:      all,
			predAlias: "B",
		},
		{
			name:      "shared-type",
			pattern:   "SEQ(S A+, S B+)",
			types:     []string{"S", "C"},
			sems:      []query.Semantics{query.Any},
			predAlias: "A",
		},
		{
			name:      "disjunction",
			pattern:   "OR(SEQ(A, B), C+)",
			types:     []string{"A", "B", "C", "D"},
			sems:      all,
			predAlias: "C",
		},
		{
			name:      "negation",
			pattern:   "SEQ(A+, NOT(N), B)",
			types:     []string{"A", "B", "N", "C"},
			sems:      all,
			predAlias: "A",
		},
		{
			name:      "star",
			pattern:   "SEQ(A, B*, C)",
			types:     []string{"A", "B", "C"},
			sems:      all,
			predAlias: "B",
		},
		{
			name:      "optional",
			pattern:   "SEQ(A+, B?, C)",
			types:     []string{"A", "B", "C", "D"},
			sems:      all,
			predAlias: "A",
		},
	}
}

// TestRandomizedCrossCheck is the main property test: hundreds of
// random (stream, query) pairs across patterns, semantics, predicates,
// groupings, windows and tie densities; every supporting approach must
// agree with COGRA exactly.
func TestRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20190610))
	cases := patternCases()
	iterations := 60
	if testing.Short() {
		iterations = 12
	}
	for iter := 0; iter < iterations; iter++ {
		for _, pc := range cases {
			sem := pc.sems[rng.Intn(len(pc.sems))]
			tag := fmt.Sprintf("iter%d/%s/%s", iter, pc.name, sem)

			// Aggregates: COUNT(*) always, plus a random extra.
			a := pc.predAlias
			returns := "COUNT(*)"
			switch rng.Intn(5) {
			case 1:
				returns += ", COUNT(" + a + ")"
			case 2:
				returns += ", MIN(" + a + ".x)"
			case 3:
				returns += ", SUM(" + a + ".x)"
			case 4:
				returns += ", AVG(" + a + ".x)"
			}
			// Random predicates.
			var where, groupBy []string
			if rng.Intn(3) == 0 {
				where = append(where, a+".x > 1")
			}
			if rng.Intn(3) == 0 {
				where = append(where, a+".x <= NEXT("+a+").x")
			}
			if rng.Intn(3) == 0 {
				where, groupBy = append(where, "[k]"), append(groupBy, "k")
			}
			if sem == query.Any && pc.name == "shared-type" && rng.Intn(2) == 0 {
				where, groupBy = append(where, "[A.c]"), append(groupBy, "A.c")
			}
			src := "RETURN " + returns + " PATTERN " + pc.pattern + " SEMANTICS " + sem.String()
			if len(where) > 0 {
				src += " WHERE " + strings.Join(where, " AND ")
			}
			if len(groupBy) > 0 {
				src += " GROUP-BY " + strings.Join(groupBy, ", ")
			}
			// Random window.
			windows := [][2]int64{{100, 100}, {10, 5}, {6, 3}, {7, 7}}
			w := windows[rng.Intn(len(windows))]
			src += fmt.Sprintf(" WITHIN %d SLIDE %d", w[0], w[1])

			q, err := query.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse: %v", tag, err)
			}
			if _, err := core.NewPlan(q); err != nil {
				continue // combination rejected by the planner (expected)
			}
			n := 6 + rng.Intn(9) // keep the oracle's exponential cost sane
			events := randomStream(rng, pc.types, n, 0.15)
			runAll(t, q, events, tag)
		}
	}
}

// TestCrossCheckSlidingWindows uses overlapping windows specifically.
func TestCrossCheckSlidingWindows(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.x) PATTERN SEQ(A+, B) WITHIN 6 SLIDE 2")
	rng := rand.New(rand.NewSource(7))
	events := randomStream(rng, []string{"A", "B"}, 20, 0)
	runAll(t, q, events, "sliding")
}

// TestCrossCheckGrouping uses the q1 shape: partitioned contiguous
// trends with MIN/MAX.
func TestCrossCheckGrouping(t *testing.T) {
	q := query.MustParse(`
		RETURN patient, MIN(M.rate), MAX(M.rate), COUNT(*)
		PATTERN Measurement M+
		SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate
		GROUP-BY patient
		WITHIN 50 SLIDE 25`)
	rng := rand.New(rand.NewSource(11))
	var events []*event.Event
	tm := int64(0)
	for i := 0; i < 40; i++ {
		tm += int64(1 + rng.Intn(2))
		events = append(events, event.New("Measurement", tm).
			WithSym("patient", fmt.Sprintf("p%d", rng.Intn(3))).
			WithNum("rate", float64(50+rng.Intn(40))))
	}
	runAll(t, q, events, "q1-grouping")
}

// TestCrossCheckManySlots uses three alias-scoped equivalence
// predicates, exercising the engine's interned-vector binding keys
// (more than two slots cannot be packed into one word).
func TestCrossCheckManySlots(t *testing.T) {
	q := query.MustParse(`RETURN COUNT(*), SUM(B.x) PATTERN SEQ(A+, B+, C+)
		WHERE [A.c] AND [B.c] AND [C.k] GROUP-BY A.c, C.k WITHIN 20 SLIDE 10`)
	rng := rand.New(rand.NewSource(3))
	events := randomStream(rng, []string{"A", "B", "C"}, 14, 0.1)
	runAll(t, q, events, "many-slots")
}

// TestCrossCheckNumericEquivalence partitions and binds on a numeric
// attribute, exercising the SymAttr numeric-fallback formatting in
// both the partition keys and the interned binding slots.
func TestCrossCheckNumericEquivalence(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [x] AND [A.c] GROUP-BY x WITHIN 100 SLIDE 100")
	rng := rand.New(rand.NewSource(5))
	events := randomStream(rng, []string{"A", "B"}, 16, 0.1)
	runAll(t, q, events, "numeric-equivalence")
}

// TestCrossCheckEmptyStringSlotValue pins the unbound semantics of
// empty-valued equivalence attributes: an empty slot value leaves the
// slot unbound (it cannot be distinguished from "never bound"), and an
// empty-valued event cannot extend a binding whose slot is non-empty.
// The interned binding keys must agree with every baseline here.
func TestCrossCheckEmptyStringSlotValue(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [A.c] WITHIN 100 SLIDE 100")
	events := []*event.Event{
		event.New("A", 1).WithSym("c", ""),
		event.New("A", 2).WithSym("c", "x"),
		event.New("A", 3).WithSym("c", ""),
		event.New("B", 4),
	}
	runAll(t, q, events, "empty-slot-value")
}

// TestCrossCheckGroupTupleWithNUL holds COGRA, SASE and GRETA to
// spelled-out rows where partition, binding and GROUP-BY values hold
// NUL: values that NUL-joined spell one string, or split at the NUL
// into another tuple, stay apart. A shared tuple encoding would make
// every approach wrong together, so each is checked against the rows
// and not only against COGRA.
func TestCrossCheckGroupTupleWithNUL(t *testing.T) {
	// A row renders as its quoted group tuple and COUNT(*).
	rows := func(rs []core.Result) []string {
		var out []string
		for _, r := range rs {
			out = append(out, fmt.Sprintf("%q %d", r.Group, r.Values[0].Count))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		src    string
		events []*event.Event
		want   []string
	}{
		{
			name: "partition value",
			src: `RETURN k, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match
				WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`,
			events: []*event.Event{
				event.New("A", 1).WithSym("k", "a\x00b"),
				event.New("A", 2).WithSym("k", "a\x00c"),
				event.New("A", 3).WithSym("k", "a"),
				event.New("A", 4).WithSym("k", "a\x00b"),
			},
			want: []string{`["a"] 1`, `["a\x00b"] 3`, `["a\x00c"] 1`},
		},
		{
			name: "slot tuple",
			src: `RETURN A.b, A.c, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match
				WHERE [A.b] AND [A.c] GROUP-BY A.b, A.c WITHIN 10 SLIDE 10`,
			events: []*event.Event{
				event.New("A", 1).WithSym("b", "x\x00y").WithSym("c", "z"),
				event.New("A", 2).WithSym("b", "x").WithSym("c", "y\x00z"),
				event.New("A", 3).WithSym("b", "x\x00y").WithSym("c", "z"),
			},
			want: []string{`["x" "y\x00z"] 1`, `["x\x00y" "z"] 3`},
		},
	} {
		q := query.MustParse(c.src)
		plan, err := core.NewPlan(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", c.name, err)
		}
		for _, r := range []baselines.Runner{baselines.NewCogra(plan), sase.New(plan), greta.New(plan)} {
			got, err := r.Run(cloneEvents(c.events))
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, r.Name(), err)
			}
			if g := rows(got); !slices.Equal(g, c.want) {
				t.Errorf("%s: %s reports %v, want %v", c.name, r.Name(), g, c.want)
			}
		}
		runAll(t, q, c.events, c.name)
	}
}

// TestBudgetDNF verifies the DNF mechanism trips for the exponential
// oracle on a hostile stream while COGRA sails through.
func TestBudgetDNF(t *testing.T) {
	q := figure2Query(query.Any)
	plan := core.MustPlan(q)
	var events []*event.Event
	for i := int64(1); i <= 40; i++ {
		typ := "A"
		if i%5 == 0 {
			typ = "B"
		}
		events = append(events, event.New(typ, i))
	}
	r := sase.New(plan)
	r.BudgetUnits = 10_000
	_, err := r.Run(events)
	var dnf baselines.ErrBudget
	if !errors.As(err, &dnf) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if _, err := baselines.NewCogra(plan).Run(cloneEvents(events)); err != nil {
		t.Fatalf("COGRA failed on the same stream: %v", err)
	}
}

// TestUnsupportedFeatureErrors pins Table 9's expressive-power matrix.
func TestUnsupportedFeatureErrors(t *testing.T) {
	next := core.MustPlan(figure2Query(query.Next))
	cont := core.MustPlan(figure2Query(query.Cont))
	if _, err := greta.New(next).Run(nil); !isUnsupported(err) {
		t.Errorf("GRETA under NEXT: %v", err)
	}
	if _, err := aseq.New(cont).Run(nil); !isUnsupported(err) {
		t.Errorf("A-Seq under CONT: %v", err)
	}
	if _, err := flinklite.New(next).Run(nil); !isUnsupported(err) {
		t.Errorf("Flink under NEXT: %v", err)
	}
	// A-Seq rejects adjacent predicates.
	qa := query.MustParse("RETURN COUNT(*) PATTERN A+ WHERE A.x < NEXT(A).x WITHIN 10 SLIDE 10")
	if _, err := aseq.New(core.MustPlan(qa)).Run(nil); !isUnsupported(err) {
		t.Errorf("A-Seq with adjacent predicates: %v", err)
	}
}

func isUnsupported(err error) bool {
	var u baselines.ErrUnsupported
	return errors.As(err, &u)
}

// TestTable3GrowthClasses verifies the trend-count growth classes of
// Table 3 empirically via the enumerator: exponential for Kleene
// patterns under ANY, polynomial under NEXT, and linear for event
// sequence (non-Kleene) patterns under NEXT/CONT.
func TestTable3GrowthClasses(t *testing.T) {
	mkEvents := func(n int) []*event.Event {
		var out []*event.Event
		for i := 1; i <= n; i++ {
			out = append(out, event.New("A", int64(i)))
		}
		return out
	}
	count := func(sem query.Semantics, n int) int {
		q := query.MustParse("RETURN COUNT(*) PATTERN A+ SEMANTICS " + sem.String() + " WITHIN 1000 SLIDE 1000")
		trends, err := sase.EnumerateWindow(core.MustPlan(q), mkEvents(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(trends)
	}
	// ANY over A+ on n events: every non-empty subset = 2^n - 1.
	for _, n := range []int{3, 6, 10} {
		if got, want := count(query.Any, n), 1<<n-1; got != want {
			t.Errorf("ANY A+ n=%d: %d trends, want %d", n, got, want)
		}
	}
	// NEXT over A+: all contiguous chain segments = n(n+1)/2.
	for _, n := range []int{3, 6, 10} {
		if got, want := count(query.Next, n), n*(n+1)/2; got != want {
			t.Errorf("NEXT A+ n=%d: %d trends, want %d", n, got, want)
		}
	}
	// CONT over A+ with no gaps equals NEXT here.
	if got, want := count(query.Cont, 6), 21; got != want {
		t.Errorf("CONT A+ n=6: %d trends, want %d", got, want)
	}
}

// TestCrossCheckHeavyTies stresses the stream-transaction discipline:
// half the events share time stamps with their neighbours, so wrong
// handling of simultaneous events (Definition 7 demands strictly
// increasing time) diverges immediately.
func TestCrossCheckHeavyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 20; iter++ {
		for _, sem := range []query.Semantics{query.Any, query.Next, query.Cont} {
			q := query.MustParse("RETURN COUNT(*), MIN(A.x) PATTERN SEQ(A+, B) SEMANTICS " + sem.String() + " WITHIN 8 SLIDE 4")
			events := randomStream(rng, []string{"A", "B", "C"}, 12, 0.5)
			runAll(t, q, events, fmt.Sprintf("ties/iter%d/%s", iter, sem))
		}
	}
}

// TestCrossCheckGapWindows uses SLIDE > WITHIN, leaving times covered
// by no window.
func TestCrossCheckGapWindows(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN A+ WITHIN 3 SLIDE 7")
	rng := rand.New(rand.NewSource(123))
	events := randomStream(rng, []string{"A"}, 25, 0)
	runAll(t, q, events, "gap-windows")
}

// TestCrossCheckMultipleNegations combines two negated types in one
// pattern across all approaches that support negation.
func TestCrossCheckMultipleNegations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 15; iter++ {
		q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, NOT(N), B, NOT(M), C) WITHIN 100 SLIDE 100")
		events := randomStream(rng, []string{"A", "B", "C", "N", "M"}, 12, 0.1)
		runAll(t, q, events, fmt.Sprintf("multi-neg/iter%d", iter))
	}
}

// TestCrossCheckPaperQ3 runs the paper's full q3 — mixed granularity,
// alias-scoped equivalence bindings, three-key grouping, sliding
// window — against the oracle on a small market.
func TestCrossCheckPaperQ3(t *testing.T) {
	q := query.MustParse(`
		RETURN sector, A.company, B.company, AVG(B.price)
		PATTERN SEQ(Stock A+, Stock B+)
		SEMANTICS skip-till-any-match
		WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		GROUP-BY sector, A.company, B.company
		WITHIN 8 SLIDE 4`)
	rng := rand.New(rand.NewSource(21))
	var events []*event.Event
	for i := 0; i < 18; i++ {
		c := rng.Intn(3)
		events = append(events, event.New("Stock", int64(i)).
			WithSym("company", fmt.Sprintf("c%d", c)).
			WithSym("sector", fmt.Sprintf("s%d", c%2)).
			WithNum("price", float64(10+rng.Intn(20))))
	}
	runAll(t, q, events, "paper-q3")
}

// TestCrossCheckPaperQ2 runs the paper's full q2 under
// skip-till-next-match on a generated rideshare stream.
func TestCrossCheckPaperQ2(t *testing.T) {
	q := query.MustParse(`
		RETURN driver, COUNT(*)
		PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)
		SEMANTICS skip-till-next-match
		WHERE [driver] GROUP-BY driver
		WITHIN 40 SLIDE 20`)
	events := gen.Rideshare(gen.RideshareConfig{Seed: 17, Trips: 30, Drivers: 4, NoiseFraction: 0.4})
	runAll(t, q, events, "paper-q2")
}

// TestCrossCheckPaperQ1 runs the paper's full q1 (contiguous, local +
// equivalence + adjacent predicates) on generated activity data.
func TestCrossCheckPaperQ1(t *testing.T) {
	q := query.MustParse(`
		RETURN patient, MIN(M.rate), MAX(M.rate)
		PATTERN Measurement M+
		SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
		GROUP-BY patient
		WITHIN 60 SLIDE 30`)
	events := gen.Activity(gen.ActivityConfig{Seed: 13, Events: 200, Persons: 3, RunLength: 5})
	runAll(t, q, events, "paper-q1")
}
