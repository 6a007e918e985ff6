package predicate

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		l, r float64
		op   Op
		want bool
	}{
		{1, 2, Lt, true}, {2, 2, Lt, false},
		{2, 2, Le, true}, {3, 2, Le, false},
		{3, 2, Gt, true}, {2, 2, Gt, false},
		{2, 2, Ge, true}, {1, 2, Ge, false},
		{2, 2, Eq, true}, {1, 2, Eq, false},
		{1, 2, Ne, true}, {2, 2, Ne, false},
	}
	for _, c := range cases {
		if got := Compare(c.l, c.r, c.op); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestCompareString(t *testing.T) {
	if !Compare("abc", "abd", Lt) || !Compare("x", "x", Eq) || Compare("x", "x", Ne) {
		t.Error("string comparison wrong")
	}
}

func TestCompareMixedKinds(t *testing.T) {
	if Compare(1.0, "1", Eq) {
		t.Error("number equals string")
	}
	if !Compare(1.0, "1", Ne) {
		t.Error("number should be Ne string")
	}
	if Compare(nil, 1.0, Lt) {
		t.Error("nil ordered")
	}
	if !Compare(nil, nil, Ne) {
		t.Error("unknown kinds should satisfy Ne only")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		lt := Compare(a, b, Lt)
		gt := Compare(a, b, Gt)
		eq := Compare(a, b, Eq)
		// Exactly one of <, >, = holds for ordered doubles (NaN aside).
		if a != a || b != b {
			return true
		}
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1 && Compare(a, b, Le) == (lt || eq) && Compare(a, b, Ge) == (gt || eq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalPredicate(t *testing.T) {
	// M.activity = passive (query q1).
	p := Local{Alias: "M", Attr: "activity", Op: Eq, Value: "passive"}
	passive := event.New("Measurement", 1).WithSym("activity", "passive")
	active := event.New("Measurement", 2).WithSym("activity", "running")
	if !p.Eval("M", passive) {
		t.Error("passive rejected")
	}
	if p.Eval("M", active) {
		t.Error("active accepted")
	}
	// Predicate scoped to another alias passes vacuously.
	if !p.Eval("X", active) {
		t.Error("unrelated alias constrained")
	}
	// Missing attribute fails.
	if p.Eval("M", event.New("Measurement", 3)) {
		t.Error("missing attribute accepted")
	}
}

func TestLocalNumeric(t *testing.T) {
	p := Local{Alias: "", Attr: "price", Op: Gt, Value: 100.0}
	if !p.Eval("A", event.New("Stock", 1).WithNum("price", 101)) {
		t.Error("101 > 100 rejected")
	}
	if p.Eval("A", event.New("Stock", 1).WithNum("price", 99)) {
		t.Error("99 > 100 accepted")
	}
}

func TestAdjacentPredicate(t *testing.T) {
	// M.rate < NEXT(M).rate (query q1).
	p := Adjacent{Left: "M", LeftAttr: "rate", Op: Lt, Right: "M", RightAttr: "rate"}
	lo := event.New("Measurement", 1).WithNum("rate", 60)
	hi := event.New("Measurement", 2).WithNum("rate", 70)
	if !p.Eval(lo, hi) {
		t.Error("increasing pair rejected")
	}
	if p.Eval(hi, lo) {
		t.Error("decreasing pair accepted")
	}
	if !p.Guards("M", "M") || p.Guards("M", "X") || p.Guards("X", "M") {
		t.Error("Guards wrong")
	}
	if p.Eval(event.New("Measurement", 1), hi) {
		t.Error("missing attribute accepted")
	}
}

func TestSetEvalLocalAndAdjacent(t *testing.T) {
	s := &Set{
		Locals: []Local{
			{Alias: "M", Attr: "activity", Op: Eq, Value: "passive"},
			{Attr: "rate", Op: Gt, Value: 0.0},
		},
		Adjacents: []Adjacent{
			{Left: "M", LeftAttr: "rate", Op: Lt, Right: "M", RightAttr: "rate"},
		},
	}
	ok := event.New("Measurement", 1).WithSym("activity", "passive").WithNum("rate", 60)
	ok2 := event.New("Measurement", 2).WithSym("activity", "passive").WithNum("rate", 65)
	bad := event.New("Measurement", 3).WithSym("activity", "running").WithNum("rate", 61)
	if !s.EvalLocal("M", ok) || s.EvalLocal("M", bad) {
		t.Error("EvalLocal wrong")
	}
	if !s.EvalAdjacent("M", ok, "M", ok2) {
		t.Error("increasing adjacency rejected")
	}
	if s.EvalAdjacent("M", ok2, "M", ok) {
		t.Error("decreasing adjacency accepted")
	}
	// Pair not guarded by any adjacent predicate passes.
	if !s.EvalAdjacent("X", ok2, "Y", ok) {
		t.Error("unguarded pair rejected")
	}
}

type fakeFSA map[string][]string

func (f fakeFSA) PredTypes(alias string) []string { return f[alias] }

func TestEventGrainedAliases(t *testing.T) {
	// Pattern (SEQ(A+,B))+: predTypes(A)={A,B}, predTypes(B)={A}.
	fsa := fakeFSA{"A": {"A", "B"}, "B": {"A"}}

	// Paper Example 6: predicates restrict adjacency between b's and
	// following a's -> event-grained counts for B, type-grained for A.
	s := &Set{Adjacents: []Adjacent{
		{Left: "B", LeftAttr: "x", Op: Lt, Right: "A", RightAttr: "x"},
	}}
	got := s.EventGrainedAliases(fsa)
	if !reflect.DeepEqual(got, map[string]bool{"B": true}) {
		t.Errorf("EventGrainedAliases = %v, want {B}", got)
	}

	// A predicate whose left alias is NOT a predecessor of the right
	// alias does not force event-grained storage (Theorem 5.1).
	s2 := &Set{Adjacents: []Adjacent{
		{Left: "B", LeftAttr: "x", Op: Lt, Right: "B", RightAttr: "x"},
	}}
	if got := s2.EventGrainedAliases(fsa); len(got) != 0 {
		t.Errorf("non-predecessor adjacency stored: %v", got)
	}

	// No adjacent predicates -> empty Te (type-grained for everything).
	if got := (&Set{}).EventGrainedAliases(fsa); len(got) != 0 {
		t.Errorf("empty set produced %v", got)
	}
}

func TestSetStringAndClone(t *testing.T) {
	s := &Set{
		Locals:       []Local{{Alias: "M", Attr: "activity", Op: Eq, Value: "passive"}},
		Equivalences: []Equivalence{{Attr: "patient"}},
		Adjacents:    []Adjacent{{Left: "M", LeftAttr: "rate", Op: Lt, Right: "M", RightAttr: "rate"}},
	}
	want := `[patient] AND M.activity = "passive" AND M.rate < NEXT(M).rate`
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (&Set{}).String(); got != "true" {
		t.Errorf("empty String = %q", got)
	}
	if !s.HasAdjacent() || (&Set{}).HasAdjacent() {
		t.Error("HasAdjacent wrong")
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "=", Ne: "!="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "?" {
		t.Error("unknown op should render ?")
	}
}
