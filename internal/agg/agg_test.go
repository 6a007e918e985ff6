package agg

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func allSpecs() Specs {
	return Specs{
		{Func: CountStar},
		{Func: CountType, Alias: "A"},
		{Func: Min, Alias: "A", Attr: "x"},
		{Func: Max, Alias: "A", Attr: "x"},
		{Func: Sum, Alias: "A", Attr: "x"},
		{Func: Avg, Alias: "A", Attr: "x"},
	}
}

// num is a test-local SpecSource: an event whose every aggregated
// attribute holds the same value.
type num float64

func (v num) SpecNum(int) (float64, bool) { return float64(v), true }

// missing is an event that carries none of the aggregated attributes.
type missing struct{}

func (missing) SpecNum(int) (float64, bool) { return 0, false }

// extend is ⊗ for an event matched under alias, its mask computed from
// the specs' aliases.
func extend(ss Specs, pred Node, alias string, e SpecSource, started uint64) Node {
	match := make([]bool, len(ss))
	for i, s := range ss {
		match[i] = s.Alias == alias
	}
	var out Node
	ss.ExtendInto(&out, pred, match, e, started)
	return out
}

// step is one event of a trend: its alias and attribute value.
type step struct {
	alias string
	x     float64
}

// fold aggregates one trend: the first event starts it, the others
// extend it.
func fold(ss Specs, trend ...step) Node {
	n := ss.Zero()
	for i, st := range trend {
		started := uint64(0)
		if i == 0 {
			started = 1
		}
		n = extend(ss, n, st.alias, num(st.x), started)
	}
	return n
}

func clone(n Node) Node { return Node{Count: n.Count, Aux: append([]Aux(nil), n.Aux...)} }

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Func: CountStar, Alias: "A"},
		{Func: CountType},
		{Func: CountType, Alias: "A", Attr: "x"},
		{Func: Min, Alias: "A"},
		{Func: Sum, Attr: "x"},
		{Func: Func(42)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%v): accepted", i, s)
		}
	}
	for _, s := range allSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%v rejected: %v", s, err)
		}
	}
	if err := (Specs{}).Validate(); err == nil {
		t.Error("empty Specs accepted")
	}
}

func TestSpecString(t *testing.T) {
	cases := map[string]Spec{
		"COUNT(*)": {Func: CountStar},
		"COUNT(A)": {Func: CountType, Alias: "A"},
		"MIN(A.x)": {Func: Min, Alias: "A", Attr: "x"},
		"MAX(A.x)": {Func: Max, Alias: "A", Attr: "x"},
		"SUM(A.x)": {Func: Sum, Alias: "A", Attr: "x"},
		"AVG(A.x)": {Func: Avg, Alias: "A", Attr: "x"},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestFoldSingleTrend(t *testing.T) {
	ss := allSpecs()
	// Trend (a:3, b, a:5): 1 trend, 2 A-events, min 3, max 5, sum 8, avg 4.
	n := fold(ss, step{"A", 3}, step{"B", 100}, step{"A", 5})
	vals := ss.Report(n)
	if vals[0].Count != 1 {
		t.Errorf("COUNT(*) = %d", vals[0].Count)
	}
	if vals[1].Count != 2 {
		t.Errorf("COUNT(A) = %d", vals[1].Count)
	}
	if vals[2].F != 3 || vals[3].F != 5 || vals[4].F != 8 || vals[5].F != 4 {
		t.Errorf("min/max/sum/avg = %v/%v/%v/%v", vals[2].F, vals[3].F, vals[4].F, vals[5].F)
	}
}

func TestMergeTwoTrends(t *testing.T) {
	ss := allSpecs()
	t1 := fold(ss, step{"A", 3}, step{"A", 5}) // min 3 max 5 sum 8, countA 2
	t2 := fold(ss, step{"A", 1})               // min 1 max 1 sum 1, countA 1
	final := ss.Zero()
	ss.Merge(&final, t1)
	ss.Merge(&final, t2)
	vals := ss.Report(final)
	if vals[0].Count != 2 || vals[1].Count != 3 {
		t.Errorf("counts = %d, %d", vals[0].Count, vals[1].Count)
	}
	if vals[2].F != 1 || vals[3].F != 5 || vals[4].F != 9 || vals[5].F != 3 {
		t.Errorf("min/max/sum/avg = %v/%v/%v/%v", vals[2].F, vals[3].F, vals[4].F, vals[5].F)
	}
}

func TestExtendCountsMatchPaperSemantics(t *testing.T) {
	// ExtendInto implements: count = pred.count + started, and the
	// target-alias event adds attr*count to SUM — one contribution per
	// trend ending at the event.
	ss := Specs{{Func: CountStar}, {Func: Sum, Alias: "A", Attr: "x"}}
	pred := Node{Count: 3, Aux: []Aux{{}, {F: 10, Valid: true}}}
	out := extend(ss, pred, "A", num(2), 1)
	if out.Count != 4 {
		t.Errorf("count = %d, want 4", out.Count)
	}
	// sum = 10 + 2*4 = 18.
	if out.Aux[1].F != 18 {
		t.Errorf("sum = %v, want 18", out.Aux[1].F)
	}
	// Non-target alias propagates untouched.
	out2 := extend(ss, pred, "B", num(2), 0)
	if out2.Count != 3 || out2.Aux[1].F != 10 {
		t.Errorf("propagation changed aggregates: %+v", out2)
	}
	// A target-alias event without the attribute adds nothing to SUM.
	out3 := extend(ss, pred, "A", missing{}, 0)
	if out3.Count != 3 || out3.Aux[1] != pred.Aux[1] {
		t.Errorf("missing attribute changed SUM: %+v", out3)
	}
}

func TestExtendDoesNotMutatePred(t *testing.T) {
	ss := allSpecs()
	pred := fold(ss, step{"A", 3})
	before := clone(pred)
	_ = extend(ss, pred, "A", num(9), 1)
	if !nodeEq(pred, before) {
		t.Error("ExtendInto mutated its input")
	}
}

func TestMinMaxValidity(t *testing.T) {
	ss := Specs{{Func: Min, Alias: "A", Attr: "x"}}
	zero := ss.Zero()
	vals := ss.Report(zero)
	if vals[0].Valid {
		t.Error("MIN over zero trends reported valid")
	}
	if !strings.Contains(vals[0].String(), "null") {
		t.Errorf("invalid MIN renders %q", vals[0].String())
	}
	// A trend without any A event leaves MIN invalid.
	n := fold(ss, step{"B", 7})
	if ss.Report(n)[0].Valid {
		t.Error("MIN valid though no A event")
	}
	// Nor does an A event without the attribute.
	n = extend(ss, ss.Zero(), "A", missing{}, 1)
	if ss.Report(n)[0].Valid {
		t.Error("MIN valid though no A event carried the attribute")
	}
}

func TestAvgNoEvents(t *testing.T) {
	ss := Specs{{Func: Avg, Alias: "A", Attr: "x"}}
	vals := ss.Report(fold(ss, step{"B", 7}))
	if vals[0].Valid || !math.IsNaN(vals[0].F) {
		t.Errorf("AVG over zero A-events = %+v", vals[0])
	}
}

func TestCountWrapsModulo64(t *testing.T) {
	ss := Specs{{Func: CountStar}}
	a := Node{Count: math.MaxUint64, Aux: make([]Aux, 1)}
	b := Node{Count: 2, Aux: make([]Aux, 1)}
	ss.Merge(&a, b)
	if a.Count != 1 {
		t.Errorf("wrap-around Count = %d, want 1", a.Count)
	}
	// ⊗ wraps the same way: a fresh trend on top of 2^64-1 gives 0, and
	// COUNT(E) adds the wrapped count.
	ss = Specs{{Func: CountStar}, {Func: CountType, Alias: "A"}}
	pred := Node{Count: math.MaxUint64, Aux: []Aux{{}, {N: 5}}}
	if out := extend(ss, pred, "A", num(0), 1); out.Count != 0 || out.Aux[1].N != 5 {
		t.Errorf("wrap-around extend = %+v, want count 0, COUNT(A) 5", out)
	}
	pred.Count = math.MaxUint64 - 1
	if out := extend(ss, pred, "A", num(0), 0); out.Aux[1].N != 3 {
		t.Errorf("wrap-around COUNT(A) = %d, want 3", out.Aux[1].N)
	}
}

// TestMergeIsCommutativeMonoid property-checks ⊕: commutative,
// associative, Zero identity — the algebraic core the granularities
// rely on when they reorder merges.
func TestMergeIsCommutativeMonoid(t *testing.T) {
	ss := allSpecs()
	// mk builds a node in canonical form: each aux slot only uses the
	// fields its spec reads (CountStar none, CountType N, Min/Max/Sum
	// F+Valid, Avg all), and invalid slots carry F == 0.
	mk := func(count uint64, n uint64, f float64, valid bool) Node {
		node := ss.Zero()
		node.Count = count
		if !valid {
			f = 0
		}
		for i, s := range ss {
			switch s.Func {
			case CountType:
				node.Aux[i] = Aux{N: n}
			case Min, Max, Sum:
				node.Aux[i] = Aux{F: f, Valid: valid}
			case Avg:
				node.Aux[i] = Aux{N: n, F: f, Valid: valid}
			}
		}
		return node
	}
	f := func(c1, n1 uint64, f1 float64, v1 bool, c2, n2 uint64, f2 float64, v2 bool, c3 uint64, f3 float64) bool {
		if f1 != f1 || f2 != f2 || f3 != f3 { // skip NaN inputs
			return true
		}
		// Keep magnitudes moderate: float addition is only
		// approximately associative and overflows near ±MaxFloat64.
		f1, f2, f3 = math.Mod(f1, 1e6), math.Mod(f2, 1e6), math.Mod(f3, 1e6)
		a, b, c := mk(c1, n1, f1, v1), mk(c2, n2, f2, v2), mk(c3, c3, f3, true)
		// commutativity
		ab := clone(a)
		ss.Merge(&ab, b)
		ba := clone(b)
		ss.Merge(&ba, a)
		if !nodeEq(ab, ba) {
			return false
		}
		// associativity
		abc1 := clone(ab)
		ss.Merge(&abc1, c)
		bc := clone(b)
		ss.Merge(&bc, c)
		abc2 := clone(a)
		ss.Merge(&abc2, bc)
		if !nodeEq(abc1, abc2) {
			return false
		}
		// identity
		az := clone(a)
		ss.Merge(&az, ss.Zero())
		return nodeEq(az, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestExtendDistributesOverMerge property-checks the law that makes
// coarse granularities correct: extending the merged aggregate of two
// trend sets equals merging the two extensions (started counted once).
func TestExtendDistributesOverMerge(t *testing.T) {
	ss := allSpecs()
	e := num(4.5)
	f := func(c1, c2 uint64, s1 uint64, f1, f2 float64) bool {
		if f1 != f1 || f2 != f2 {
			return true
		}
		started := s1 % 2
		a := ss.Zero()
		a.Count = c1
		a.Aux[2] = Aux{F: f1, Valid: true} // min
		a.Aux[4] = Aux{F: f1, Valid: true} // sum
		b := ss.Zero()
		b.Count = c2
		b.Aux[2] = Aux{F: f2, Valid: true}
		b.Aux[4] = Aux{F: f2, Valid: true}

		merged := clone(a)
		ss.Merge(&merged, b)
		left := extend(ss, merged, "A", e, started)

		ea := extend(ss, a, "A", e, started)
		eb := extend(ss, b, "A", e, 0)
		right := clone(ea)
		ss.Merge(&right, eb)
		return left.Count == right.Count &&
			left.Aux[2] == right.Aux[2] &&
			floatClose(left.Aux[4].F, right.Aux[4].F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*m
}

func nodeEq(a, b Node) bool {
	if a.Count != b.Count || len(a.Aux) != len(b.Aux) {
		return false
	}
	for i := range a.Aux {
		x, y := a.Aux[i], b.Aux[i]
		if x.N != y.N || x.Valid != y.Valid || !floatClose(x.F, y.F) {
			return false
		}
	}
	return true
}

func TestReportAndFormat(t *testing.T) {
	ss := Specs{{Func: CountStar}, {Func: Min, Alias: "M", Attr: "rate"}}
	n := fold(ss, step{"M", 61}, step{"M", 65})
	got := FormatValues(ss.Report(n))
	if got != "COUNT(*)=1, MIN(M.rate)=61" {
		t.Errorf("FormatValues = %q", got)
	}
}

func TestEqual(t *testing.T) {
	ss := Specs{{Func: CountStar}, {Func: Avg, Alias: "A", Attr: "x"}}
	a := ss.Report(fold(ss, step{"A", 2}))
	b := ss.Report(fold(ss, step{"A", 2}))
	c := ss.Report(fold(ss, step{"A", 3}))
	if !ApproxEqual(a, b, 0) {
		t.Error("identical reports unequal")
	}
	if ApproxEqual(a, c, 0) {
		t.Error("different reports equal")
	}
	// NaN == NaN for AVG-of-nothing.
	x := ss.Report(fold(ss, step{"B", 2}))
	y := ss.Report(fold(ss, step{"B", 9}))
	if !ApproxEqual(x, y, 0) {
		t.Error("NaN AVG reports unequal")
	}
	if ApproxEqual(a, a[:1], 0) {
		t.Error("length mismatch equal")
	}
}

// TestSpecsCompareByContent: two plans compiled from one text hold
// equal specs at different addresses, and their rows compare equal; a
// spec that differs only in its attribute does not.
func TestSpecsCompareByContent(t *testing.T) {
	ss := Specs{{Func: CountStar}, {Func: Sum, Alias: "A", Attr: "x"}}
	other := slices.Clone(ss)
	n := fold(ss, step{"A", 2}, step{"A", 5})
	a, b := ss.Report(n), other.Report(n)
	if a[1].spec == b[1].spec {
		t.Fatal("the two reports share a spec; the check is vacuous")
	}
	if !ApproxEqual(a, b, 0) {
		t.Error("equal specs at different addresses compare unequal")
	}
	other[1].Attr = "y"
	if c := other.Report(n); ApproxEqual(a, c, 0) {
		t.Error("SUM(A.x) and SUM(A.y) compare equal")
	}
}

// TestValueCostsItsNumbers: a value points at its plan's spec instead
// of copying it — 40 bytes on a 64-bit build, where an inline spec made
// it 72 — and the zero Value, which points at none, reports COUNT(*).
// That a Spec copy cannot write into a plan is the root package's
// TestResultSpecIsACopy.
func TestValueCostsItsNumbers(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Value{}); got != 40 {
			t.Errorf("Value is %d bytes, want 40", got)
		}
	}
	if got := (Value{}).Spec(); got != (Spec{Func: CountStar}) {
		t.Errorf("the zero Value reports %v, want COUNT(*)", got)
	}
}

func TestFootprint(t *testing.T) {
	if allSpecs().FootprintBytes() != 8+24*6 {
		t.Errorf("FootprintBytes = %d", allSpecs().FootprintBytes())
	}
}
