package event

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventConstruction(t *testing.T) {
	e := New("Stock", 42).WithNum("price", 10.5).WithSym("company", "IBM")
	if e.Type != "Stock" || e.Time != 42 {
		t.Fatalf("bad header: %+v", e)
	}
	if v, ok := e.NumAttr("price"); !ok || v != 10.5 {
		t.Errorf("price = %v, %v", v, ok)
	}
	if v, ok := e.SymAttr("company"); !ok || v != "IBM" {
		t.Errorf("company = %q, %v", v, ok)
	}
	if _, ok := e.NumAttr("missing"); ok {
		t.Error("missing numeric attribute reported present")
	}
}

func TestSymAttrFallsBackToNumeric(t *testing.T) {
	e := New("M", 1).WithNum("patient", 7)
	got, ok := e.SymAttr("patient")
	if !ok || got != "7" {
		t.Errorf("SymAttr(patient) = %q, %v; want \"7\", true", got, ok)
	}
	e2 := New("M", 1).WithNum("rate", 61.5)
	got, ok = e2.SymAttr("rate")
	if !ok || got != "61.5" {
		t.Errorf("SymAttr(rate) = %q, %v; want \"61.5\", true", got, ok)
	}
}

func TestAttrUntyped(t *testing.T) {
	e := New("S", 0).WithNum("x", 3).WithSym("y", "abc")
	if v, ok := e.Attr("x"); !ok || v.(float64) != 3 {
		t.Errorf("Attr(x) = %v", v)
	}
	if v, ok := e.Attr("y"); !ok || v.(string) != "abc" {
		t.Errorf("Attr(y) = %v", v)
	}
	if _, ok := e.Attr("z"); ok {
		t.Error("Attr(z) present")
	}
}

func TestBeforeOrdersByTimeThenID(t *testing.T) {
	a := &Event{Time: 1, ID: 5}
	b := &Event{Time: 2, ID: 1}
	c := &Event{Time: 2, ID: 2}
	if !a.Before(b) || !b.Before(c) || c.Before(b) || b.Before(a) {
		t.Error("Before ordering wrong")
	}
	if a.Before(a) {
		t.Error("event before itself")
	}
}

func TestStringPaperStyle(t *testing.T) {
	e := New("A", 7)
	if got := e.String(); got != "a7" {
		t.Errorf("String() = %q, want a7", got)
	}
	rich := New("Stock", 3).WithNum("price", 10).WithSym("company", "IBM")
	s := rich.String()
	if !strings.Contains(s, "Stock@3") || !strings.Contains(s, "price=10") || !strings.Contains(s, "company=IBM") {
		t.Errorf("String() = %q", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := New("S", 1).WithNum("x", 1).WithSym("y", "a")
	c := e.Clone()
	c.WithNum("x", 2).WithSym("y", "b")
	if e.Num["x"] != 1 || e.Sym["y"] != "a" {
		t.Error("Clone shares attribute maps")
	}
}

func TestSortStable(t *testing.T) {
	evs := []*Event{
		{Time: 3, ID: 1}, {Time: 1, ID: 2}, {Time: 1, ID: 1}, {Time: 2, ID: 9},
	}
	Sort(evs)
	want := [][2]int64{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	for i, w := range want {
		if evs[i].Time != w[0] || evs[i].ID != w[1] {
			t.Fatalf("pos %d: got (%d,%d) want (%d,%d)", i, evs[i].Time, evs[i].ID, w[0], w[1])
		}
	}
}

func TestFootprintPositiveAndMonotone(t *testing.T) {
	small := New("A", 1)
	big := New("A", 1).WithNum("x", 1).WithSym("long-name", "long-value")
	if small.FootprintBytes() <= 0 {
		t.Error("footprint not positive")
	}
	if big.FootprintBytes() <= small.FootprintBytes() {
		t.Error("footprint not monotone in attributes")
	}
}

func TestBeforeIsStrictTotalOrderProperty(t *testing.T) {
	f := func(t1, t2 int64, id1, id2 int64) bool {
		a := &Event{Time: t1, ID: id1}
		b := &Event{Time: t2, ID: id2}
		ab, ba := a.Before(b), b.Before(a)
		if ab && ba {
			return false // antisymmetry
		}
		equal := t1 == t2 && id1 == id2
		return equal == (!ab && !ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
