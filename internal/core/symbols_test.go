package core

import (
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/predicate"
	"repro/internal/query"
)

func twoSlotBindings() *bindings {
	return newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"},
	}, nopAccountant{}, false)
}

func TestBindingsPackedCombine(t *testing.T) {
	b := twoSlotBindings()
	v1, v2 := b.internVal("p1"), b.internVal("p2")

	k1 := b.startKey([]slotAssign{{idx: 0, val: v1}})
	if got := b.appendDecoded(nil, k1); !reflect.DeepEqual(got, []string{"p1", ""}) {
		t.Errorf("decode(start) = %v", got)
	}
	// Binding the free slot succeeds; the bound slot accepts only the
	// same value.
	k2, ok := b.combine(k1, []slotAssign{{idx: 1, val: v2}})
	if !ok {
		t.Fatal("combine rejected free slot")
	}
	if got := b.appendDecoded(nil, k2); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("decode(combined) = %v", got)
	}
	if _, ok := b.combine(k2, []slotAssign{{idx: 0, val: v1}}); !ok {
		t.Error("combine rejected agreeing value")
	}
	if _, ok := b.combine(k2, []slotAssign{{idx: 0, val: v2}}); ok {
		t.Error("combine accepted conflicting value")
	}
	// Empty assignment list is the identity.
	if k, ok := b.combine(k2, nil); !ok || k != k2 {
		t.Errorf("combine(key, nil) = %v, %v", k, ok)
	}
	if b.emptyKey() != 0 || !reflect.DeepEqual(b.appendDecoded(nil, 0), []string{"", ""}) {
		t.Error("empty key not all-unbound")
	}
}

func TestBindingsVectorCombine(t *testing.T) {
	b := newBindings([]predicate.Equivalence{
		{Alias: "A", Attr: "x"}, {Alias: "B", Attr: "y"}, {Alias: "C", Attr: "z"},
	}, nopAccountant{}, false)
	v1, v2, v3 := b.internVal("u"), b.internVal("v"), b.internVal("w")

	k1 := b.startKey([]slotAssign{{idx: 2, val: v3}})
	k2, ok := b.combine(k1, []slotAssign{{idx: 0, val: v1}, {idx: 1, val: v2}})
	if !ok {
		t.Fatal("combine rejected free slots")
	}
	if got := b.appendDecoded(nil, k2); !reflect.DeepEqual(got, []string{"u", "v", "w"}) {
		t.Errorf("decode = %v", got)
	}
	// Interning is stable: the same vector yields the same key.
	k3, ok := b.combine(k1, []slotAssign{{idx: 0, val: v1}, {idx: 1, val: v2}})
	if !ok || k3 != k2 {
		t.Errorf("re-combine = %v, want %v", k3, k2)
	}
	if _, ok := b.combine(k2, []slotAssign{{idx: 2, val: v1}}); ok {
		t.Error("combine accepted conflicting value")
	}
	if got := b.appendDecoded(nil, b.emptyKey()); !reflect.DeepEqual(got, []string{"", "", ""}) {
		t.Errorf("decode(empty) = %v", got)
	}
}

// TestAppendStreamKeyMatchesEventKey pins the engine's partition key,
// built from a resolved view, to AppendEventKey over the plan's
// StreamKeys (the router's key), including the numeric fallback.
func TestAppendStreamKeyMatchesEventKey(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN M+ WHERE [patient] AND [ward] WITHIN 10 SLIDE 10")
	plan := MustPlan(q)
	cases := []*event.Event{
		event.New("M", 1).WithSym("patient", "p1").WithSym("ward", "icu"),
		event.New("M", 2).WithNum("patient", 7).WithSym("ward", "er"),
		event.New("M", 3).WithNum("patient", 7.5).WithSym("ward", "er"),
		event.New("M", 4).WithSym("patient", "p1"), // ward missing
	}
	var rv resolvedVals
	wants := []string{"p1\x00icu", "7\x00er", "7.5\x00er", ""}
	for i, ev := range cases {
		buf, wantOK := AppendEventKey(nil, ev, plan.StreamKeys)
		want := string(buf)
		if !wantOK {
			want = ""
		}
		if want != wants[i] || wantOK != (i < 3) {
			t.Errorf("%v: AppendEventKey = %q, %v; want %q, %v", ev, want, wantOK, wants[i], i < 3)
		}
		// The engine-internal resolved-view builder must produce the
		// same bytes, or router and engine would disagree on routing.
		resolveView(plan, &rv, ev)
		rbuf, rok := plan.appendStreamKey(nil, &rv)
		if rok != wantOK || (rok && string(rbuf) != want) {
			t.Errorf("%v: resolved appendStreamKey = %q, %v; want %q, %v", ev, rbuf, rok, want, wantOK)
		}
	}
}

// TestResolvedViewSemantics pins the resolved view to the Event
// accessor semantics: numeric-first Attr, SymAttr fallback formatting.
func TestResolvedViewSemantics(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*), MAX(M.rate) PATTERN M+ WHERE [M.patient] WITHIN 10 SLIDE 10")
	plan := MustPlan(q)
	var rv resolvedVals
	// Numeric patient: the slot reads the formatted fallback value.
	resolveView(plan, &rv, event.New("M", 1).WithNum("patient", 7).WithNum("rate", 61.5))
	pid := plan.cat.attrIDs["patient"]
	if rv.has[pid]&hasSymVal == 0 || rv.sym[pid] != "7" {
		t.Errorf("numeric patient resolved to %q (has=%b)", rv.sym[pid], rv.has[pid])
	}
	if rv.has[pid]&hasSymRaw != 0 {
		t.Error("fallback value marked as raw symbolic")
	}
	// SpecNum indexes the spec's attribute.
	if v, ok := rv.SpecNum(1); !ok || v != 61.5 {
		t.Errorf("SpecNum(1) = %v, %v", v, ok)
	}
	if _, ok := rv.SpecNum(0); ok {
		t.Error("COUNT(*) spec reported an attribute value")
	}
	// Absent attributes resolve to no presence bits.
	resolveView(plan, &rv, event.New("M", 2))
	if rv.has[pid] != 0 {
		t.Errorf("absent attribute has bits %b", rv.has[pid])
	}
	if rv.tp == nil {
		t.Error("typePlan missing for pattern type")
	}
	resolveView(plan, &rv, event.New("X", 3))
	if rv.tp != nil {
		t.Error("typePlan present for irrelevant type")
	}
}

// TestTypeInterningOrderIsDeterministic: type ids reach the catalog
// section of every snapshot, so compiling one query must intern its
// types in one order — each type at its first alias in the pattern,
// negated leaves included — never in map-iteration order.
func TestTypeInterningOrderIsDeterministic(t *testing.T) {
	q := query.MustParse(`
		RETURN COUNT(*)
		PATTERN SEQ(D+, NOT(N), C, NOT(M), B, A+)
		SEMANTICS skip-till-any-match
		WITHIN 10 SLIDE 10`)
	want := []string{"D", "N", "C", "M", "B", "A"}
	for run := 0; run < 50; run++ {
		cat := NewCatalog()
		if _, err := NewPlanIn(cat, q); err != nil {
			t.Fatal(err)
		}
		for id, name := range want {
			if got, ok := cat.TypeID(name); !ok || got != int32(id) {
				t.Fatalf("run %d: type %s interned as id %d (known %v), want %d", run, name, got, ok, id)
			}
		}
	}
}
