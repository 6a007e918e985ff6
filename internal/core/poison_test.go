//go:build poison

package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/event"
	"repro/internal/query"
)

// TestPoisonIsLive keeps `-tags poison` honest: under the tag a pooled
// aggregator really is scribbled over, so the rest of the suite passing
// means nothing read it back.
func TestPoisonIsLive(t *testing.T) {
	// A slot on A gives both tables two keys, so each moves its entries
	// to an array and keeps its inline one aside.
	plan := MustPlan(query.MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [A.k] WITHIN 4 SLIDE 4`))
	eng := NewEngine(plan)
	for i, typ := range []string{"A", "A", "B", "A"} {
		if err := eng.Process(event.New(typ, int64(i)).WithSym("k", []string{"x", "y"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AdvanceWatermark(4); err != nil { // closes the window
		t.Fatal(err)
	}
	if len(eng.aggs.free) != 1 || len(eng.wins.free) != 1 {
		t.Fatalf("%d aggregators and %d window states pooled, want 1 and 1", len(eng.aggs.free), len(eng.wins.free))
	}
	if wid := eng.wins.free[0].wid; wid != poisonTime {
		t.Errorf("pooled window state has wid %d, want the sentinel", wid)
	}
	mg := eng.aggs.free[0].(*mixedGrained)
	if mg.curTime != poisonTime {
		t.Errorf("pooled aggregator has curTime %d, want the sentinel", mg.curTime)
	}
	// Every entry a table or the staged list keeps — the inline one
	// included, which backs the table again once a generation sheds its
	// array — and every auxiliary they hold.
	scribbled := func(what string, tbl *nodeTable) (n int) {
		for _, e := range slices.Concat(tbl.entries[:cap(tbl.entries)], tbl.one[:]) {
			if e.key != poisonKey || e.node.Count != poisonCount {
				t.Errorf("%s keeps entry {key %#x, count %#x} unscribbled", what, e.key, e.node.Count)
			}
			for _, a := range e.node.Aux[:cap(e.node.Aux)] {
				if a != poisonAux {
					t.Errorf("%s keeps auxiliary %+v unscribbled", what, a)
				}
			}
			n++
		}
		return n
	}
	entries := 0
	for i := range mg.tables {
		if cap(mg.tables[i].entries) < 2 {
			t.Errorf("table %d never held two keys; the inline entry is not checked apart", i)
		}
		entries += scribbled(fmt.Sprintf("table %d", i), &mg.tables[i])
	}
	if entries == 0 || mg.staged == nil || scribbled("the staged list", mg.staged) == 0 {
		t.Error("the pooled aggregator recycles no table entry or staged update; the check is vacuous")
	}

	// A swept partition id: k is opened in window 0 only, and the close
	// of window 1 ends the generation that did not reopen it.
	swept := NewEngine(MustPlan(query.MustParse(`RETURN key, COUNT(*) PATTERN A+ WHERE [key] GROUP-BY key WITHIN 4 SLIDE 4`)))
	for i, key := range []string{"k", "j", "j"} {
		if err := swept.Process(event.New("A", int64(4*i)).WithSym("key", key)); err != nil {
			t.Fatal(err)
		}
	}
	if len(swept.parts.free) != 1 {
		t.Fatalf("%d partition ids freed, want 1", len(swept.parts.free))
	}
	if p := swept.parts.parts[swept.parts.free[0]]; p.key != poisonAttr.sym || p.last != poisonTime {
		t.Errorf("swept partition id keeps {key %q, last %d}, want the sentinels", p.key, p.last)
	}
}
