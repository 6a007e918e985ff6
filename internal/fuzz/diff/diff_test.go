package diff

import (
	"slices"
	"strings"
	"testing"

	cogra "repro"
	"repro/internal/agg"
)

// TestRepairSlackTieInversion pins the fix for a latent bug the
// jitter oracle exposed: a permutation that only swaps equal-time
// events has a zero time-based slack, but zero slack means the
// session installs no reorder buffer at all, so arrival order would
// leak into trend order. The minimal repair slack for any non-trivial
// permutation is 1.
func TestRepairSlackTieInversion(t *testing.T) {
	mk := func(tm int64, id int64) *cogra.Event {
		e := cogra.NewEvent("A", tm)
		e.ID = id
		return e
	}
	a, b, c := mk(5, 1), mk(5, 2), mk(7, 3)
	canonical := []*cogra.Event{a, b, c}

	if got := repairSlack(canonical, []*cogra.Event{a, b, c}); got != 0 {
		t.Errorf("identity permutation: repair slack %d, want 0", got)
	}
	if got := repairSlack(canonical, []*cogra.Event{b, a, c}); got != 1 {
		t.Errorf("tie-only inversion: repair slack %d, want 1", got)
	}
	if got := repairSlack(canonical, []*cogra.Event{a, c, b}); got != 2 {
		t.Errorf("time inversion: repair slack %d, want 2 (maxSeen 7 - time 5)", got)
	}
}

// TestCanonQuotesGroups: Canon quotes each group value, so a value
// holding the separator does not render as two values, a value holding
// a newline does not forge a line, and Equal and Diff tell such results
// apart.
func TestCanonQuotesGroups(t *testing.T) {
	count := func(n uint64) []agg.Value { return []agg.Value{{Count: n}} }
	res := func(group ...string) []cogra.Result {
		return []cogra.Result{{Wid: 1, Start: 10, End: 20, Group: group, Values: count(2)}}
	}
	if got, want := Canon(res("a,b", "c")), `w1 window [10,20) group=["a,b" "c"]: COUNT(*)=2`+"\n"; got != want {
		t.Errorf("Canon = %q, want %q", got, want)
	}
	if got, want := Canon([]cogra.Result{{Wid: 0, End: 10, Values: count(3)}}), "w0 window [0,10): COUNT(*)=3\n"; got != want {
		t.Errorf("Canon without GROUP-BY = %q, want %q", got, want)
	}
	for _, pair := range [][2][]cogra.Result{
		{res("a,b"), res("a", "b")},
		{res("a\nw1 window [10,20) group=(b)"), res("a")},
		{res("a\x00b"), res("a", "b")},
	} {
		if Equal(pair[0], pair[1]) || Diff(pair[0], pair[1]) == "" {
			t.Errorf("Canon renders %q and %q alike: %q", pair[0][0].Group, pair[1][0].Group, Canon(pair[0]))
		}
		if strings.Count(Canon(pair[0]), "\n") != 1 {
			t.Errorf("Canon(%q) spans more than one line", pair[0][0].Group)
		}
	}
}

// TestCompareReadsSpecsByContent: rows of two plans compiled from one
// RETURN clause point at different but equal specs, and Compare finds
// them equal at tolerance 0; rows whose specs differ it tells apart.
func TestCompareReadsSpecsByContent(t *testing.T) {
	mine := agg.Specs{{Func: agg.CountStar}, {Func: agg.Max, Alias: "A", Attr: "x"}}
	theirs := slices.Clone(mine)
	node := agg.Node{Count: 3, Aux: []agg.Aux{{}, {F: 7, Valid: true}}}
	res := func(ss agg.Specs) []cogra.Result {
		return []cogra.Result{{Wid: 2, Start: 20, End: 30, Group: []string{"g"}, Values: ss.Report(node)}}
	}
	if d := Compare(res(mine), res(theirs), 0); d != "" {
		t.Errorf("equal specs at different addresses: %s", d)
	}
	theirs[1].Func = agg.Min
	if Compare(res(mine), res(theirs), 0) == "" {
		t.Error("MAX(A.x) and MIN(A.x) rows compare equal")
	}
}
