package cogra_test

import (
	"fmt"
	"slices"
	"testing"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// groupRow is one expected result of a single-window query: its group
// tuple and COUNT(*).
type groupRow struct {
	group []string
	count uint64
}

// groupTupleCases are GROUP-BY values holding NUL. A group is its
// tuple, so values that NUL-joined spell one string, or split at the
// NUL into another tuple, still report apart.
var groupTupleCases = []struct {
	name   string
	src    string
	events []*cogra.Event
	want   []groupRow
}{
	{
		name: "partition value",
		src: `RETURN k, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match
			WHERE [k] GROUP-BY k WITHIN 10 SLIDE 10`,
		events: []*cogra.Event{
			cogra.NewEvent("A", 1).WithSym("k", "a\x00b"),
			cogra.NewEvent("A", 2).WithSym("k", "a\x00c"),
			cogra.NewEvent("A", 3).WithSym("k", "a"),
		},
		want: []groupRow{{[]string{"a"}, 1}, {[]string{"a\x00b"}, 1}, {[]string{"a\x00c"}, 1}},
	},
	{
		name: "slot tuple",
		src: `RETURN A.b, A.c, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match
			WHERE [A.b] AND [A.c] GROUP-BY A.b, A.c WITHIN 10 SLIDE 10`,
		events: []*cogra.Event{
			cogra.NewEvent("A", 1).WithSym("b", "x\x00y").WithSym("c", "z"),
			cogra.NewEvent("A", 2).WithSym("b", "x").WithSym("c", "y\x00z"),
		},
		want: []groupRow{{[]string{"x", "y\x00z"}, 1}, {[]string{"x\x00y", "z"}, 1}},
	},
}

func (r groupRow) String() string { return fmt.Sprintf("group=%q: COUNT(*)=%d", r.group, r.count) }

// TestGroupTupleWithNUL: GROUP-BY values holding NUL report one row
// per tuple, in tuple order, inline and on four workers.
func TestGroupTupleWithNUL(t *testing.T) {
	for _, c := range groupTupleCases {
		for mode, opts := range map[string][]cogra.SessionOption{"inline": nil, "4 workers": {cogra.WithWorkers(4)}} {
			got, err := diff.SoloRun(c.src, c.events, opts...)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, mode, err)
			}
			ok := len(got) == len(c.want)
			for i := 0; ok && i < len(got); i++ {
				ok = got[i].Wid == 0 && slices.Equal(got[i].Group, c.want[i].group) &&
					got[i].Values[0].Count == c.want[i].count
			}
			if !ok {
				t.Errorf("%s, %s: got\n%s want %v", c.name, mode, diff.Canon(got), c.want)
			}
		}
	}
}
