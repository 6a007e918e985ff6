//go:build poison

package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/agg"
)

// Poisoned recycling — a build tag, not an option: `go test -tags poison`
// runs any test of the repository with it on. An engine pools the
// sub-aggregators and window states of closed windows and reopens them
// for later ones, so anything a released object still holds must be dead:
// never read again before it is overwritten. Under the tag, release
// scribbles sentinels over exactly that storage — trend counts of
// 0xDEAD…, binding keys no intern table holds, a time stamp from before
// any stream — and every differential still has to match byte for byte;
// a path that reads recycled state without initialising it first turns
// into a wrong result or an index panic instead of a heisenbug. The same
// goes for a swept partition id, and a window state pooled with a slot
// still set panics. Without the tag the hooks below are empty
// (poison_off.go) and the build carries none of this.

const (
	poisonCount      = 0xDEADDEADDEADDEAD
	poisonKey   bkey = math.MaxUint64
	poisonTime       = math.MinInt64 + 1 // a window closed before the stream began
)

var (
	poisonAux  = agg.Aux{N: poisonCount, F: math.Inf(-1), Valid: true}
	poisonAttr = attrVal{num: math.Inf(-1), sym: "\xde\xad", has: hasNum | hasSymRaw | hasSymVal}
)

// fill scribbles v over the whole capacity of s: past its length lies
// the storage a recycled object brings along.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

func poisonNode(n *agg.Node) {
	n.Count = poisonCount
	fill(n.Aux, poisonAux)
}

// poison scribbles over the recycled storage of an emptied table: its
// array of entries, and the inline entry with its auxiliaries, which
// back the table again once a generation sheds the array.
func (t *nodeTable) poison() {
	poisonEntries(t.entries[:cap(t.entries)])
	poisonEntries(t.one[:])
	fill(t.aux[:], poisonAux)
}

func poisonEntries(dead []tableEntry) {
	for i := range dead {
		dead[i].key, dead[i].alias = poisonKey, math.MaxInt32
		poisonNode(&dead[i].node)
	}
}

func (a *arena[T]) poison(v T) {
	for _, slab := range a.slabs {
		fill(slab, v)
	}
}

func (n *negFires) poison() {
	if n == nil {
		return
	}
	for _, ts := range n.times {
		fill(ts, poisonTime)
	}
}

// poisonWindow scribbles over a window state about to be pooled, whose
// slots its close must all have emptied: a slot left set is a partition
// the close did not report, and the state's next window would inherit it.
func poisonWindow(ws *winState) {
	if ws.open != 0 || slices.ContainsFunc(ws.sas, func(sa subAggregator) bool { return sa != nil }) {
		panic(fmt.Sprintf("core: window %d pooled with %d partitions open", ws.wid, ws.open))
	}
	ws.wid = poisonTime
}

// poisonPartition scribbles over a swept partition id: its key and its
// last opening window, which nothing reads before the id is renumbered.
func poisonPartition(p *partEntry) {
	p.key, p.last = poisonAttr.sym, poisonTime
}

// poisonAggregator scribbles over what a released aggregator keeps for
// its next sub-stream.
func poisonAggregator(sa subAggregator) {
	switch t := sa.(type) {
	case *mixedGrained:
		t.curTime = poisonTime
		for i := range t.tables {
			t.tables[i].poison()
		}
		if t.staged != nil {
			t.staged.poison()
		}
		fill(t.stagedResets, math.MaxInt32)
		if te := t.te; te != nil {
			for _, entries := range te.stored {
				fill(entries, storedEntry{time: poisonTime, key: poisonKey, node: agg.Node{Count: poisonCount}, foot: poisonCount >> 1})
			}
			te.fires.poison()
			te.left.poison(poisonAttr)
			te.aux.poison(poisonAux)
		}
	case *patternGrained:
		fill(t.elLeft, poisonAttr)
		poisonNode(&t.scratch)
		poisonNode(&t.predZero)
		t.fires.poison()
	}
}
