package core

import (
	"repro/internal/agg"
)

// nodeTable maps binding keys to aggregate nodes, in insertion order.
// It is the one keyed-aggregate structure of the any-match kernel:
// Algorithm 2's hash table H of a Tt alias, its negation shadows, the
// per-event contribution accumulator and the per-binding merge of a
// closing window are all instances — and, used as a plain list, a
// sub-aggregator's staged updates (push).
//
// It is built to be recycled. State per (window, group) is a
// constant-size aggregate (Theorems 4.3 / 5.2), so a table that served
// one window serves the next: reset keeps the key and node storage and
// every node's Aux array, and a warm table inserts without allocating.
//
// A table of one key is its own index, and its own storage: the entry
// lives in the table (one), and so do the entry's auxiliaries when the
// plan reports at most inlineAux aggregates (aux). Every table of a plan
// without binding slots holds one key, and so do the tables of a
// partition whose events agree on their slot values; none of them
// allocates anything. A second key moves the entries to an array that
// grows by doubling, each doubling giving the entries it adds their Aux
// from one array (grow), and builds the index; both survive, emptied,
// across resets. Because entries may point into the table itself, a
// table is never copied (noCopy).
type nodeTable struct {
	_       noCopy
	entries []tableEntry   // live entries; the tail up to cap is recycled storage
	idx     map[bkey]int32 // nil: the table has never held two keys
	one     [1]tableEntry  // the storage of entries until a second key arrives
	aux     [inlineAux]agg.Aux
}

// inlineAux is how many aggregates a table keeps inline for its first
// entry: COUNT(*) and one more, which is what a typical RETURN clause
// reports. A wider plan's sub-aggregator gives its tables' first entries
// their auxiliaries from one array instead (mixedGrained.own).
const inlineAux = 2

// noCopy makes `go vet` (copylocks) reject a copy of the struct holding
// it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

type tableEntry struct {
	key  bkey
	node agg.Node
	// alias is the alias id of a staged update (mixedGrained.staged); a
	// table's entries leave it unset.
	alias int32
}

// find returns the position of key k, -1 when absent.
func (t *nodeTable) find(k bkey) int {
	if t.idx != nil {
		if i, ok := t.idx[k]; ok {
			return int(i)
		}
		return -1
	}
	if len(t.entries) == 1 && t.entries[0].key == k {
		return 0
	}
	return -1
}

// slot returns the node of key k, inserting it zeroed (created) when
// absent. The pointer is valid until the next insert.
func (t *nodeTable) slot(specs agg.Specs, k bkey) (n *agg.Node, created bool) {
	if i := t.find(k); i >= 0 {
		return &t.entries[i].node, false
	}
	e := t.push(len(specs))
	e.key = k
	specs.ZeroInto(&e.node)
	switch i := len(t.entries) - 1; {
	case t.idx != nil:
		t.idx[k] = int32(i)
	case i == 1: // a second key: the table is searched through an index from here on
		t.idx = map[bkey]int32{t.entries[0].key: 0, k: 1}
	}
	return &e.node, true
}

// push appends an entry, without looking its key up, and returns it
// holding whatever its storage last held: the caller sets every field it
// reads. A recycled entry brings its Aux array, the first entry the
// table's inline one (when width fits it, or whatever
// mixedGrained.own gave it), and an entry a doubling adds one carved
// from the doubling's array.
func (t *nodeTable) push(width int) *tableEntry {
	n := len(t.entries)
	if n == cap(t.entries) {
		if n == 0 {
			t.entries = t.one[:0]
			if t.one[0].node.Aux == nil && width <= inlineAux {
				t.one[0].node.Aux = t.aux[:width:width]
			}
		} else {
			t.entries = grow(t.entries, width)
		}
	}
	t.entries = t.entries[:n+1]
	return &t.entries[n]
}

// grow moves full entries to an array of twice their capacity and gives
// the entries it adds their Aux from one array of width-wide cells
// (cap-limited, so a node never writes into its neighbour's).
func grow(entries []tableEntry, width int) []tableEntry {
	n := len(entries)
	out := make([]tableEntry, n, 2*n)
	copy(out, entries)
	aux := make([]agg.Aux, n*width)
	added := out[n:cap(out)]
	for i := range added {
		added[i].node.Aux, aux = aux[:width:width], aux[width:]
	}
	return out
}

// add merges node into the aggregate of key k.
func (t *nodeTable) add(specs agg.Specs, k bkey, node *agg.Node) {
	dst, _ := t.slot(specs, k)
	specs.Merge(dst, *node)
}

// reset empties the table, keeping its storage. The index gives up the
// keys it holds one by one: its cost is the table's size now, not the
// largest it has ever been.
func (t *nodeTable) reset() {
	if t.idx != nil {
		for i := range t.entries {
			delete(t.idx, t.entries[i].key)
		}
	}
	t.entries = t.entries[:0]
}

// release is reset at the end of a window generation: an array of
// entries the generation left mostly unused goes back to the GC (Shed),
// and with it the index; the inline entry and its Aux stay.
func (t *nodeTable) release() {
	if Shed(t.entries) == nil {
		t.entries, t.idx = nil, nil
		return
	}
	t.reset()
}
