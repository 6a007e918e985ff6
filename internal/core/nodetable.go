package core

import (
	"repro/internal/agg"
)

// nodeTable maps binding keys to aggregate nodes, in insertion order.
// It is the one keyed-aggregate structure of the any-match kernel:
// Algorithm 2's hash table H of a Tt alias, its negation shadows, the
// per-event contribution accumulator and the per-binding merge of a
// closing window are all instances.
//
// It is built to be recycled. State per (window, group) is a
// constant-size aggregate (Theorems 4.3 / 5.2), so a table that served
// one window serves the next: reset keeps the key and node storage and
// every node's Aux array, and a warm table inserts without allocating.
// Nothing is allocated before the first insert either, so a partition
// that only ever sees one alias pays for one table.
//
// A table of one key is its own index. Every table of a plan without
// binding slots is one (all bindings are the empty key), and so are the
// tables of a partition whose events agree on their slot values; neither
// builds a map. The index is built when a second key arrives and
// survives, emptied, across resets.
type nodeTable struct {
	entries []tableEntry   // live entries; the tail up to cap is recycled storage
	idx     map[bkey]int32 // nil: the table has never held two keys
}

type tableEntry struct {
	key  bkey
	node agg.Node
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
	i := len(t.entries)
	if i < cap(t.entries) {
		t.entries = t.entries[:i+1] // the recycled entry brings its Aux array
	} else {
		t.entries = append(t.entries, tableEntry{})
	}
	e := &t.entries[i]
	e.key = k
	specs.ZeroInto(&e.node)
	switch {
	case t.idx != nil:
		t.idx[k] = int32(i)
	case i == 1: // a second key: the table is searched through an index from here on
		t.idx = map[bkey]int32{t.entries[0].key: 0, k: 1}
	}
	return &e.node, true
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

// release is reset at the end of a window generation: storage the
// generation left mostly unused goes back to the GC (Shed).
func (t *nodeTable) release() {
	if Shed(t.entries) == nil {
		t.entries, t.idx = nil, nil
		return
	}
	t.reset()
}
