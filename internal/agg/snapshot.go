package agg

import "repro/internal/snap"

// Snapshot codec for aggregate nodes and specs. A node is pure value
// state — the trend-set count plus one Aux entry per spec — so the
// encoding is positional: the owning structure knows the Specs and
// validates the Aux arity on restore.

// NodeMinBytes is the minimum encoded size of a Node, for collection
// length validation.
const NodeMinBytes = 12

// CodeNode lists a Node's fields in wire order.
func CodeNode(c *snap.Coder, n *Node) {
	c.U64(&n.Count)
	snap.Slice(c, &n.Aux, 17, codeAux)
}

func codeAux(c *snap.Coder, a *Aux) {
	c.U64(&a.N)
	c.F64(&a.F)
	c.Bool(&a.Valid)
}

// CodeSpec lists a Spec's fields in wire order.
func CodeSpec(c *snap.Coder, s *Spec) {
	snap.Enum(c, &s.Func, Avg, "aggregate func")
	c.Str(&s.Alias)
	c.Str(&s.Attr)
}
