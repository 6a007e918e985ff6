package agg

import "repro/internal/snap"

// Snapshot codec for aggregate nodes and specs. A node is pure value
// state — the trend-set count plus one Aux entry per spec — so the
// encoding is positional: the owning structure knows the Specs and
// validates the Aux arity on restore.

// NodeMinBytes is the minimum encoded size of a Node, for collection
// length validation.
const NodeMinBytes = 12

// CodeNode lists a Node's fields in wire order. Decoding writes into
// n's own Aux storage when it has room, as ExtendInto and ZeroInto do, so
// a node whose owner gave it storage (a restored table entry) decodes
// without allocating.
func CodeNode(c *snap.Coder, n *Node) {
	c.U64(&n.Count)
	k := len(n.Aux)
	c.Len(&k, 17)
	if c.Decoding() {
		if k > cap(n.Aux) {
			n.Aux = make([]Aux, k)
		}
		n.Aux = n.Aux[:k]
	}
	for i := range n.Aux {
		codeAux(c, &n.Aux[i])
	}
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

// valueMinBytes is the minimum encoded size of a Value: its spec's
// function byte and two empty strings, then count, float, valid and
// sum.
const valueMinBytes = 26

var zeroSpec Spec

// CodeValues lists a result's reported values in wire order, each with
// its spec written inline: a frame's results outlive the plan that
// reported them. Decoding gives the values one spec slab to point at.
func CodeValues(c *snap.Coder, vs *[]Value) {
	n := len(*vs)
	c.Len(&n, valueMinBytes)
	if c.Decoding() {
		*vs = nil
		if n == 0 {
			return
		}
		*vs = make([]Value, n)
		specs := make(Specs, n)
		for i := range specs {
			(*vs)[i].spec = &specs[i]
		}
	}
	for i := range *vs {
		v := &(*vs)[i]
		spec := v.spec
		if spec == nil {
			spec = &zeroSpec // a zero Value, being encoded
		}
		CodeSpec(c, spec)
		c.U64(&v.Count)
		c.F64(&v.F)
		c.Bool(&v.Valid)
		c.F64(&v.Sum)
	}
}
