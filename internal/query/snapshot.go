package query

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/pattern"
	"repro/internal/predicate"
	"repro/internal/snap"
)

// Structural snapshot codec for queries: a checkpoint records each
// subscription's query by structure (not by source text, which a
// Builder-constructed query never had) and restore recompiles it
// against the restored catalog. Only declarative state is encoded;
// queries carrying opaque predicate functions (Adjacent.NumFn/Fn) or
// non-float64/string Local values cannot be checkpointed and fail the
// encoding Coder with a descriptive error.

// maxPatternDepth bounds pattern-AST recursion while decoding, so a
// corrupt snapshot cannot drive unbounded stack growth.
const maxPatternDepth = 1000

// Pattern node tags.
const (
	tagType uint8 = iota
	tagSeq
	tagPlus
	tagStar
	tagOpt
	tagOr
	tagNot
)

// Code lists q's structure in wire order; decoding fills a zero Query
// and validates it.
func (q *Query) Code(c *snap.Coder) {
	if !c.Decoding() {
		for _, s := range q.Returns {
			if err := s.Validate(); err != nil {
				c.Fail(fmt.Errorf("snapshot query: %w", err))
			}
		}
	}
	snap.Slice(c, &q.Returns, 3, agg.CodeSpec)
	snap.Slice(c, &q.ReturnKeys, 8, codeGroupKey)
	codePattern(c, &q.Pattern, 0)
	snap.Enum(c, &q.Semantics, Cont, "semantics")
	where := q.Where
	if where == nil {
		where = &predicate.Set{}
	}
	snap.Slice(c, &where.Locals, 10, codeLocal)
	snap.Slice(c, &where.Equivalences, 8, codeEquivalence)
	snap.Slice(c, &where.Adjacents, 17, codeAdjacent)
	snap.Slice(c, &q.GroupBy, 8, codeGroupKey)
	c.I64(&q.Window.Within)
	c.I64(&q.Window.Slide)
	if c.Decoding() && c.Err() == nil {
		q.Where = where
		err := q.Validate()
		c.Check(err == nil, "restored query invalid: %v", err)
	}
}

func codeGroupKey(c *snap.Coder, k *GroupKey) {
	c.Str(&k.Alias)
	c.Str(&k.Attr)
}

func codeEquivalence(c *snap.Coder, p *predicate.Equivalence) {
	c.Str(&p.Alias)
	c.Str(&p.Attr)
}

func codeLocal(c *snap.Coder, p *predicate.Local) {
	c.Str(&p.Alias)
	c.Str(&p.Attr)
	snap.Enum(c, &p.Op, predicate.Ne, "predicate op")
	var kind uint8
	var num float64
	var str string
	switch v := p.Value.(type) {
	case float64:
		num = v
	case string:
		kind, str = 1, v
	default:
		if !c.Decoding() {
			c.Fail(fmt.Errorf("snapshot query: local predicate value %T is not serializable (float64 or string)", p.Value))
		}
	}
	c.U8(&kind)
	switch kind {
	case 0:
		c.F64(&num)
	case 1:
		c.Str(&str)
	default:
		c.Check(false, "local predicate value kind %d", kind)
	}
	if c.Decoding() {
		if p.Value = any(num); kind == 1 {
			p.Value = str
		}
	}
}

func codeAdjacent(c *snap.Coder, p *predicate.Adjacent) {
	if p.NumFn != nil || p.Fn != nil {
		c.Fail(fmt.Errorf("snapshot query: adjacent predicate %s.%s carries an opaque comparison function and cannot be checkpointed", p.Left, p.LeftAttr))
	}
	c.Str(&p.Left)
	c.Str(&p.LeftAttr)
	snap.Enum(c, &p.Op, predicate.Ne, "predicate op")
	c.Str(&p.Right)
	c.Str(&p.RightAttr)
}

// nodeAt returns the pattern node of concrete type T at *p: the one
// already there when encoding, a fresh one installed there when
// decoding.
func nodeAt[T any, PT interface {
	*T
	pattern.Node
}](c *snap.Coder, p *pattern.Node) PT {
	if c.Decoding() {
		*p = PT(new(T))
	}
	return (*p).(PT)
}

// codePattern is the one recursive pattern-node coder: a tag byte,
// then the node's own fields.
func codePattern(c *snap.Coder, p *pattern.Node, depth int) {
	if depth > maxPatternDepth {
		c.Check(false, "pattern nesting exceeds %d", maxPatternDepth)
		return
	}
	var tag uint8
	switch (*p).(type) {
	case *pattern.TypeNode:
		tag = tagType
	case *pattern.SeqNode:
		tag = tagSeq
	case *pattern.PlusNode:
		tag = tagPlus
	case *pattern.StarNode:
		tag = tagStar
	case *pattern.OptNode:
		tag = tagOpt
	case *pattern.OrNode:
		tag = tagOr
	case *pattern.NotNode:
		tag = tagNot
	default:
		if !c.Decoding() {
			c.Fail(fmt.Errorf("snapshot query: unknown pattern node %T", *p))
			return
		}
	}
	c.U8(&tag)
	if c.Err() != nil {
		return
	}
	switch tag {
	case tagType:
		n := nodeAt[pattern.TypeNode](c, p)
		c.Str(&n.EventType)
		c.Str(&n.Alias)
	case tagSeq:
		codeParts(c, &nodeAt[pattern.SeqNode](c, p).Parts, depth)
	case tagOr:
		codeParts(c, &nodeAt[pattern.OrNode](c, p).Parts, depth)
	case tagPlus:
		codePattern(c, &nodeAt[pattern.PlusNode](c, p).Sub, depth+1)
	case tagStar:
		codePattern(c, &nodeAt[pattern.StarNode](c, p).Sub, depth+1)
	case tagOpt:
		codePattern(c, &nodeAt[pattern.OptNode](c, p).Sub, depth+1)
	case tagNot:
		codePattern(c, &nodeAt[pattern.NotNode](c, p).Sub, depth+1)
	default:
		c.Check(false, "pattern node tag %d", tag)
	}
}

// codeParts codes the children of a SEQ or OR node. The slice grows as
// children actually decode, never from the declared count alone.
func codeParts(c *snap.Coder, parts *[]pattern.Node, depth int) {
	n := len(*parts)
	c.Len(&n, 1)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			*parts = append(*parts, nil)
		}
		codePattern(c, &(*parts)[i], depth+1)
	}
}
