package baselines

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/event"
)

// Extender is the baselines' ⊗: agg.Specs.ExtendInto with the alias
// test computed once per plan and attribute values read from the event
// by name. It keeps scratch state, so one Extender serves one Run at a
// time.
type Extender struct {
	specs agg.Specs
	masks map[string][]bool // per alias some spec targets
	none  []bool            // every other alias
	src   namedSource
	a, b  agg.Node // Fold's scratch
}

// namedSource is the agg.SpecSource of the event being extended. The
// Extender holds it by value and passes its address, so the interface
// conversion allocates nothing.
type namedSource struct {
	specs agg.Specs
	e     *event.Event
}

func (s *namedSource) SpecNum(i int) (float64, bool) { return s.e.NumAttr(s.specs[i].Attr) }

// NewExtender computes the plan's per-alias spec masks.
func NewExtender(plan *core.Plan) *Extender {
	specs := plan.Specs
	x := &Extender{specs: specs, masks: map[string][]bool{},
		none: make([]bool, len(specs)), src: namedSource{specs: specs}}
	for _, s := range specs {
		if s.Alias == "" || x.masks[s.Alias] != nil {
			continue
		}
		mask := make([]bool, len(specs))
		for i, t := range specs {
			mask[i] = t.Alias == s.Alias
		}
		x.masks[s.Alias] = mask
	}
	return x
}

func (x *Extender) mask(alias string) []bool {
	if m, ok := x.masks[alias]; ok {
		return m
	}
	return x.none
}

// Extend returns the aggregate of all trends ending at e matched under
// alias (agg.Specs.ExtendInto), in a node with its own Aux that the
// caller may keep.
func (x *Extender) Extend(pred agg.Node, alias string, e *event.Event, started uint64) agg.Node {
	var out agg.Node
	x.ExtendInto(&out, pred, alias, e, started)
	return out
}

// ExtendInto is Extend writing into dst, whose Aux storage is reused
// (agg.Specs.ExtendInto): a caller that merges the node right away
// extends into one scratch node and allocates nothing. dst must not
// alias pred.
func (x *Extender) ExtendInto(dst *agg.Node, pred agg.Node, alias string, e *event.Event, started uint64) {
	x.src.e = e
	x.specs.ExtendInto(dst, pred, x.mask(alias), &x.src, started)
}

// Fold returns the aggregate of one materialised trend, events[i]
// matched under aliases[i] — the two-step baselines' second step. The
// node lives in scratch storage that the next Fold overwrites: merge it
// (GroupCollector.Add copies by value) before folding again.
func (x *Extender) Fold(aliases []string, events []*event.Event) agg.Node {
	cur, next := &x.a, &x.b
	x.specs.ZeroInto(cur)
	for i, e := range events {
		started := uint64(0)
		if i == 0 {
			started = 1
		}
		x.src.e = e
		x.specs.ExtendInto(next, *cur, x.mask(aliases[i]), &x.src, started)
		cur, next = next, cur
	}
	return *cur
}
