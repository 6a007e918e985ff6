package main

// Reference computation: every query of a portfolio runs on its own
// solo core.Engine, compiled against its own catalog, over the
// time-sorted stream. A lap's results must equal the reference as a
// multiset, whatever path they took (bytes, batches, workers, a
// restore, a network hop, a sharing group).

import (
	"math"

	cogra "repro"
	"repro/internal/core"
)

// qsum is an order-independent digest of one query's results: their
// number and the wrapping sum of their hashes.
type qsum struct {
	n int64
	h uint64
}

const fnvPrime = 0x100000001b3

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func (s *qsum) add(r *cogra.Result) {
	h := mix(0xcbf29ce484222325, uint64(r.Wid))
	for _, g := range r.Group {
		for i := 0; i < len(g); i++ {
			h = (h ^ uint64(g[i])) * fnvPrime
		}
		h = (h ^ 0xff) * fnvPrime
	}
	for i := range r.Values {
		v := &r.Values[i]
		h = mix(h, v.Count)
		if v.Valid {
			h = mix(h, math.Float64bits(v.F))
		}
	}
	s.n++
	s.h += h
}

// reference runs the portfolio over one stream on solo engines. An
// engine is fed the events of the types its pattern names (every
// event under contiguous semantics, where an unmatched event breaks a
// trend) and the watermark of every tick.
func reference(s *source, queries []*cogra.Query) ([]qsum, error) {
	sums := make([]qsum, len(queries))
	engines := make([]*core.Engine, len(queries))
	byType := map[string][]*core.Engine{}
	for qi, q := range queries {
		plan, err := core.NewPlan(q)
		if err != nil {
			return nil, err
		}
		sum := &sums[qi]
		eng := core.NewEngine(plan, core.WithResultCallback(func(r core.Result) { sum.add(&r) }))
		engines[qi] = eng
		subscribed := map[int32]bool{}
		for _, tid := range plan.SubscribedTypeIDs() {
			subscribed[tid] = true
		}
		for _, name := range s.types {
			tid, ok := plan.Catalog().TypeID(name)
			if plan.WantsAllEvents() || (ok && subscribed[tid]) {
				byType[name] = append(byType[name], eng)
			}
		}
	}
	const chunk = 4096
	last := int64(math.MinInt64)
	for lo := 0; lo < len(s.recs); lo += chunk {
		for _, e := range s.sorted(lo, min(lo+chunk, len(s.recs))) {
			if e.Time != last {
				for _, eng := range engines {
					if err := eng.AdvanceWatermark(e.Time); err != nil {
						return nil, err
					}
				}
				last = e.Time
			}
			for _, eng := range byType[e.Type] {
				if err := eng.Process(e); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, eng := range engines {
		eng.Close()
	}
	return sums, nil
}
