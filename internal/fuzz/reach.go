// Reach properties: what a scenario must exercise for its replay to
// prove anything. A corpus file names them on its reach line, and its
// replay fails when the scenario or its base run lacks one, so a
// scenario whose stream lost its ties, or whose fleet stopped sharing,
// cannot pass vacuously.
package fuzz

import (
	"fmt"

	cogra "repro"
	"repro/internal/core"
	"repro/internal/fuzz/diff"
)

// reachProp is one entry of the fixed table. Stream properties read
// the scenario alone; the others read the base run (intern-3x also
// runs the bare engines).
type reachProp struct {
	name string
	doc  string
	// stream reports what the scenario lacks ("" when reached).
	stream func(sc *Scenario) string
	// run reports what the base run lacks.
	run func(sc *Scenario, base *RunOutput) (string, error)
}

func reachTable() []reachProp {
	return []reachProp{
		{name: "tie-runs", doc: "three same-type events in a row share a time stamp",
			stream: func(sc *Scenario) string {
				ev, longest := sc.Events, 1
				for i, run := 1, 1; i < len(ev); i++ {
					if ev[i].Type == ev[i-1].Type && ev[i].Time == ev[i-1].Time {
						run++
					} else {
						run = 1
					}
					longest = max(longest, run)
				}
				if longest < 3 {
					return fmt.Sprintf("the longest equal-time same-type run is %d events", longest)
				}
				return ""
			}},
		{name: "interleaved-ties", doc: "an equal-time group splits one type into several runs",
			stream: func(sc *Scenario) string {
				ev := sc.Events
				for i := 0; i < len(ev); {
					seen, j := map[string]bool{}, i
					for ; j < len(ev) && ev[j].Time == ev[i].Time; j++ {
						if j > i && ev[j].Type == ev[j-1].Type {
							continue
						}
						if seen[ev[j].Type] {
							return ""
						}
						seen[ev[j].Type] = true
					}
					i = j
				}
				return "no equal-time group splits a type across runs"
			}},
		{name: "straddles", doc: "a same-type run crosses a window boundary of the smallest slide",
			stream: func(sc *Scenario) string {
				slide := int64(0)
				for _, sub := range sc.Subs {
					if q, err := cogra.Parse(sub.Src); err == nil && (slide == 0 || q.Window.Slide < slide) {
						slide = q.Window.Slide
					}
				}
				ev := sc.Events
				for i := 1; i < len(ev) && slide > 0; i++ {
					if ev[i].Type == ev[i-1].Type && ev[i].Time/slide != ev[i-1].Time/slide {
						return ""
					}
				}
				return fmt.Sprintf("no same-type run crosses a multiple of the smallest slide %d", slide)
			}},
		{name: "cut-in-tie", doc: "the snapshot cut splits an equal-time same-type run",
			stream: func(sc *Scenario) string {
				k := sc.SnapshotAt
				if k <= 0 || k >= len(sc.Events) || sc.Events[k].Time != sc.Events[k-1].Time || sc.Events[k].Type != sc.Events[k-1].Type {
					return fmt.Sprintf("the cut at %d does not split an equal-time same-type run", k)
				}
				return ""
			}},
		{name: "vector-slots", doc: "a query binds more than two slots, so its bindings intern value-id vectors",
			stream: func(sc *Scenario) string {
				for _, sub := range sc.Subs {
					if q, err := cogra.Parse(sub.Src); err == nil {
						if plan, err := core.NewPlan(q); err == nil && len(plan.Slots) > 2 {
							return ""
						}
					}
				}
				return "no query binds more than two slots"
			}},
		{name: "results-every-sub", doc: "every subscription reports a result",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				for si, rows := range base.Results {
					if len(rows) == 0 {
						return fmt.Sprintf("sub %d reports nothing", si), nil
					}
				}
				return "", nil
			}},
		{name: "shared-group", doc: "a sharing group forms (SharedGroups >= 1) and saves work",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				for _, s := range base.Samples {
					if s.SharedGroups >= 1 && base.Stats.SharedSavedOps >= 1 {
						return "", nil
					}
				}
				return fmt.Sprintf("no sample shows a sharing group, or none saved work (saved=%d)", base.Stats.SharedSavedOps), nil
			}},
		{name: "share-flip", doc: "a sharing group hands over to a new host (ShareFlips >= 1)",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				if base.Stats.ShareFlips < 1 {
					return "ShareFlips = 0", nil
				}
				return "", nil
			}},
		{name: "fallback-worker", doc: "a late joiner runs on the fallback worker (ExecutorGroups >= 1)",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				for _, s := range base.Samples {
					if s.ExecutorGroups >= 1 {
						return "", nil
					}
				}
				return "no sample shows a fallback worker", nil
			}},
		{name: "compaction", doc: "an unsubscribe compacts the catalog (CatalogCompactions >= 1)",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				if base.Stats.CatalogCompactions < 1 {
					return "CatalogCompactions = 0", nil
				}
				return "", nil
			}},
		{name: "groups-retired", doc: "no sharing group or fallback worker is left after the last event",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				if st := base.Stats; st.SharedGroups != 0 || st.ExecutorGroups != 0 {
					return fmt.Sprintf("%d sharing groups and %d fallback workers are left", st.SharedGroups, st.ExecutorGroups), nil
				}
				return "", nil
			}},
		{name: "intern-3x", doc: "the bare engines intern at least 3x the session's peak binding bytes",
			run: func(sc *Scenario, base *RunOutput) (string, error) {
				var peak, solo int64
				for _, s := range base.Samples {
					peak = max(peak, s.BindingInternBytes)
				}
				for si, sub := range sc.Subs {
					_, eng, err := diff.EngineRun(sub.Src, sc.Events[:sub.Leave])
					if err != nil {
						return "", fmt.Errorf("sub %d: solo engine: %w", si, err)
					}
					solo += eng.InternBytes()
				}
				if peak == 0 || solo < 3*peak {
					return fmt.Sprintf("the bare engines intern %d B against the session's peak %d B", solo, peak), nil
				}
				return "", nil
			}},
	}
}

func reachByName(name string) *reachProp {
	for _, p := range reachTable() {
		if p.name == name {
			return &p
		}
	}
	return nil
}

// checkReach reports the first named property the scenario or its
// base run lacks; "" when it reaches them all.
func checkReach(sc *Scenario, names []string) (string, error) {
	var base *RunOutput
	for _, name := range names {
		p := reachByName(name)
		if p == nil {
			return "", fmt.Errorf("unknown reach property %q", name)
		}
		var lack string
		if p.stream != nil {
			lack = p.stream(sc)
		} else {
			if base == nil {
				var err error
				if base, err = Execute(sc, BaseMode(sc)); err != nil {
					return "", err
				}
			}
			var err error
			if lack, err = p.run(sc, base); err != nil {
				return "", err
			}
		}
		if lack != "" {
			return fmt.Sprintf("%s (%s): %s", name, p.doc, lack), nil
		}
	}
	return "", nil
}
