package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fuzz/diff"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/query"
)

// all approaches in column order; unsupported combinations render n/s.
var allApproaches = []string{ApproachCogra, ApproachGreta, ApproachASeq, ApproachSase, ApproachFlink}

// tumbling parses a figure's query text with its window filled in as
// WITHIN n SLIDE n: every sweep point gets exactly one full window, so
// "events per window" is the swept quantity, like the paper's x-axes.
func tumbling(text string, n int) *query.Query {
	return query.MustParse(fmt.Sprintf(text, n))
}

// fig5Query is q1's shape: contiguously increasing heart rate per
// patient.
const fig5Query = `RETURN COUNT(*), MAX(M.rate)
PATTERN (Measurement M)+
SEMANTICS contiguous
WHERE [patient] AND M.rate < NEXT(M).rate
GROUP-BY patient
WITHIN %[1]d SLIDE %[1]d`

// Fig5 — contiguous semantics on the physical-activity stream:
// q1-style contiguously increasing heart rate per patient. Two-step
// approaches remain feasible here because contiguous trends are few
// and short (§9.2), but COGRA still wins by a widening factor.
func Fig5(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 5: latency/memory/throughput vs events per window — contiguous (physical activity)",
		XLabel:  "events",
		Columns: allApproaches,
	}
	for _, base := range []int{1000, 5000, 20000, 50000, 100000} {
		n := cfg.scaled(base)
		events := gen.Activity(gen.ActivityConfig{Seed: 5, Events: n, RunLength: 6})
		plan, err := core.NewPlan(tumbling(fig5Query, n))
		if err != nil {
			return err
		}
		row, err := cfg.sweep(plan, events, allApproaches, fmt.Sprint(n))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// fig6Query counts Kleene trips per passenger.
const fig6Query = `RETURN COUNT(*)
PATTERN (SEQ((Board B)+, Ride R))+
SEMANTICS skip-till-next-match
WHERE [passenger]
GROUP-BY passenger
WITHIN %[1]d SLIDE %[1]d`

// Fig6 — skip-till-next-match on the public-transportation stream:
// Kleene trips per passenger. The number of NEXT trends is polynomial
// (Table 3), so the two-step SASE degrades quadratically and stops
// terminating, while COGRA stays linear.
func Fig6(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 6: latency/memory/throughput vs events per window — skip-till-next-match (public transportation)",
		XLabel:  "events",
		Columns: allApproaches,
	}
	for _, base := range []int{1000, 5000, 20000, 50000, 100000} {
		n := cfg.scaled(base)
		events := gen.Transit(gen.TransitConfig{Seed: 6, Events: n, Passengers: 30})
		plan, err := core.NewPlan(tumbling(fig6Query, n))
		if err != nil {
			return err
		}
		row, err := cfg.sweep(plan, events, allApproaches, fmt.Sprint(n))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// fig7Query is the q3-shaped stock query without predicates on
// adjacent events: COGRA runs it type-grained.
const fig7Query = `RETURN COUNT(*), AVG(B.price)
PATTERN SEQ((Stock A)+, (Stock B)+)
SEMANTICS skip-till-any-match
WHERE [company]
GROUP-BY company
WITHIN %[1]d SLIDE %[1]d`

// Fig7 — skip-till-any-match on the stock stream, all approaches: the
// number of trends grows exponentially (Table 3), so the two-step
// approaches (Flink, SASE) blow up and stop terminating almost
// immediately, while the online approaches survive.
func Fig7(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 7: latency/memory/throughput vs events per window — skip-till-any-match (stock), all approaches",
		XLabel:  "events",
		Columns: allApproaches,
	}
	for _, base := range []int{200, 500, 1000, 5000, 20000} {
		n := cfg.scaled(base)
		events := gen.Stock(gen.StockConfig{Seed: 7, Events: n})
		plan, err := core.NewPlan(tumbling(fig7Query, n))
		if err != nil {
			return err
		}
		row, err := cfg.sweep(plan, events, allApproaches, fmt.Sprint(n))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// Fig8 — skip-till-any-match at high rates, online approaches only:
// GRETA's event-granularity graph degrades quadratically and stops
// terminating; A-Seq pays its flattened query workload; COGRA's
// latency stays linear with constant memory.
func Fig8(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 8: latency/memory/throughput vs events per window — skip-till-any-match (stock), online approaches",
		XLabel:  "events",
		Columns: []string{ApproachCogra, ApproachGreta, ApproachASeq},
	}
	for _, base := range []int{10000, 50000, 100000, 200000} {
		n := cfg.scaled(base)
		events := gen.Stock(gen.StockConfig{Seed: 8, Events: n})
		plan, err := core.NewPlan(tumbling(fig7Query, n))
		if err != nil {
			return err
		}
		row, err := cfg.sweep(plan, events, table.Columns, fmt.Sprint(n))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// Fig9 — predicate selectivity on the stock stream: adjacent-event
// predicates make COGRA select the mixed granularity. Higher
// selectivity means more and longer trends: the two-step approaches
// degrade exponentially and stop terminating, the online ones stay
// flat. A-Seq does not support such predicates (Table 9).
func Fig9(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 9: latency/memory vs predicate selectivity — skip-till-any-match (stock)",
		XLabel:  "selectivity",
		Columns: allApproaches,
	}
	// The sweep reaches below the paper's 10%. An event can extend
	// selectivity × sub-stream size predecessors on average (a
	// company's sub-stream is about n/19 events), and once that fan-out
	// passes about one, the trends the two-step approaches enumerate
	// multiply with every event. At this scale 10% is far past that
	// point, so 0.1% and 1% show where they still finish.
	n := cfg.scaled(6000)
	stock := gen.Stock(gen.StockConfig{Seed: 9, Events: n})
	for _, sel := range fig9Selectivities {
		events := withSelectivity(stock, sel)
		// SEQ(A+, B) leaves no unguarded Kleene transition: the swept
		// selectivity controls every adjacency. Predicates restrict
		// pairs whose predecessor is an A, so Te = {A} (Theorem 5.1):
		// COGRA stores A-events but keeps B at type granularity — the
		// mixed-vs-event comparison of §9.3.
		plan, err := core.NewPlan(tumbling(fig9Query, n))
		if err != nil {
			return err
		}
		if plan.Granularity != core.MixedGrained || !plan.EventGrained["A"] || plan.EventGrained["B"] {
			return fmt.Errorf("fig9: expected mixed granularity with Te={A}, got %v / %v", plan.Granularity, plan.EventGrained)
		}
		row, err := cfg.sweep(plan, events, allApproaches, fmt.Sprintf("%g%%", sel*100))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// fig9Query guards every adjacency of SEQ(A+, B) with the swept
// selectivity.
const fig9Query = `RETURN COUNT(*)
PATTERN SEQ((Stock A)+, Stock B)
SEMANTICS skip-till-any-match
WHERE [company] AND A.u <= NEXT(A).y AND A.u <= NEXT(B).y
GROUP-BY company
WITHIN %[1]d SLIDE %[1]d`

// fig9Selectivities are Figure 9's sweep points.
var fig9Selectivities = []float64{0.001, 0.01, 0.1, 0.5, 0.9}

// withSelectivity copies events, giving each a numeric attribute
// y = v^(1/sel − 1) with v ~ U[0,1) drawn from a seeded source of its
// own. The stock attribute u is uniform on [0,1) and independent of y,
// so P(u ≤ y) = E[y] = sel: the adjacent predicate A.u <= NEXT(B).y
// passes a sel fraction of pairs at every swept selectivity.
func withSelectivity(events []*event.Event, sel float64) []*event.Event {
	rng := rand.New(rand.NewSource(99))
	k := 1/sel - 1
	out := make([]*event.Event, len(events))
	for i, e := range events {
		out[i] = e.Clone().WithNum("y", math.Pow(rng.Float64(), k))
	}
	return out
}

// fig10Query averages the boarding wait of each passenger's trips.
const fig10Query = `RETURN COUNT(*), AVG(B.wait)
PATTERN SEQ((Board B)+, Ride R)
SEMANTICS skip-till-any-match
WHERE [passenger]
GROUP-BY passenger
WITHIN %[1]d SLIDE %[1]d`

// Fig10 — number of trend groups on the public-transportation stream:
// grouping partitions the stream, so more groups mean smaller
// sub-streams. The two-step approaches only terminate once the
// sub-streams are small enough; the online approaches improve mildly.
func Fig10(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Figure 10: latency/memory vs number of trend groups — skip-till-any-match (public transportation)",
		XLabel:  "groups",
		Columns: allApproaches,
	}
	n := cfg.scaled(400)
	for _, groups := range []int{5, 10, 15, 20, 25, 30} {
		events := gen.Transit(gen.TransitConfig{Seed: 10, Events: n, Passengers: groups})
		plan, err := core.NewPlan(tumbling(fig10Query, n))
		if err != nil {
			return err
		}
		row, err := cfg.sweep(plan, events, allApproaches, fmt.Sprint(groups))
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, row)
	}
	fmt.Fprint(out, table.Format())
	return nil
}

// Table9 — the expressive-power matrix, regenerated by probing every
// approach with tiny queries rather than hardcoded.
func Table9(cfg Config, out io.Writer) error {
	probes := []struct {
		feature string
		mk      func() *query.Query
	}{
		{"skip-till-any-match", func() *query.Query {
			return query.MustParse(`RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 10 SLIDE 10`)
		}},
		{"skip-till-next-match", func() *query.Query {
			return query.MustParse(`RETURN COUNT(*) PATTERN A+ SEMANTICS next WITHIN 10 SLIDE 10`)
		}},
		{"contiguous", func() *query.Query {
			return query.MustParse(`RETURN COUNT(*) PATTERN A+ SEMANTICS cont WITHIN 10 SLIDE 10`)
		}},
		{"adjacent predicates", func() *query.Query {
			return query.MustParse(`RETURN COUNT(*) PATTERN A+ WHERE A.x < NEXT(A).x WITHIN 10 SLIDE 10`)
		}},
		{"negation", func() *query.Query {
			return query.MustParse(`RETURN COUNT(*) PATTERN SEQ(A+, NOT(N), B) WITHIN 10 SLIDE 10`)
		}},
	}
	events := []*event.Event{
		event.New("A", 1).WithNum("x", 1),
		event.New("A", 2).WithNum("x", 2),
		event.New("B", 3).WithNum("x", 3),
	}
	fmt.Fprintf(out, "%-22s", "feature")
	for _, a := range allApproaches {
		fmt.Fprintf(out, "%-8s", a)
	}
	fmt.Fprintln(out)
	facts := cfg.factories()
	for _, p := range probes {
		fmt.Fprintf(out, "%-22s", p.feature)
		plan, err := core.NewPlan(p.mk())
		if err != nil {
			return err
		}
		for _, a := range allApproaches {
			r := facts[a](plan, nil)
			cloned := make([]*event.Event, len(events))
			for i, e := range events {
				cloned[i] = e.Clone()
				cloned[i].ID = 0
			}
			_, err := r.Run(cloned)
			if err != nil {
				fmt.Fprintf(out, "%-8s", "-")
			} else {
				fmt.Fprintf(out, "%-8s", "+")
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// The ablation's query, type-grained as written; ablationMixedQuery
// adds an adjacent predicate that every pair of a company's sub-stream
// passes, which forces the mixed granularity.
const (
	ablationTypeQuery = `RETURN COUNT(*)
PATTERN SEQ((Stock A)+, (Stock B)+)
SEMANTICS skip-till-any-match
WHERE [company]
GROUP-BY company
WITHIN %[1]d SLIDE %[1]d`
	ablationMixedQuery = `RETURN COUNT(*)
PATTERN SEQ((Stock A)+, (Stock B)+)
SEMANTICS skip-till-any-match
WHERE [company] AND A.company = NEXT(B).company
GROUP-BY company
WITHIN %[1]d SLIDE %[1]d`
)

// Ablation — the granularity design choice of §3.3 isolated on one
// query and stream: the same skip-till-any-match query executed with
// type-grained aggregates (COGRA's choice), mixed-grained aggregates
// (forced by an adjacent predicate that every pair of a company's
// sub-stream passes) and event-grained aggregates (GRETA).
func Ablation(cfg Config, out io.Writer) error {
	table := &Table{
		Title:   "Ablation: aggregation granularity (type vs mixed vs event) on one ANY query",
		XLabel:  "events",
		Columns: []string{"type", "mixed", "event"},
	}
	for _, base := range []int{5000, 20000, 50000} {
		n := cfg.scaled(base)
		events := gen.Stock(gen.StockConfig{Seed: 11, Events: n})
		typePlan, err := core.NewPlan(tumbling(ablationTypeQuery, n))
		if err != nil {
			return err
		}
		mixedPlan, err := core.NewPlan(tumbling(ablationMixedQuery, n))
		if err != nil {
			return err
		}
		if typePlan.Granularity != core.TypeGrained || mixedPlan.Granularity != core.MixedGrained {
			return fmt.Errorf("ablation: unexpected granularities %v/%v", typePlan.Granularity, mixedPlan.Granularity)
		}
		facts := cfg.factories()
		rw := Row{X: fmt.Sprint(n), Runs: map[string]metrics.Run{}}
		typeRun, typeResults := measure("type", facts[ApproachCogra], typePlan, events)
		rw.Runs["type"] = typeRun
		mixedRun, mixedResults := measure("mixed", facts[ApproachCogra], mixedPlan, events)
		rw.Runs["mixed"] = mixedRun
		// Under [company] every adjacent pair shares its company, so the
		// mixed plan's one adjacent predicate accepts every pair and both
		// plans define the same trends; COUNT-only results make the
		// comparison exact.
		if cfg.Verify && typeRun.Err == nil && mixedRun.Err == nil && diff.Compare(mixedResults, typeResults, diff.FloatTol) != "" {
			return fmt.Errorf("ablation: mixed granularity disagrees with type granularity at %d events", n)
		}
		run, _ := measure("event", facts[ApproachGreta], typePlan, events)
		rw.Runs["event"] = run
		table.Rows = append(table.Rows, rw)
	}
	fmt.Fprint(out, table.Format())
	return nil
}
