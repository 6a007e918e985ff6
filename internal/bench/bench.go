// Package bench is the experiment harness for §9: it regenerates
// every figure and table of the paper's evaluation as text series —
// latency, peak memory and throughput per approach over the swept
// parameter — using the synthetic workloads of internal/gen.
//
// Event counts are scaled to laptop budgets (Config.Scale); the
// reproduction target is the shape of each curve — which approach
// wins, growth classes, and where the two-step approaches stop
// terminating (shown as DNF, enforced by work budgets) — not the
// paper's absolute numbers, which were measured on a 16-core server
// against proprietary traces.
package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fuzz/diff"
	"repro/internal/metrics"
)

// Config tunes the harness.
type Config struct {
	// Scale multiplies every event count (1.0 = the default laptop
	// scale; raise it on beefier machines).
	Scale float64
	// TwoStepBudget is the work budget for SASE and Flink; exceeding
	// it reports DNF, like the paper's non-terminating runs.
	TwoStepBudget int64
	// OnlineBudget is the work budget for GRETA and A-Seq.
	OnlineBudget int64
	// FlattenCap bounds Kleene flattening for A-Seq and Flink. The
	// paper flattens to the longest match length, which at bench scale
	// reaches a whole sub-stream: one flattened sub-query per length
	// would not finish. The cap keeps the flattened workload finite;
	// a capped run misses longer trends, so sweep does not verify it.
	FlattenCap int
	// Verify cross-checks every completed run against COGRA's
	// results, and the ablation's mixed plan against its type plan; a
	// mismatch fails the experiment (slower; on by default).
	Verify bool
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:         1.0,
		TwoStepBudget: 40_000_000,
		OnlineBudget:  400_000_000,
		FlattenCap:    12,
		Verify:        true,
	}
}

// scaled applies the scale factor to an event count.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Approach names, in the column order of the report tables.
const (
	ApproachCogra = "COGRA"
	ApproachGreta = "GRETA"
	ApproachASeq  = "A-Seq"
	ApproachSase  = "SASE"
	ApproachFlink = "Flink"
)

// Row is one sweep point of an experiment.
type Row struct {
	// X is the swept parameter value (events per window, selectivity,
	// number of groups, ...).
	X string
	// Runs holds one measured run per approach.
	Runs map[string]metrics.Run
}

// Table is one report table (one figure panel group).
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
}

// Format renders the latency / memory / throughput panels of a table,
// mirroring the (a)/(b)/(c) panels of the paper's figures.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	panels := []struct {
		name string
		get  func(metrics.Run) string
	}{
		{"latency", func(r metrics.Run) string { return fmtDuration(r.Latency) }},
		{"peak memory", func(r metrics.Run) string { return metrics.FormatBytes(r.PeakBytes) }},
		{"throughput (events/s)", func(r metrics.Run) string { return fmt.Sprintf("%.3g", r.Throughput()) }},
	}
	for _, p := range panels {
		fmt.Fprintf(&b, "\n  %s\n", p.name)
		fmt.Fprintf(&b, "  %-12s", t.XLabel)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "%-14s", c)
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "  %-12s", row.X)
			for _, c := range t.Columns {
				run, ok := row.Runs[c]
				switch {
				case !ok || run.Unsupported:
					fmt.Fprintf(&b, "%-14s", "n/s") // not supported (Table 9)
				case run.DNF:
					fmt.Fprintf(&b, "%-14s", "DNF")
				case run.Err != nil:
					fmt.Fprintf(&b, "%-14s", "ERR")
				default:
					fmt.Fprintf(&b, "%-14s", p.get(run))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// runnerFactory builds a fresh runner (with fresh accounting) for one
// measured run.
type runnerFactory func(plan *core.Plan, acct *metrics.Accountant) baselines.Runner

// measure executes one approach once and converts the outcome into a
// metrics.Run.
func measure(name string, factory runnerFactory, plan *core.Plan, events []*event.Event) (metrics.Run, []core.Result) {
	var acct metrics.Accountant
	r := factory(plan, &acct)
	run := metrics.Run{Name: name, Events: int64(len(events))}
	var timer metrics.Timer
	timer.Start()
	results, err := r.Run(events)
	timer.Stop()
	run.Latency = timer.Elapsed()
	run.PeakBytes = acct.Peak()
	var dnf baselines.ErrBudget
	var unsup baselines.ErrUnsupported
	switch {
	case errors.As(err, &dnf):
		run.DNF = true
	case errors.As(err, &unsup):
		run.Unsupported = true
	case err != nil:
		run.Err = err
	}
	return run, results
}

// factories returns the per-approach runner factories for a config.
func (c Config) factories() map[string]runnerFactory {
	return map[string]runnerFactory{
		ApproachCogra: func(plan *core.Plan, acct *metrics.Accountant) baselines.Runner {
			return &baselines.CograRunner{Plan: plan, Acct: acct}
		},
		ApproachGreta: newGreta(c),
		ApproachASeq:  newASeq(c),
		ApproachSase:  newSase(c),
		ApproachFlink: newFlink(c),
	}
}

// sweep measures the given approaches at sweep point x. Where
// configured it verifies every completed run against COGRA's results
// and reports the first disagreement as an error.
func (c Config) sweep(plan *core.Plan, events []*event.Event, approaches []string, x string) (Row, error) {
	facts := c.factories()
	row := Row{X: x, Runs: map[string]metrics.Run{}}
	var ref []core.Result
	for _, name := range approaches {
		run, results := measure(name, facts[name], plan, events)
		row.Runs[name] = run
		if run.DNF || run.Unsupported || run.Err != nil {
			continue
		}
		if name == ApproachCogra {
			ref = results
			continue
		}
		// Capped flattening legitimately misses trends longer than the
		// cap, so A-Seq and Flink are only verified when uncapped.
		capped := (name == ApproachASeq || name == ApproachFlink) &&
			c.FlattenCap > 0 && c.FlattenCap < len(events)
		if c.Verify && !capped && ref != nil && diff.Compare(results, ref, diff.FloatTol) != "" {
			return row, fmt.Errorf("%s disagrees with COGRA at sweep point %s", name, x)
		}
	}
	return row, nil
}

// Experiment is one reproducible experiment of §9.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, out io.Writer) error
}

// Registry returns all experiments keyed by id.
func Registry() map[string]Experiment {
	exps := []Experiment{
		{ID: "fig5", Title: "Figure 5: contiguous semantics (physical activity)", Run: Fig5},
		{ID: "fig6", Title: "Figure 6: skip-till-next-match (public transportation)", Run: Fig6},
		{ID: "fig7", Title: "Figure 7: skip-till-any-match, all approaches (stock)", Run: Fig7},
		{ID: "fig8", Title: "Figure 8: skip-till-any-match, online approaches (stock)", Run: Fig8},
		{ID: "fig9", Title: "Figure 9: predicate selectivity (stock)", Run: Fig9},
		{ID: "fig10", Title: "Figure 10: event trend grouping (public transportation)", Run: Fig10},
		{ID: "table9", Title: "Table 9: expressive power matrix", Run: Table9},
		{ID: "ablation", Title: "Ablation: aggregation granularity on one query", Run: Ablation},
	}
	m := map[string]Experiment{}
	for _, e := range exps {
		m[e.ID] = e
	}
	return m
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, oj := orderOf(ids[i]), orderOf(ids[j])
		return oi < oj
	})
	return ids
}

func orderOf(id string) int {
	order := map[string]int{
		"fig5": 0, "fig6": 1, "fig7": 2, "fig8": 3, "fig9": 4, "fig10": 5,
		"table9": 6, "ablation": 7,
	}
	if v, ok := order[id]; ok {
		return v
	}
	return 99
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, out io.Writer) error {
	reg := Registry()
	for _, id := range IDs() {
		e := reg[id]
		fmt.Fprintf(out, "== %s ==\n", e.Title)
		if err := e.Run(cfg, out); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out)
	}
	return nil
}
