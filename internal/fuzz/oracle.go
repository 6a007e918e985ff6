// The metamorphic oracle suite. Each oracle checks one correctness
// property of a scenario: a self-differential (base execution mode vs
// the same scenario with exactly one mode axis flipped), the solo
// differential (the base-mode session vs one plain engine per
// subscription) or a baseline differential (COGRA vs the independent
// reference implementations where the query's shape permits). The
// oracles that make a base-mode run also check its invariants
// (checkInvariants). Oracles are pure: Check re-executes the scenario,
// so the shrinker can re-ask "does this smaller scenario still fail?".
package fuzz

import (
	"errors"
	"fmt"
	"slices"

	cogra "repro"
	"repro/internal/baselines"
	"repro/internal/baselines/aseq"
	"repro/internal/baselines/flinklite"
	"repro/internal/baselines/greta"
	"repro/internal/baselines/sase"
	"repro/internal/core"
	"repro/internal/fuzz/diff"
	"repro/internal/stream"
)

// Oracle is one pluggable correctness check.
type Oracle struct {
	// Name identifies the oracle in reports and repro files.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Check runs the oracle. It returns "" when the scenario passes or
	// the oracle does not apply to it (an inapplicable scenario cannot
	// fail — this is what keeps the shrinker from wandering out of the
	// oracle's domain), and a mismatch description otherwise. The
	// error return is for scenario execution breaking outright, which
	// is itself reported as a failure by the runner.
	Check func(sc *Scenario) (string, error)
}

// Oracles returns the full suite, in deterministic order.
func Oracles() []Oracle {
	return []Oracle{
		{
			Name: "batch",
			Doc:  "batch kernels == per-event execution, sorted and under slack",
			Check: func(sc *Scenario) (string, error) {
				return selfDiff(sc, true, func(m *Mode) {
					if m.BatchSize > 0 {
						m.BatchSize = 0
					} else {
						m.BatchSize = 256
					}
				})
			},
		},
		{
			Name: "workers",
			Doc:  "4-worker parallel session == inline, drain by drain",
			Check: func(sc *Scenario) (string, error) {
				return selfDiff(sc, false, func(m *Mode) {
					if m.Workers > 0 {
						m.Workers = 0
					} else {
						m.Workers = 4
					}
				})
			},
		},
		{
			Name: "slack",
			Doc:  "shuffled-within-slack == sorted",
			Check: func(sc *Scenario) (string, error) {
				if sc.HasChurn() {
					return "", nil // join watermarks differ under reorder buffering
				}
				return selfDiff(sc, false, func(m *Mode) { m.Shuffled = true })
			},
		},
		{
			Name: "jitter",
			Doc:  "ingest-jittered-within-slack == sorted",
			Check: func(sc *Scenario) (string, error) {
				if sc.HasChurn() || sc.Jitter <= 0 {
					return "", nil // join watermarks differ under reorder buffering
				}
				return selfDiff(sc, false, func(m *Mode) { m.Jittered = true })
			},
		},
		{
			Name:  "late",
			Doc:   "under-slacked session == solo run over the predicted survivors",
			Check: checkLate,
		},
		{
			Name:  "solo",
			Doc:   "session (sharing, eviction, compaction) == one non-evicting engine per subscription",
			Check: checkSolo,
		},
		{
			Name: "snapshot",
			Doc:  "snapshot-at-k + restore + suffix == undisturbed (results and Stats), sorted and under slack",
			Check: func(sc *Scenario) (string, error) {
				if sc.SnapshotAt <= 0 || sc.SnapshotAt >= len(sc.Events) {
					return "", nil
				}
				return selfDiff(sc, true, func(m *Mode) { m.SnapshotAt = sc.SnapshotAt })
			},
		},
		{
			Name: "server",
			Doc:  "cograd-served tenant, checkpointed on a cadence, == embedded session",
			Check: func(sc *Scenario) (string, error) {
				return selfDiff(sc, false, func(m *Mode) { m.Server = true })
			},
		},
		{
			Name:  "baselines",
			Doc:   "COGRA == SASE/GRETA/A-Seq/Flink solo references (small scenarios)",
			Check: checkBaselines,
		},
	}
}

// OracleByName finds one oracle; nil when unknown.
func OracleByName(name string) *Oracle {
	for _, o := range Oracles() {
		if o.Name == name {
			oc := o
			return &oc
		}
	}
	return nil
}

// selfDiff runs the scenario under its base mode and under the mode
// flip makes of it, checks the base run's invariants and compares every
// subscription's results. A flipped run that pushes the same batches
// must drain the same rows at every drain; one that cut a snapshot must
// keep Stats() continuous across the cut and end with the base run's
// Stats(). underSlack also compares the shuffled base with the same
// flip, on a churn-free scenario: the flipped axis with the reorder
// buffer in the path.
func selfDiff(sc *Scenario, underSlack bool, flip func(*Mode)) (string, error) {
	base := BaseMode(sc)
	if m, err := DiffModes(sc, base, flip); m != "" || err != nil || !underSlack || sc.HasChurn() {
		return m, err
	}
	base.Shuffled = true
	return DiffModes(sc, base, flip)
}

// DiffModes is one half of a self-differential: the scenario run under
// baseMode, whose invariants it checks, against the same run with flip
// applied. It returns "" when they agree.
func DiffModes(sc *Scenario, baseMode Mode, flip func(*Mode)) (string, error) {
	flipped := baseMode
	flip(&flipped)
	base, err := Execute(sc, baseMode)
	if err != nil {
		return "", err
	}
	if m := checkInvariants(sc, base); m != "" {
		return m, nil
	}
	got, err := Execute(sc, flipped)
	if err != nil {
		return "", fmt.Errorf("flipped mode (%s): %w", flipped, err)
	}
	if m := checkInvariants(sc, got); m != "" {
		return fmt.Sprintf("%s: %s", flipped, m), nil
	}
	for si := range sc.Subs {
		if d := diff.Compare(got.Results[si], base.Results[si], sc.tolerance()); d != "" {
			return fmt.Sprintf("sub %d: %s != base (%s)\n%s", si, flipped, baseMode, d), nil
		}
	}
	if got.CutDrift != "" {
		return fmt.Sprintf("%s: %s", flipped, got.CutDrift), nil
	}
	if flipped.SnapshotAt > 0 && got.HasStats && base.HasStats {
		// A drawn scenario leaves PeakBytes out. Snapshot parks every
		// worker at the cut's watermark, which closes windows the
		// undisturbed run closes only at its next time stamp, after
		// another host's commit: the two runs can reach different
		// high-water marks, with or without the restore. An exact one
		// compares every field.
		gs, ws := got.Closed, base.Closed
		if !sc.Exact {
			gs.PeakBytes, ws.PeakBytes = 0, 0
		}
		if g, w := fmt.Sprintf("%+v", gs), fmt.Sprintf("%+v", ws); g != w {
			return fmt.Sprintf("Stats() after Close: %s != base (%s)\ngot:  %s\nwant: %s", flipped, baseMode, g, w), nil
		}
	}
	// A flip of the worker count alone pushes the same batches, so both
	// sides drain at the same positions.
	sameBatches := flipped
	sameBatches.Workers = baseMode.Workers
	if sameBatches == baseMode && !slices.EqualFunc(got.Drains, base.Drains, slices.Equal) {
		return fmt.Sprintf("drain sizes: %s %v != base (%s) %v", flipped, got.Drains, baseMode, base.Drains), nil
	}
	return "", nil
}

// checkInvariants checks what one run must show whatever it is
// compared with: Stats().Watermark is monotone along the run, every
// drain is in strict (window, group) order, the reorder buffer stays
// within the scenario's MaxDepth and neither drops nor sheds an event
// (every disordered run is slacked to repair its disorder), and the
// final Stats() counts every pushed event (processed or still
// buffered), exactly the resident subscriptions and, once none is
// resident, no intern bytes. Every oracle that makes a run (selfDiff,
// checkSolo) reports a violation as its own mismatch.
func checkInvariants(sc *Scenario, out *RunOutput) string {
	var last StatsSample
	haveLast := false
	for _, s := range out.Samples {
		if sc.MaxDepth > 0 && s.ReorderDepth > sc.MaxDepth {
			return fmt.Sprintf("reorder depth %d after %d events exceeds the cap %d", s.ReorderDepth, s.AfterEvents, sc.MaxDepth)
		}
		if haveLast && last.WatermarkValid && (!s.WatermarkValid || s.Watermark < last.Watermark) {
			return fmt.Sprintf("watermark regressed: %d after %d events, then %d (valid=%v) after %d events",
				last.Watermark, last.AfterEvents, s.Watermark, s.WatermarkValid, s.AfterEvents)
		}
		if s.WatermarkValid {
			last, haveLast = s, true
		}
	}
	for si, drains := range out.Drains {
		rows, at := out.Results[si], 0
		for _, n := range drains {
			for i := at + 1; i < at+n; i++ {
				if core.CompareResults(rows[i-1], rows[i]) >= 0 {
					return fmt.Sprintf("sub %d: a drain is out of window-then-group order or repeats a (window, group): %v then %v",
						si, rows[i-1], rows[i])
				}
			}
			at += n
		}
	}
	if !out.HasStats {
		return ""
	}
	n := len(sc.Events)
	if st := out.Closed; st.LateDropped != 0 || st.ReorderShed != 0 {
		return fmt.Sprintf("events lost within slack: %d dropped late, %d shed", st.LateDropped, st.ReorderShed)
	}
	if st := out.Stats; st.Events+int64(st.ReorderDepth) != int64(n) {
		return fmt.Sprintf("Stats().Events = %d with %d buffered, want %d (events pushed)", st.Events, st.ReorderDepth, n)
	}
	resident := 0
	for _, s := range sc.Subs {
		if s.Leave == n {
			resident++
		}
	}
	if out.Stats.Queries != resident {
		return fmt.Sprintf("Stats().Queries = %d, want %d (resident subscriptions)", out.Stats.Queries, resident)
	}
	if resident == 0 && out.Stats.BindingInternBytes != 0 {
		return fmt.Sprintf("Stats().BindingInternBytes = %d after every subscription unsubscribed, want 0",
			out.Stats.BindingInternBytes)
	}
	return ""
}

// checkSolo compares the base-mode session — sharing, intern eviction,
// catalog compaction, workers and batching, whatever the scenario
// draws — subscription by subscription against the plainest reference
// there is: a core.Engine of its own, without eviction, fed the sorted
// stream. A leaver at l is that engine fed events[:l] and closed; a
// joiner at j keeps the windows starting after events[j-1].Time, its
// first fully covered window on.
func checkSolo(sc *Scenario) (string, error) {
	got, err := Execute(sc, BaseMode(sc)) // stamps the IDs the engines see
	if err != nil {
		return "", err
	}
	if m := checkInvariants(sc, got); m != "" {
		return m, nil
	}
	for si, sub := range sc.Subs {
		want, _, err := diff.EngineRun(sub.Src, sc.Events[:sub.Leave])
		if err != nil {
			return "", fmt.Errorf("sub %d: solo engine: %w", si, err)
		}
		if sub.Join > 0 {
			want = diff.FullWindowsAfter(want, sc.Events[sub.Join-1].Time)
		}
		if d := diff.Compare(got.Results[si], want, sc.tolerance()); d != "" {
			return fmt.Sprintf("sub %d: session (%s) != solo engine\n%s", si, BaseMode(sc), d), nil
		}
	}
	return "", nil
}

// checkLate exercises the DropLate path for real: the events are
// pushed in ingest-jitter order into a session whose slack is HALF of
// what the disorder needs, so the worst stragglers are genuinely
// dropped. The reference predicts the exact survivor set with a model
// stream.Reorderer at the same slack (the drop boundary is a pure
// function of the arrival sequence) and replays the survivors, in
// emission order, into an ordinary in-order session. Results must
// match and Stats().LateDropped must equal the predicted drop count.
func checkLate(sc *Scenario) (string, error) {
	if sc.HasChurn() || sc.Jitter <= 0 {
		return "", nil
	}
	for i, e := range sc.Events {
		e.ID = int64(i + 1)
	}
	jittered, slack := diff.JitterOrder(sc.Events, sc.Jitter, sc.ShuffleSeed)
	if slack < 2 {
		return "", nil // halving it would not drop anything
	}
	short := slack / 2
	model := stream.NewReorderer(short)
	var survivors []*cogra.Event
	for _, e := range jittered {
		out, err := model.Offer(e)
		if err != nil {
			return "", fmt.Errorf("late: model reorderer: %w", err)
		}
		survivors = append(survivors, out...)
	}
	survivors = append(survivors, model.Flush()...)
	dropped := int64(len(jittered) - len(survivors))
	if dropped == 0 {
		return "", nil
	}
	got, gotStats, err := runResident(sc, jittered, cogra.WithSlack(short))
	if err != nil {
		return "", fmt.Errorf("late: under-slacked run: %w", err)
	}
	want, _, err := runResident(sc, survivors)
	if err != nil {
		return "", fmt.Errorf("late: survivor replay: %w", err)
	}
	if gotStats.LateDropped != dropped {
		return fmt.Sprintf("Stats().LateDropped = %d, want %d (predicted by a slack-%d reorderer over the jittered stream)",
			gotStats.LateDropped, dropped, short), nil
	}
	for si := range sc.Subs {
		if d := diff.Compare(got[si], want[si], sc.tolerance()); d != "" {
			return fmt.Sprintf("sub %d: slack-%d DropLate run != survivor replay\n%s", si, short, d), nil
		}
	}
	return "", nil
}

// runResident runs the whole fleet resident over one event sequence on
// an inline session — the churn-free executor the late oracle's two
// sides share.
func runResident(sc *Scenario, events []*cogra.Event, opts ...cogra.SessionOption) ([][]cogra.Result, cogra.SessionStats, error) {
	sess := cogra.NewSession(opts...)
	subs := make([]*cogra.Subscription, len(sc.Subs))
	for si := range sc.Subs {
		q, err := cogra.Parse(sc.Subs[si].Src)
		if err != nil {
			return nil, cogra.SessionStats{}, fmt.Errorf("sub %d: %w", si, err)
		}
		if subs[si], err = sess.Subscribe(q); err != nil {
			return nil, cogra.SessionStats{}, fmt.Errorf("sub %d: %w", si, err)
		}
	}
	if err := sess.PushBatch(events); err != nil {
		return nil, cogra.SessionStats{}, err
	}
	st, err := sess.Stats()
	if err != nil {
		return nil, cogra.SessionStats{}, err
	}
	if err := sess.Close(); err != nil {
		return nil, cogra.SessionStats{}, err
	}
	results := make([][]cogra.Result, len(sc.Subs))
	for si, sub := range subs {
		results[si] = sub.Drain()
		if err := sub.Err(); err != nil {
			return nil, cogra.SessionStats{}, fmt.Errorf("sub %d drain: %w", si, err)
		}
	}
	return results, st, nil
}

// baselineBudget bounds each reference run; exceeding it skips the
// pair (the paper's DNF), it does not fail the oracle.
const baselineBudget = 20_000_000

// checkBaselines compares each query's full-stream solo results
// against every baseline whose Table 9 capability row covers the
// query. Applies only to small churn-free scenarios — the two-step
// oracle materialises every trend.
func checkBaselines(sc *Scenario) (string, error) {
	if len(sc.Events) > 20 || sc.HasChurn() {
		return "", nil
	}
	for i, e := range sc.Events {
		e.ID = int64(i + 1)
	}
	for si, sub := range sc.Subs {
		q, err := cogra.Parse(sub.Src)
		if err != nil {
			return "", fmt.Errorf("sub %d: %w", si, err)
		}
		plan, err := core.NewPlan(q)
		if err != nil {
			return "", fmt.Errorf("sub %d: plan: %w", si, err)
		}
		ref, err := baselines.NewCogra(plan).Run(sc.Events)
		if err != nil {
			return "", fmt.Errorf("sub %d: COGRA solo: %w", si, err)
		}
		for _, r := range capableRunners(plan) {
			if r.Capabilities().Supports(plan) != nil {
				continue
			}
			got, err := r.Run(sc.Events)
			if err != nil {
				if errors.As(err, new(baselines.ErrBudget)) {
					continue // DNF: outside the reference's budget, not a mismatch
				}
				return "", fmt.Errorf("sub %d: %s: %w", si, r.Name(), err)
			}
			if d := diff.Compare(canonOrder(got), canonOrder(ref), sc.tolerance()); d != "" {
				return fmt.Sprintf("sub %d: %s disagrees with COGRA\n%s", si, r.Name(), d), nil
			}
		}
	}
	return "", nil
}

func capableRunners(plan *core.Plan) []baselines.Runner {
	s := sase.New(plan)
	s.BudgetUnits = baselineBudget
	g := greta.New(plan)
	g.BudgetUnits = baselineBudget
	a := aseq.New(plan)
	a.BudgetUnits = baselineBudget
	f := flinklite.New(plan)
	f.BudgetUnits = baselineBudget
	return []baselines.Runner{s, g, a, f}
}

// canonOrder returns a copy in the canonical emit order
// (core.CompareResults); baselines already report in it, but sorting
// makes the comparison robust to tie order among equal keys.
func canonOrder(rs []cogra.Result) []cogra.Result {
	out := append([]cogra.Result(nil), rs...)
	slices.SortStableFunc(out, core.CompareResults)
	return out
}
