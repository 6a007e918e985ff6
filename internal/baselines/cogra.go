package baselines

import (
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
)

// CograRunner adapts the COGRA engine to the Runner interface so the
// experiment harness and the cross-validation tests drive every
// approach identically.
type CograRunner struct {
	Plan *core.Plan
	// Acct receives logical memory accounting if non-nil.
	Acct *metrics.Accountant
}

// NewCogra builds the adapter.
func NewCogra(plan *core.Plan) *CograRunner { return &CograRunner{Plan: plan} }

// Name implements Runner.
func (r *CograRunner) Name() string { return "COGRA" }

// Capabilities implements Runner: the engine under test covers
// the full matrix — which is the point of the comparison.
func (r *CograRunner) Capabilities() Capabilities {
	return Capabilities{Approach: "COGRA",
		Any: true, Next: true, Cont: true, Adjacent: true, Negation: true}
}

// Run implements Runner.
func (r *CograRunner) Run(events []*event.Event) ([]core.Result, error) {
	var opts []core.Option
	if r.Acct != nil {
		opts = append(opts, core.WithAccountant(r.Acct))
	}
	eng := core.NewEngine(r.Plan, opts...)
	if err := eng.ProcessAll(events); err != nil {
		return nil, err
	}
	return eng.Close(), nil
}
