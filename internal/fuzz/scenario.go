// Package fuzz is the differential fuzzing subsystem behind
// cmd/cografuzz: a seeded scenario generator drawing random (schema,
// query fleet, event stream, churn schedule, session config) tuples
// from the paper's four workload templates, a metamorphic oracle
// suite that replays each scenario under flipped execution modes and
// against the independent baselines, a greedy delta-debugging
// shrinker, and a self-contained text repro codec.
//
// Everything here is deterministic in the seed: the same base seed
// produces the same scenarios, the same verdicts and byte-identical
// shrunk repro files.
package fuzz

import (
	"fmt"
	"math/rand"

	cogra "repro"
	"repro/internal/agg"
	"repro/internal/fuzz/diff"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/query"
)

// SubSpec is one subscription of a scenario: the query (canonical
// text, as rendered by query.String) and its membership interval over
// the event stream — subscribed before pushing event index Join,
// unsubscribed before pushing event index Leave (Leave == len(Events)
// means it stays until end of stream). A corpus scenario names each
// subscription (one word, unique in the scenario), so a test can pick
// one by name; a drawn one leaves Name empty.
type SubSpec struct {
	Name  string
	Src   string
	Join  int
	Leave int
}

// Scenario is one self-contained fuzz case. Events are in canonical
// (time-sorted, generation) order; the executor stamps IDs 1..n by
// slice position before every run so tie-breaks are identical across
// execution modes and push orders.
type Scenario struct {
	// Seed is the per-scenario seed the generator drew from (kept for
	// labelling; replay never re-derives anything from it).
	Seed uint64
	// Template names the workload template the scenario came from.
	Template string
	Subs     []SubSpec
	Events   []*cogra.Event

	// Base session configuration (the reference execution mode).
	Workers   int // 0 inline, else parallel worker count
	BatchSize int // PushBatch chunk size; 0 pushes per event

	// Knobs for the mode-flip oracles (unused by the base run).
	ShuffleBlock int   // block size for the bounded shuffle oracle
	ShuffleSeed  int64 // splitmix seed pinned in repro files
	SnapshotAt   int   // event index for the snapshot oracle; <=0 none
	Jitter       int64 // max ingest delay for the jitter/late oracles; <=0 none
	MaxDepth     int   // reorder buffer cap of the shuffled and jittered runs; 0 none

	// Exact compares results with no float tolerance, and the snapshot
	// oracle's Stats() after Close in every field: the corpus scenarios
	// sum integer-valued payloads, so every order of accumulation gives
	// the same bits.
	Exact bool
}

// tolerance is the relative float tolerance the oracles compare the
// scenario's results with.
func (sc *Scenario) tolerance() float64 {
	if sc.Exact {
		return 0
	}
	return diff.FloatTol
}

// HasChurn reports whether any subscription joins or leaves
// mid-stream.
func (sc *Scenario) HasChurn() bool {
	for _, s := range sc.Subs {
		if s.Join != 0 || s.Leave != len(sc.Events) {
			return true
		}
	}
	return false
}

// Size is the shrinker's monotone cost metric: events dominate, then
// subscriptions, then query clauses and config knobs. Every accepted
// shrink step strictly decreases it.
func (sc *Scenario) Size() int {
	n := 100*len(sc.Events) + 10*len(sc.Subs)
	for _, s := range sc.Subs {
		n += len(s.Src)
		if s.Join != 0 || s.Leave != len(sc.Events) {
			n += 5
		}
	}
	if sc.Workers > 0 {
		n += 5
	}
	if sc.BatchSize > 0 {
		n += 5
	}
	if sc.SnapshotAt > 0 {
		n += 5
	}
	if sc.Jitter > 0 {
		n += 5
	}
	return n
}

// Clone returns a copy sharing the (immutable after generation)
// events; the Subs slice and scalar knobs are independent.
func (sc *Scenario) Clone() *Scenario {
	c := *sc
	c.Subs = append([]SubSpec(nil), sc.Subs...)
	c.Events = append([]*cogra.Event(nil), sc.Events...)
	return &c
}

func (sc *Scenario) String() string {
	return fmt.Sprintf("scenario(seed=%#x %s: %d events, %d subs, workers=%d batch=%d)",
		sc.Seed, sc.Template, len(sc.Events), len(sc.Subs), sc.Workers, sc.BatchSize)
}

// template couples a stream generator with the query generator's view
// of its schema.
type template struct {
	name   string
	schema gen.QuerySchema
	stream func(seed int64, n int) []*cogra.Event
}

func templates() []template {
	return []template{
		{
			name: "stock",
			schema: gen.QuerySchema{
				Types: []string{"Stock"},
				Keys:  []string{"company", "sector"},
				Nums: map[string][]gen.NumAttr{
					"Stock": {{Name: "price", Lo: 1, Hi: 150}, {Name: "volume", Lo: 100, Hi: 1000}, {Name: "u", Lo: 0, Hi: 1}},
				},
				Syms: map[string][]gen.SymAttr{
					"Stock": {{Name: "sector", Values: []string{"sec0", "sec1", "sec2", "sec3"}}},
				},
				Windows: [][2]int64{{8, 8}, {16, 8}, {12, 4}, {10, 15}, {32, 16}},
			},
			stream: func(seed int64, n int) []*cogra.Event {
				return gen.Stock(gen.StockConfig{Seed: seed, Events: n, Companies: 5})
			},
		},
		{
			name: "activity",
			schema: gen.QuerySchema{
				Types: []string{"Measurement"},
				Keys:  []string{"patient"},
				Nums: map[string][]gen.NumAttr{
					"Measurement": {{Name: "rate", Lo: 40, Hi: 200}},
				},
				Syms: map[string][]gen.SymAttr{
					"Measurement": {{Name: "activity", Values: []string{"passive", "act1", "act2"}}},
				},
				Windows: [][2]int64{{10, 10}, {20, 10}, {8, 4}, {12, 18}},
			},
			stream: func(seed int64, n int) []*cogra.Event {
				return gen.Activity(gen.ActivityConfig{Seed: seed, Events: n, Persons: 4})
			},
		},
		{
			name: "transit",
			schema: gen.QuerySchema{
				Types: []string{"Board", "Ride"},
				Keys:  []string{"passenger", "station"},
				Nums: map[string][]gen.NumAttr{
					"Board": {{Name: "wait", Lo: 0, Hi: 600}},
					"Ride":  {{Name: "wait", Lo: 0, Hi: 600}},
				},
				Windows: [][2]int64{{10, 10}, {16, 8}, {8, 12}, {24, 6}},
			},
			stream: func(seed int64, n int) []*cogra.Event {
				return gen.Transit(gen.TransitConfig{Seed: seed, Events: n, Passengers: 5, Stations: 6})
			},
		},
		{
			name: "rideshare",
			schema: gen.QuerySchema{
				Types:   []string{"Accept", "Call", "Cancel", "Finish", "InTransit", "DropOff"},
				Keys:    []string{"driver"},
				Nums:    map[string][]gen.NumAttr{},
				Syms:    map[string][]gen.SymAttr{},
				Windows: [][2]int64{{12, 12}, {20, 10}, {16, 24}},
			},
			stream: func(seed int64, n int) []*cogra.Event {
				out := gen.Rideshare(gen.RideshareConfig{Seed: seed, Trips: n/5 + 1, Drivers: 4})
				if len(out) > n {
					out = out[:n]
				}
				return out
			},
		},
	}
}

// returnVariant derives a sharing-equivalent twin of src: the same
// query except for its RETURN aggregates, so the twin's plan carries
// the same sharing fingerprint without being the same query. Falls
// back to src itself (an exact duplicate — trivially sharable) when no
// valid variant exists.
func returnVariant(src string) string {
	q, err := query.Parse(src)
	if err != nil {
		return src
	}
	star := agg.Spec{Func: agg.CountStar}
	switch {
	case len(q.Returns) > 1:
		q.Returns = q.Returns[:1]
	case q.Returns[0] != star:
		q.Returns = agg.Specs{star}
	default:
		// COUNT(*) alone: add a per-alias event count. Negated aliases
		// cannot be aggregated, so probe until one validates.
		for _, a := range pattern.Aliases(q.Pattern) {
			q.Returns = agg.Specs{star, {Func: agg.CountType, Alias: a}}
			if q.Validate() == nil {
				return q.String()
			}
		}
		return src
	}
	if q.Validate() != nil {
		return src
	}
	return q.String()
}

// ScenarioSeed derives scenario index i's seed from the base seed via
// one splitmix64 step, so neighbouring indices get decorrelated
// streams and any scenario can be regenerated from (baseSeed, i)
// alone. Scenario drawing itself may use math/rand: repro files store
// the drawn scenario, never the draw.
func ScenarioSeed(baseSeed uint64, i int) uint64 {
	s := diff.SplitMix{State: baseSeed + uint64(i)*0x9E3779B97F4A7C15}
	return s.Next()
}

// Generate draws scenario i of the base seed's deterministic sequence.
// About a quarter of scenarios are "small" (≤16 events, no churn) so
// the exponential-cost baseline oracle gets regular coverage; the rest
// are session-scale (96–256 events) with churn, worker, group, batch,
// shuffle and snapshot knobs drawn independently.
func Generate(baseSeed uint64, i int) (*Scenario, error) {
	seed := ScenarioSeed(baseSeed, i)
	rng := rand.New(rand.NewSource(int64(seed)))
	tpls := templates()
	tpl := tpls[rng.Intn(len(tpls))]

	small := rng.Intn(4) == 0
	var n int
	if small {
		n = 8 + rng.Intn(9) // 8..16: the two-step oracle stays sane
	} else {
		n = 96 + rng.Intn(161) // 96..256
	}
	events := tpl.stream(rng.Int63(), n)
	n = len(events) // rideshare may come up short on tiny n
	if rng.Intn(2) == 0 {
		// Reshape timestamps into equal-time runs and window-straddling
		// jumps — the batch-kernel and slack stress shapes.
		w := tpl.schema.Windows[0][0]
		gen.Retime(rng, events, 0.25, 0.08, w)
	}

	sc := &Scenario{Seed: seed, Template: tpl.name, Events: events, SnapshotAt: -1}

	nsubs := 1 + rng.Intn(3)
	if small {
		nsubs = 1 + rng.Intn(2)
	}
	for s := 0; s < nsubs; s++ {
		q, err := gen.RandomQuery(rng, tpl.schema)
		if err != nil {
			return nil, fmt.Errorf("scenario %d (seed %#x): %w", i, seed, err)
		}
		sub := SubSpec{Src: q.String(), Join: 0, Leave: n}
		sc.Subs = append(sc.Subs, sub)
	}
	if !small && nsubs > 1 && rng.Intn(2) == 0 {
		// Churn the fleet: the first subscription always stays resident
		// (so every mode has a full-stream observer); later ones get
		// random membership intervals.
		churn := gen.RandomChurn(rng, nsubs-1, n)
		for s := 1; s < nsubs; s++ {
			sc.Subs[s].Join = churn[s-1].Join
			sc.Subs[s].Leave = churn[s-1].Leave
		}
	}
	if rng.Intn(2) == 0 {
		// Sharing-equivalent twin: same query as subscription 0 except
		// for an extra RETURN aggregate, so shared-aggregation scenarios
		// regularly have a fleet the runtime can actually share (random
		// query pairs almost never collide on the sharing fingerprint).
		twin := returnVariant(sc.Subs[0].Src)
		join, leave := 0, n
		if !small && rng.Intn(2) == 0 {
			// Sometimes mid-stream, so share formation under a running
			// host gets exercised too.
			join = rng.Intn(n / 2)
		}
		sc.Subs = append(sc.Subs, SubSpec{Src: twin, Join: join, Leave: leave})
	}

	if !small {
		if rng.Intn(2) == 0 {
			sc.Workers = 4
			// This draw once chose an executor-group cap; it stays so a
			// seed keeps deriving the same scenarios otherwise.
			_ = rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			sc.BatchSize = []int{64, 256}[rng.Intn(2)]
		}
		if rng.Intn(2) == 0 {
			sc.SnapshotAt = n/3 + rng.Intn(n/3+1)
		}
	}
	sc.ShuffleBlock = []int{4, 8, 16}[rng.Intn(3)]
	sc.ShuffleSeed = int64(seed>>1) + 1
	// Ingest jitter on the window scale: small enough that most events
	// stay repairable, large enough that a half-slack session drops
	// stragglers (the late-policy oracle's fodder).
	w := tpl.schema.Windows[0][0]
	sc.Jitter = 1 + int64(rng.Intn(int(w)))
	return sc, nil
}
