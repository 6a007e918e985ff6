// Package diff holds the differential-comparison helpers shared by
// the root package's tests and the fuzz oracles (internal/fuzz), which
// replay both drawn scenarios and the scenario corpus: the patient
// stream, solo-replay and bare-engine references, result
// canonicalization, first-divergence byte diffs, the full-window
// filter for mid-stream joiners and the bounded shuffle that produces
// slack-repairable disorder.
//
// The helpers are deliberately test-framework-free (no testing.TB):
// the fuzz runner calls them from a plain binary and the tests wrap
// them with t.Fatal at the call site.
package diff

import (
	"fmt"
	"sort"
	"strings"

	cogra "repro"
	"repro/internal/agg"
	"repro/internal/core"
)

// Canon renders a result slice into the canonical byte string the
// differential spine compares: one result per line, window id and
// bounds, group values and exact (%g round-trips float64) aggregate
// values. Group values are quoted, so a value holding the separator or
// a newline renders apart from the tuple it would otherwise spell. Two
// runs are considered identical iff their Canon strings are
// byte-identical.
func Canon(results []cogra.Result) string {
	if len(results) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "w%d window [%d,%d)", r.Wid, r.Start, r.End)
		if len(r.Group) > 0 {
			fmt.Fprintf(&b, " group=%q", r.Group)
		}
		fmt.Fprintf(&b, ": %s\n", agg.FormatValues(r.Values))
	}
	return b.String()
}

// Equal reports whether two result slices are byte-identical under
// Canon.
func Equal(a, b []cogra.Result) bool { return Canon(a) == Canon(b) }

// FloatTol is the relative tolerance on SUM/AVG in every differential
// comparison, the fuzz oracles' and cograbench's cross-check alike: a
// solo engine folds a window's partition classes into the aggregate in
// sorted key order while parallel workers (and the independent
// baselines) accumulate in their own orders, so the last ULP
// legitimately differs. Counts, windows and groups always compare
// exactly.
const FloatTol = 1e-9

// Compare compares two result lists structurally: length, window
// identity, group values and counts exactly; float aggregates with
// relative tolerance relTol (0 compares exactly). A non-zero tolerance
// is for comparisons whose sides legitimately accumulate float sums in
// different orders — a solo engine folds a window's partition classes
// in sorted key order, parallel workers in routing order — so the last
// ULP of SUM/AVG may differ (the same reason agg.ApproxEqual exists).
// Returns "" on match, else a description of the first difference.
func Compare(got, want []cogra.Result, relTol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results != %d results\n%s",
			len(got), len(want), FirstByteDiff(Canon(got), Canon(want)))
	}
	for i := range got {
		g, w := got[i], want[i]
		structEq := g.Wid == w.Wid && g.Start == w.Start && g.End == w.End && len(g.Group) == len(w.Group)
		if structEq {
			for j := range g.Group {
				if g.Group[j] != w.Group[j] {
					structEq = false
					break
				}
			}
		}
		if !structEq || !agg.ApproxEqual(g.Values, w.Values, relTol) {
			return fmt.Sprintf("result %d differs:\n  got:  w%d %s\n  want: w%d %s",
				i, g.Wid, g.String(), w.Wid, w.String())
		}
	}
	return ""
}

// Diff describes the first divergence between two canonicalized runs:
// the first line that differs (or the extra tail when one is a prefix
// of the other), with the byte offset of the divergence. Empty when
// the runs are identical.
func Diff(got, want []cogra.Result) string {
	return FirstByteDiff(Canon(got), Canon(want))
}

// FirstByteDiff locates the first byte where two canonical strings
// diverge and renders the surrounding lines; empty when identical.
func FirstByteDiff(got, want string) string {
	if got == want {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	line := 1 + strings.Count(got[:i], "\n")
	return fmt.Sprintf("first divergence at byte %d (line %d):\n  got:  %s\n  want: %s",
		i, line, lineAround(got, i), lineAround(want, i))
}

// lineAround extracts the line containing byte offset i.
func lineAround(s string, i int) string {
	if i >= len(s) {
		return "(end of output)"
	}
	start := strings.LastIndexByte(s[:i], '\n') + 1
	end := strings.IndexByte(s[start:], '\n')
	if end < 0 {
		return s[start:]
	}
	return s[start : start+end]
}

// SoloRun executes one query alone over an in-order event slice — the
// pre-stream-subscriber reference every membership differential is
// pinned against — and returns its drained results.
func SoloRun(src string, events []*cogra.Event, opts ...cogra.SessionOption) ([]cogra.Result, error) {
	q, err := cogra.Parse(src)
	if err != nil {
		return nil, err
	}
	sess := cogra.NewSession(opts...)
	sub, err := sess.Subscribe(q)
	if err != nil {
		return nil, err
	}
	if err := sess.PushBatch(events); err != nil {
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}
	return sub.Drain(), nil
}

// EngineRun executes one query on a bare core.Engine — no session,
// no sharing, no intern eviction — over an in-order event slice, closes
// it, and returns its results and the engine: the plainest reference a
// session can be compared against.
func EngineRun(src string, events []*cogra.Event) ([]cogra.Result, *core.Engine, error) {
	q, err := cogra.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	plan, err := core.NewPlan(q)
	if err != nil {
		return nil, nil, err
	}
	eng := core.NewEngine(plan)
	for _, e := range events {
		if err := eng.Process(e); err != nil {
			return nil, nil, err
		}
	}
	return eng.Close(), eng, nil
}

// FullWindowsAfter keeps the results of windows fully covered by an
// observer joining at watermark t: those starting strictly after t.
func FullWindowsAfter(results []cogra.Result, t int64) []cogra.Result {
	var out []cogra.Result
	for _, r := range results {
		if r.Start > t {
			out = append(out, r)
		}
	}
	return out
}

// ShuffleBounded returns a copy of events shuffled within blocks of
// the given size (bounded disorder) plus the slack required to repair
// it: the largest amount by which any event trails the running
// maximum time stamp. A zero returned slack means the shuffle
// produced no disorder (the caller's vacuity check).
func ShuffleBounded(events []*cogra.Event, block int, seed int64) ([]*cogra.Event, int64) {
	rng := newSplitMix(uint64(seed))
	out := make([]*cogra.Event, len(events))
	copy(out, events)
	for i := 0; i+block-1 < len(out); i += block {
		// Fisher-Yates within the block.
		for a := block - 1; a > 0; a-- {
			b := int(rng.Next() % uint64(a+1))
			out[i+a], out[i+b] = out[i+b], out[i+a]
		}
	}
	return out, repairSlack(events, out)
}

// JitterOrder models disorder at ingest rather than a shuffle of the
// sorted stream: each event's arrival stamp is its time stamp plus an
// independent random delay in [0, jitter], and events arrive in
// arrival-stamp order (stable on ties, so equal stamps keep generation
// order). This is how real sources misbehave — a slow sender delays
// its events relative to everyone else's — and unlike ShuffleBounded
// it produces disorder whose span varies along the stream, so a single
// repairing slack is tight in some regions and generous in others.
// Returns the jittered order plus the slack required to repair it
// exactly (the largest amount any event trails the running maximum
// time stamp); slack 0 means the jitter produced no disorder.
func JitterOrder(events []*cogra.Event, jitter int64, seed int64) ([]*cogra.Event, int64) {
	out := make([]*cogra.Event, len(events))
	copy(out, events)
	if jitter > 0 {
		rng := newSplitMix(uint64(seed))
		arrival := make(map[*cogra.Event]int64, len(out))
		for _, e := range out {
			arrival[e] = e.Time + int64(rng.Next()%uint64(jitter+1))
		}
		sort.SliceStable(out, func(i, j int) bool { return arrival[out[i]] < arrival[out[j]] })
	}
	return out, repairSlack(events, out)
}

// repairSlack computes the slack a session needs to process the
// permuted order with results identical to the canonical order: the
// largest amount any event trails the running maximum time stamp.
// That bound provably covers every time inversion AND keeps inverted
// equal-time ties buffered long enough to re-sort — except when it
// computes to exactly 0, where the session would install no reorder
// buffer at all. A tie-only inversion (two equal-time events swapped,
// everything else sorted) therefore needs slack 1: any positive slack
// restores (time, ID) tie order, and 1 is the smallest.
func repairSlack(canonical, permuted []*cogra.Event) int64 {
	var slack, maxSeen int64
	for i, e := range permuted {
		if i == 0 || e.Time > maxSeen {
			maxSeen = e.Time
		}
		if d := maxSeen - e.Time; d > slack {
			slack = d
		}
	}
	if slack == 0 {
		for i := range permuted {
			if permuted[i] != canonical[i] {
				return 1
			}
		}
	}
	return slack
}

// SplitMix is splitmix64, a tiny deterministic PRNG: the shuffles here
// and the fuzzer's scenario seeds must not depend on math/rand's
// generator staying stable across Go releases, because repro files pin
// those seeds forever.
type SplitMix struct{ State uint64 }

func newSplitMix(seed uint64) *SplitMix { return &SplitMix{State: seed ^ 0x9E3779B97F4A7C15} }

// Next advances the state and returns its next value.
func (s *SplitMix) Next() uint64 {
	s.State += 0x9E3779B97F4A7C15
	z := s.State
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
