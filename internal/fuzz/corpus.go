// The scenario corpus: the hand-picked scenarios of the differential
// spine, defined here once and written under testdata/scenarios by
// scripts/gen_fuzz_corpus.go. Each scenario puts a mode axis where it
// bites — equal-timestamp runs and window-straddling jumps for the
// batch kernels, a cut inside a tie, a sharing handover with both
// hosts live, a late joiner on the fallback worker, slot values that
// age out — and names the oracles that replay it and the properties
// its base run must reach, so a scenario that stops reaching them fails
// instead of passing vacuously.
package fuzz

import (
	"fmt"
	"slices"
	"strings"

	cogra "repro"
	"repro/internal/fuzz/diff"
)

// CorpusEntry is one scenario of the corpus and its file name.
type CorpusEntry struct {
	Name  string
	Repro *Repro
}

// figure2Mixed is the paper's Figure 2 pattern with an adjacent
// predicate on A only: A has a stored predecessor (A, in Te) and a
// table predecessor (B, in Tt), so within an equal-time run of A's the
// kernel serves the B part from the per-time-stamp memo and scans the
// stored A's per event on top of it.
const figure2Mixed = `
	RETURN COUNT(*), SUM(A.v)
	PATTERN (SEQ(A+, B))+
	SEMANTICS skip-till-any-match
	WHERE [patient] AND A.v < NEXT(A).v
	GROUP-BY patient
	WITHIN 64 SLIDE 32`

// figure2Negated puts a negation guard on the stored edge A -> B, which
// has no adjacent check: the memo folds the stored A's an M has not
// blocked once per run of B's.
const figure2Negated = `
	RETURN COUNT(*), SUM(A.v), MIN(A.v)
	PATTERN SEQ(A+, NOT(M), B)
	SEMANTICS skip-till-any-match
	WHERE [patient] AND A.v < NEXT(A).v
	GROUP-BY patient
	WITHIN 64 SLIDE 32`

// Late joiners partitioned by ward: subscribed after routing froze on
// patient, none covers the routing attribute, so all of them share the
// one fallback worker of a worker session.
const (
	wardSeq = `
		RETURN COUNT(*), SUM(A.v)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [ward] GROUP-BY ward
		WITHIN 64 SLIDE 32`
	wardTrend = `
		RETURN COUNT(*), MAX(M.rate)
		PATTERN M+
		SEMANTICS skip-till-any-match
		WHERE [ward] AND M.rate < NEXT(M).rate
		GROUP-BY ward
		WITHIN 64 SLIDE 64`
	globalContiguous = `
		RETURN COUNT(*)
		PATTERN M+
		SEMANTICS contiguous
		WITHIN 64 SLIDE 64`
	wardRuns = `
		RETURN COUNT(*)
		PATTERN A+
		SEMANTICS skip-till-any-match
		WHERE [ward] GROUP-BY ward
		WITHIN 50 SLIDE 50`
	unpartitioned = `
		RETURN COUNT(*)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WITHIN 80 SLIDE 40`
	// wardSpan is partitioned by patient and ward and grouped by ward:
	// its groups span the patient-routed workers, so a drain merges one
	// (window, group) from several of them.
	// noise names the X type and its attribute, which no other corpus
	// query names: unsubscribing it retires them from the catalog.
	noise = `
		RETURN COUNT(*), SUM(X.noise)
		PATTERN X+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 64`
	wardSpan = `
		RETURN COUNT(*), SUM(A.v)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] AND [ward] GROUP-BY ward
		WITHIN 64 SLIDE 32`
)

// sharedFleet returns three RETURN-variants of one sharing-equivalent
// query body per granularity, named <g>-0 to <g>-2: each trio compiles
// to one sharing fingerprint, so a session folds it into one group
// hosting the union of their aggregates.
func sharedFleet(g string) []SubSpec {
	bodies := map[string]string{
		"type": `
			PATTERN (SEQ(A+, B))+
			SEMANTICS skip-till-any-match
			WHERE [patient] GROUP-BY patient
			WITHIN 64 SLIDE 32`,
		"mixed": `
			PATTERN M+
			SEMANTICS skip-till-any-match
			WHERE [patient] AND M.rate < NEXT(M).rate
			GROUP-BY patient
			WITHIN 64 SLIDE 64`,
		"pattern": `
			PATTERN M+
			SEMANTICS skip-till-next-match
			WHERE [patient] AND M.rate <= NEXT(M).rate
			GROUP-BY patient
			WITHIN 96 SLIDE 48`,
	}
	returns := map[string][]string{
		"type":    {"COUNT(*), SUM(A.v)", "COUNT(*)", "AVG(A.v), COUNT(B)"},
		"mixed":   {"COUNT(*), MAX(M.rate)", "COUNT(*)", "MIN(M.rate), AVG(M.rate)"},
		"pattern": {"COUNT(*)", "COUNT(M)", "SUM(M.rate)"},
	}
	var out []SubSpec
	for i, ret := range returns[g] {
		out = append(out, SubSpec{Name: fmt.Sprintf("%s-%d", g, i), Src: "RETURN " + ret + "\n" + bodies[g]})
	}
	return out
}

// wardSlot also binds the ward of the query's first alias under
// skip-till-any-match, the only semantics that takes an alias-scoped
// equivalence: over a Rotate stream the session's binding interns are
// then reclaimed and their ids recycled while the stream runs. Other
// queries keep no slot and come back unchanged.
func wardSlot(src string) string {
	if !strings.Contains(src, "skip-till-any-match") {
		return src
	}
	alias := "M"
	if strings.Contains(src, "SEQ(A+") {
		alias = "A"
	}
	return strings.Replace(src, "WHERE [patient]", "WHERE [patient] AND ["+alias+".ward]", 1)
}

// patientFleet is the four patient queries, named by granularity.
func patientFleet() []SubSpec {
	q := diff.PatientQueries()
	var out []SubSpec
	for _, name := range []string{"type", "mixed", "pattern", "contiguous"} {
		out = append(out, SubSpec{Name: name, Src: q[name]})
	}
	return out
}

// kernelFleet is the patient fleet plus both Figure 2 plans.
func kernelFleet() []SubSpec {
	return append(patientFleet(), SubSpec{Name: "figure2-mixed", Src: figure2Mixed}, SubSpec{Name: "figure2-negated", Src: figure2Negated})
}

// wardSlotted is wardSlot over each subscription of a fleet.
func wardSlotted(fleet []SubSpec) []SubSpec {
	out := slices.Clone(fleet)
	for i := range out {
		out[i].Src = wardSlot(out[i].Src)
	}
	return out
}

// entry is the corpus's scenario builder: every scenario compares
// exactly, and every query is stored in its canonical text.
type entry struct {
	name     string
	oracles  string
	reach    string
	events   []*cogra.Event
	subs     []SubSpec
	workers  int
	batch    int
	snapAt   int
	maxDepth int
}

// resident keeps each subscription for the whole stream of n events.
func resident(n int, subs ...SubSpec) []SubSpec {
	out := slices.Clone(subs)
	for i := range out {
		out[i].Join, out[i].Leave = 0, n
	}
	return out
}

// tieCut returns the first index in [lo, hi) whose event shares the
// time stamp and type of its predecessor: a cut there splits an
// equal-time run.
func tieCut(events []*cogra.Event, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if events[i].Time == events[i-1].Time && events[i].Type == events[i-1].Type {
			return i
		}
	}
	panic(fmt.Sprintf("fuzz: no equal-time same-type run in [%d,%d)", lo, hi))
}

// quietBoundary returns the first index >= lo whose predecessor lies
// just past a common boundary of every shared fleet's windows (slides
// 32, 48 and 64) with the next few events close behind: a host retired
// there keeps its last window open well past index+6.
func quietBoundary(events []*cogra.Event, lo int) int {
	for i := lo; i+6 < len(events); i++ {
		if tm := events[i-1].Time; tm%192 < 8 && events[i+6].Time < tm+20 {
			return i
		}
	}
	panic("fuzz: no quiet window boundary in the stream")
}

// Corpus returns the scenario corpus.
func Corpus() []CorpusEntry {
	runs := diff.PatientStream(diff.PatientShape{Seed: 41, Step: diff.RunStep, Burst: diff.BurstOf3To8}, 1500)
	groups := diff.PatientStream(diff.PatientShape{Seed: 43, Step: diff.GroupStep()}, 1500)
	rotatedRuns := diff.PatientStream(diff.PatientShape{Seed: 41, Step: diff.RunStep, Burst: diff.BurstOf3To8, Rotate: true}, 1500)
	rotatedGroups := diff.PatientStream(diff.PatientShape{Seed: 43, Step: diff.GroupStep(), Rotate: true}, 1500)
	session := diff.PatientStream(diff.PatientShape{Seed: 17}, 1500)
	rotatedSession := diff.PatientStream(diff.PatientShape{Seed: 17, Rotate: true}, 1500)
	lifecycle := diff.PatientStream(diff.PatientShape{Seed: 23, Step: diff.DenseStep, Rotate: true}, 2000)
	phases := diff.PatientStream(diff.PatientShape{Seed: 23, Step: diff.PhaseStep}, 1600)
	rotatedPhases := diff.PatientStream(diff.PatientShape{Seed: 23, Step: diff.PhaseStep, Rotate: true}, 1600)
	q := diff.PatientQueries()

	var entries []entry
	add := func(e entry) { entries = append(entries, e) }

	// The batch kernels against per-event execution, on same-type runs
	// with ties and straddling jumps, and on equal-time groups that
	// interleave types.
	add(entry{name: "batch_runs", oracles: "batch,workers,slack,solo", reach: "tie-runs straddles results-every-sub",
		events: runs, subs: resident(len(runs), kernelFleet()...), workers: 4, batch: 256})
	add(entry{name: "batch_interleaved", oracles: "batch,workers,slack,solo", reach: "interleaved-ties straddles results-every-sub",
		events: groups, subs: resident(len(groups), kernelFleet()...), batch: 256})
	add(entry{name: "batch_compaction", oracles: "batch,workers,solo", reach: "tie-runs compaction results-every-sub",
		events: runs, subs: append(resident(len(runs), kernelFleet()...), SubSpec{Name: "noise", Src: noise, Leave: 768}), batch: 256})
	slotted := wardSlotted(kernelFleet())
	add(entry{name: "batch_evict", oracles: "batch,solo", reach: "tie-runs intern-3x results-every-sub",
		events: rotatedRuns, subs: resident(len(rotatedRuns), slotted...), workers: 4, batch: 256})
	add(entry{name: "batch_interleaved_compaction", oracles: "batch,workers,solo", reach: "interleaved-ties compaction results-every-sub",
		events: groups, subs: append(resident(len(groups), kernelFleet()...), SubSpec{Name: "noise", Src: noise, Leave: 768}), batch: 256})
	add(entry{name: "batch_interleaved_evict", oracles: "batch,solo", reach: "interleaved-ties intern-3x results-every-sub",
		events: rotatedGroups, subs: resident(len(rotatedGroups), slotted...), workers: 4, batch: 256})

	// Late joiners on the one fallback worker, which retires with its
	// last subscriber; and a cut inside a tie while it is live.
	n := len(runs)
	fallback := []SubSpec{{Name: "type", Src: q["type"], Leave: n},
		{Name: "ward-seq", Src: wardSeq, Join: n / 3, Leave: n - 64},
		{Name: "ward-trend", Src: wardTrend, Join: n / 3, Leave: 2 * n / 3},
		{Name: "global-contiguous", Src: globalContiguous, Join: n / 3, Leave: n - 64}}
	add(entry{name: "workers_fallback", oracles: "workers,batch,solo", reach: "fallback-worker groups-retired results-every-sub",
		events: runs, subs: fallback, workers: 4, batch: 256})
	fallbackCut := append([]SubSpec(nil), fallback...)
	fallbackCut[1].Leave, fallbackCut[3].Leave = n, n
	add(entry{name: "snapshot_fallback", oracles: "snapshot", reach: "fallback-worker cut-in-tie results-every-sub",
		events: runs, subs: fallbackCut, workers: 4, batch: 256, snapAt: tieCut(runs, 2*n/3+1, n)})

	// Every drain of a worker session against the inline drain at the
	// same position, with groups spanning workers and a late joiner on
	// the fallback worker.
	drains := append(resident(n, append(patientFleet(), SubSpec{Name: "ward-span", Src: wardSpan})...),
		SubSpec{Name: "ward-trend", Src: wardTrend, Join: n / 3, Leave: n})
	add(entry{name: "workers_drains", oracles: "workers,solo", reach: "fallback-worker results-every-sub",
		events: runs, subs: drains, workers: 2, batch: 300})

	// Subscribe at k, unsubscribe at k and a churning fleet against
	// one bare engine per membership interval.
	n = len(session)
	standingType := SubSpec{Name: "standing", Src: q["type"], Leave: n}
	membership := []SubSpec{standingType}
	for _, s := range patientFleet() {
		membership = append(membership, SubSpec{Name: s.Name + "-join", Src: s.Src, Join: n / 3, Leave: n},
			SubSpec{Name: s.Name + "-leave", Src: s.Src, Join: 0, Leave: n / 2})
	}
	membership = append(membership, SubSpec{Name: "ward-runs", Src: wardRuns, Join: n / 5, Leave: 4 * n / 5},
		SubSpec{Name: "unpartitioned", Src: unpartitioned, Join: 3 * n / 5, Leave: n})
	add(entry{name: "solo_membership", oracles: "solo,workers,batch", reach: "fallback-worker results-every-sub",
		events: session, subs: membership, workers: 4})

	// Shuffled within slack against sorted, and per-event and batch
	// pushes against bare engines.
	add(entry{name: "slack_session", oracles: "slack,solo,batch", reach: "tie-runs results-every-sub",
		events: session, subs: resident(n, patientFleet()...), workers: 4})

	// Snapshot at k + restore + suffix against the undisturbed run:
	// a cut inside a tie, after churn compacted the catalog, right
	// after an idle gap closed every window, and over slots that age
	// out.
	standing := resident(n, append([]SubSpec{standingType}, patientFleet()...)...)
	add(entry{name: "snapshot_tie", oracles: "snapshot,solo", reach: "cut-in-tie results-every-sub",
		events: session, subs: standing, snapAt: tieCut(session, n/2, n)})
	add(entry{name: "snapshot_compaction", oracles: "snapshot,solo", reach: "compaction results-every-sub",
		events: session, subs: append(slices.Clone(standing), SubSpec{Name: "noise", Src: noise, Leave: n / 4}), workers: 4, snapAt: n / 2})
	afterClose := n / 2
	for session[afterClose].Time-session[afterClose-1].Time <= 96+48 { // longer than any window reaches back
		afterClose++
	}
	add(entry{name: "snapshot_afterclose", oracles: "snapshot", reach: "results-every-sub",
		events: session, subs: standing, workers: 4, snapAt: afterClose + 1})
	add(entry{name: "snapshot_evict", oracles: "snapshot,solo", reach: "intern-3x results-every-sub",
		events: rotatedSession, subs: wardSlotted(standing), snapAt: n / 2})

	// Sharing against one bare engine per query: per granularity a
	// trio plus an unrelated control, churned member by member, handed
	// over with both hosts live, and rejoined across the sparse phase.
	n = len(phases)
	dense := quietBoundary(phases, 2*n/3)
	control := SubSpec{Name: "control", Src: q["contiguous"], Leave: n}
	var evictFleet []SubSpec
	for _, g := range []string{"type", "mixed", "pattern"} {
		trio := sharedFleet(g)
		evictFleet = append(evictFleet, trio...)
		member := func(i, join, leave int) SubSpec {
			s := trio[i]
			s.Join, s.Leave = join, leave
			return s
		}
		add(entry{name: "shared_" + g + "_churn", oracles: "solo,snapshot,workers", reach: "shared-group share-flip groups-retired results-every-sub",
			events: phases, subs: []SubSpec{member(0, 0, 7*n/8), member(1, 0, 2*n/3), member(2, 0, 3*n/4), control},
			batch: 256, snapAt: 5 * n / 8})
		add(entry{name: "shared_" + g + "_handover", oracles: "solo,snapshot,workers", reach: "shared-group share-flip results-every-sub",
			events: phases, subs: []SubSpec{member(0, 0, dense+6), member(1, 0, n), member(2, dense, n), control},
			workers: 4, batch: 256, snapAt: dense + 3})
		add(entry{name: "shared_" + g + "_rejoin", oracles: "solo,workers", reach: "shared-group share-flip results-every-sub",
			events: phases, subs: []SubSpec{member(0, 0, n), member(1, 0, 7*n/16), member(2, n/2, n), control},
			batch: 256})
	}
	add(entry{name: "shared_evict", oracles: "solo,batch", reach: "shared-group intern-3x results-every-sub",
		events: rotatedPhases, subs: resident(n, append(wardSlotted(evictFleet), control)...), workers: 4, batch: 256})
	// Two queries a lossy rendering would write alike: the number 65 and
	// the string '65', on a negated alias, so both report and differ.
	literal := func(lit string) string {
		return fmt.Sprintf(`RETURN COUNT(*) PATTERN SEQ(A+, NOT(M), B) SEMANTICS skip-till-any-match
			WHERE [patient] AND M.rate = %s GROUP-BY patient WITHIN 64 SLIDE 32`, lit)
	}
	add(entry{name: "solo_literals", oracles: "solo", reach: "results-every-sub",
		events: phases, subs: resident(n, SubSpec{Name: "number", Src: literal("65")}, SubSpec{Name: "string", Src: literal("'65'")})})

	// A bounded-state session over slot values that age out against
	// bare engines that keep them all.
	n = len(lifecycle)
	// The shuffled run caps its reorder buffer far above the disorder's
	// natural peak, so nothing is shed and the results stay identical.
	lifecycleFleet := []SubSpec{
		{Name: "type-slots", Src: `RETURN COUNT(*), SUM(A.v) PATTERN (SEQ(A+, B))+ SEMANTICS skip-till-any-match
			WHERE [patient] AND [A.ward] GROUP-BY patient WITHIN 64 SLIDE 32`},
		{Name: "mixed-slots", Src: `RETURN COUNT(*), MAX(M.rate) PATTERN M+ SEMANTICS skip-till-any-match
			WHERE [patient] AND [M.ward] AND M.rate < NEXT(M).rate GROUP-BY patient WITHIN 64 SLIDE 64`},
		// Three slots: the bindings intern value-id vectors.
		{Name: "wide-slots", Src: `RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS skip-till-any-match
			WHERE [patient] AND [A.ward] AND [A.bed] AND [B.ward] GROUP-BY patient WITHIN 64 SLIDE 32`},
		{Name: "pattern", Src: q["pattern"]},
	}
	add(entry{name: "solo_lifecycle", oracles: "solo,slack,workers", reach: "intern-3x vector-slots results-every-sub",
		events: lifecycle, subs: resident(n, lifecycleFleet...), batch: 128, maxDepth: 256})

	out := make([]CorpusEntry, 0, len(entries))
	for _, e := range entries {
		sc := &Scenario{Events: e.events, Workers: e.workers, BatchSize: e.batch,
			ShuffleBlock: 6, ShuffleSeed: 7, SnapshotAt: -1, MaxDepth: e.maxDepth, Exact: true}
		if e.snapAt > 0 {
			sc.SnapshotAt = e.snapAt
		}
		for _, s := range e.subs {
			q, err := cogra.Parse(s.Src)
			if err != nil {
				panic(fmt.Sprintf("fuzz: corpus %s: %v", e.name, err))
			}
			sc.Subs = append(sc.Subs, SubSpec{Name: s.Name, Src: q.String(), Join: s.Join, Leave: s.Leave})
		}
		out = append(out, CorpusEntry{Name: e.name, Repro: &Repro{
			Oracles: strings.Split(e.oracles, ","), Reach: strings.Fields(e.reach), Scenario: sc}})
	}
	return out
}
