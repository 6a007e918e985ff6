// The failure shrinker: greedy delta debugging over scenarios. Given
// a scenario failing an oracle, Shrink repeatedly proposes smaller
// candidates — drop event chunks, drop subscriptions, simplify query
// clauses, normalize churn, zero config knobs — and keeps a candidate
// iff it still validates AND still fails the same oracle. Candidate
// order is fixed, so shrinking is fully deterministic; every accepted
// step strictly decreases Scenario.Size, so it terminates at a local
// minimum.
package fuzz

import (
	"fmt"
	"io"

	cogra "repro"
	"repro/internal/query"
)

// ShrinkReport describes one shrink run.
type ShrinkReport struct {
	Steps    int    // accepted shrink steps
	Tried    int    // candidates evaluated
	Mismatch string // the minimal scenario's mismatch
}

// Shrink minimizes sc against the oracle. The input scenario must
// currently fail the oracle (Check returns a non-empty mismatch);
// Shrink returns an error otherwise. The returned scenario is a new
// value; sc is not modified. log may be nil.
func Shrink(sc *Scenario, o *Oracle, log io.Writer) (*Scenario, *ShrinkReport, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	mismatch, err := o.Check(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("shrink: oracle %s errored on the input scenario: %w", o.Name, err)
	}
	if mismatch == "" {
		return nil, nil, fmt.Errorf("shrink: oracle %s does not fail on the input scenario", o.Name)
	}
	cur := sc.Clone()
	rep := &ShrinkReport{Mismatch: mismatch}

	// try evaluates one candidate; accepted iff it is strictly
	// smaller, structurally valid, and still fails the oracle.
	try := func(cand *Scenario) bool {
		if cand.Size() >= cur.Size() {
			return false
		}
		if validate(cand) != nil {
			return false
		}
		rep.Tried++
		m, err := o.Check(cand)
		if err != nil || m == "" {
			return false
		}
		cur = cand
		rep.Steps++
		rep.Mismatch = m
		return true
	}

	for pass := 0; ; pass++ {
		before := cur.Size()
		shrinkEvents(&cur, try)
		shrinkSubs(&cur, try)
		shrinkQueries(&cur, try)
		shrinkChurn(&cur, try)
		shrinkKnobs(&cur, try)
		logf("shrink pass %d: size %d -> %d (%d events, %d subs)",
			pass, before, cur.Size(), len(cur.Events), len(cur.Subs))
		if cur.Size() == before {
			break
		}
	}
	return cur, rep, nil
}

// shrinkEvents is ddmin over the event slice: chunk sizes halve from
// n/2 down to 1; membership intervals and the snapshot point are
// remapped around each removed range.
func shrinkEvents(cur **Scenario, try func(*Scenario) bool) {
	for chunk := len((*cur).Events) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len((*cur).Events); {
			cand := dropEventRange(*cur, start, start+chunk)
			if cand != nil && try(cand) {
				// The range at start is gone; the next candidate begins
				// at the same offset over the shorter slice.
				continue
			}
			start += chunk
		}
	}
}

// dropEventRange removes events [a,b) and remaps every event-index
// field; nil when the result would be empty.
func dropEventRange(sc *Scenario, a, b int) *Scenario {
	n := len(sc.Events)
	if b-a >= n {
		return nil
	}
	remap := func(i int) int {
		switch {
		case i <= a:
			return i
		case i >= b:
			return i - (b - a)
		default:
			return a
		}
	}
	cand := sc.Clone()
	cand.Events = append(append([]*cogra.Event(nil), sc.Events[:a]...), sc.Events[b:]...)
	m := len(cand.Events)
	for si := range cand.Subs {
		cand.Subs[si].Join = remap(cand.Subs[si].Join)
		cand.Subs[si].Leave = remap(cand.Subs[si].Leave)
		if cand.Subs[si].Leave <= cand.Subs[si].Join {
			if cand.Subs[si].Join >= m {
				cand.Subs[si].Join = m - 1
			}
			cand.Subs[si].Leave = cand.Subs[si].Join + 1
		}
	}
	if sc.SnapshotAt > 0 {
		cand.SnapshotAt = remap(sc.SnapshotAt)
	}
	return cand
}

func shrinkSubs(cur **Scenario, try func(*Scenario) bool) {
	for si := 0; len((*cur).Subs) > 1 && si < len((*cur).Subs); {
		cand := (*cur).Clone()
		cand.Subs = append(cand.Subs[:si], cand.Subs[si+1:]...)
		if !try(cand) {
			si++
		}
	}
}

// shrinkQueries simplifies each subscription's query one clause at a
// time: drop grouping, drop each predicate class, drop extra
// aggregates, collapse the window to tumbling. Candidates that no
// longer validate (e.g. alias-scoped grouping without its equivalence
// predicate) are rejected by try.
func shrinkQueries(cur **Scenario, try func(*Scenario) bool) {
	for si := 0; si < len((*cur).Subs); si++ {
		for _, tf := range queryShrinks {
			for {
				q, err := query.Parse((*cur).Subs[si].Src)
				if err != nil {
					break
				}
				if !tf(q) {
					break
				}
				if q.Validate() != nil {
					break
				}
				cand := (*cur).Clone()
				cand.Subs[si].Src = q.String()
				if !try(cand) {
					break
				}
			}
		}
	}
}

// queryShrinks are the per-query simplification steps; each mutates
// the parsed query in place and reports whether it changed anything.
var queryShrinks = []func(*query.Query) bool{
	func(q *query.Query) bool { // drop GROUP-BY (and its RETURN keys)
		if len(q.GroupBy) == 0 && len(q.ReturnKeys) == 0 {
			return false
		}
		q.GroupBy, q.ReturnKeys = nil, nil
		return true
	},
	func(q *query.Query) bool { // drop one adjacent predicate
		if q.Where == nil || len(q.Where.Adjacents) == 0 {
			return false
		}
		q.Where.Adjacents = q.Where.Adjacents[:len(q.Where.Adjacents)-1]
		return true
	},
	func(q *query.Query) bool { // drop one local predicate
		if q.Where == nil || len(q.Where.Locals) == 0 {
			return false
		}
		q.Where.Locals = q.Where.Locals[:len(q.Where.Locals)-1]
		return true
	},
	func(q *query.Query) bool { // drop one equivalence predicate
		if q.Where == nil || len(q.Where.Equivalences) == 0 {
			return false
		}
		q.Where.Equivalences = q.Where.Equivalences[:len(q.Where.Equivalences)-1]
		return true
	},
	func(q *query.Query) bool { // drop one extra aggregate (keep the first)
		if len(q.Returns) <= 1 {
			return false
		}
		q.Returns = q.Returns[:len(q.Returns)-1]
		return true
	},
	func(q *query.Query) bool { // collapse sliding/gapped window to tumbling
		if q.Window.Slide == q.Window.Within {
			return false
		}
		q.Window.Slide = q.Window.Within
		return true
	},
}

// shrinkChurn pins membership to the whole stream, one sub at a time.
func shrinkChurn(cur **Scenario, try func(*Scenario) bool) {
	n := len((*cur).Events)
	for si := 0; si < len((*cur).Subs); si++ {
		if (*cur).Subs[si].Join == 0 && (*cur).Subs[si].Leave == n {
			continue
		}
		cand := (*cur).Clone()
		cand.Subs[si].Join, cand.Subs[si].Leave = 0, n
		try(cand)
	}
}

// shrinkKnobs zeroes one config knob at a time. A knob the failing
// oracle needs (e.g. jitter for the jitter oracle) survives because
// the zeroed candidate no longer fails — Check returns "" on an
// inapplicable scenario.
func shrinkKnobs(cur **Scenario, try func(*Scenario) bool) {
	knobs := []func(*Scenario){
		func(sc *Scenario) { sc.SnapshotAt = -1 },
		func(sc *Scenario) { sc.Workers = 0 },
		func(sc *Scenario) { sc.BatchSize = 0 },
		func(sc *Scenario) { sc.Jitter = 0 },
	}
	for _, k := range knobs {
		cand := (*cur).Clone()
		k(cand)
		try(cand)
	}
}
