package diff

import (
	"fmt"
	"math/rand"

	cogra "repro"
)

// PatientShape is what varies between the patient streams of the root
// tests and the scenario corpus: the seed, the time-step rule, whether
// runs repeat one draw, and whether ward values age out.
type PatientShape struct {
	Seed int64
	// Step returns how far time advances after event i of n. Nil is
	// sessionStep.
	Step func(rng *rand.Rand, i, n int) int64
	// Burst, when set, draws how many consecutive events repeat one
	// (patient, type) draw: the long same-type runs the batch kernels
	// cut into runs.
	Burst func(rng *rand.Rand) int
	// Rotate renames every ward per 64-tick frame ("w1-7"), so a value
	// bound in a binding slot is never seen again once its frame has
	// passed: what session engines evict and a bare engine keeps. It
	// also gives every event a bed, renamed the same way ("b0-7"), so
	// a query can bind more than two rotating slots.
	Rotate bool
}

// PatientStream emits the A/B/M/X patient stream every differential of
// the repository runs on: A and B carry a payload v, M a per-patient
// rate random walk, X is noise no query names, and every event carries
// patient (the shared partition attribute) and ward (a secondary key).
// IDs are 1..n by position. The same shape always emits the same
// stream.
func PatientStream(shape PatientShape, n int) []*cogra.Event {
	rng := rand.New(rand.NewSource(shape.Seed))
	// Beds draw from a source of their own, so the rest of a rotated
	// stream is the stream without them.
	beds := rand.New(rand.NewSource(^shape.Seed))
	step := shape.Step
	if step == nil {
		step = sessionStep
	}
	rates := [3]float64{60, 70, 80}
	out := make([]*cogra.Event, 0, n)
	tm := int64(0)
	p, kind, left := 0, 0, 0
	for i := 0; i < n; i++ {
		if left == 0 {
			p = rng.Intn(3)
			if shape.Burst != nil {
				left, kind = shape.Burst(rng), rng.Intn(10)
			}
		}
		ward := fmt.Sprintf("w%d", rng.Intn(2))
		if shape.Burst == nil {
			kind = rng.Intn(10)
		} else {
			left--
		}
		if shape.Rotate {
			ward = fmt.Sprintf("%s-%d", ward, tm/64)
		}
		var ev *cogra.Event
		switch {
		case kind < 3:
			ev = cogra.NewEvent("A", tm).WithNum("v", float64(rng.Intn(100)))
		case kind < 5:
			ev = cogra.NewEvent("B", tm).WithNum("v", float64(rng.Intn(100)))
		case kind < 8:
			rates[p] += float64(rng.Intn(7)) - 3
			ev = cogra.NewEvent("M", tm).WithNum("rate", rates[p])
		default:
			ev = cogra.NewEvent("X", tm).WithNum("noise", 1)
		}
		ev.WithSym("patient", fmt.Sprintf("p%d", p)).WithSym("ward", ward)
		if shape.Rotate {
			ev.WithSym("bed", fmt.Sprintf("b%d-%d", beds.Intn(2), tm/64))
		}
		ev.ID = int64(i + 1)
		out = append(out, ev)
		tm += step(rng, i, n)
	}
	return out
}

// sessionStep is the default tempo: an equal-time run grows 3 times in
// 8, an idle gap of 30–179 ticks spans windows 1 time in 8, and time
// otherwise advances one tick.
func sessionStep(rng *rand.Rand, _, _ int) int64 {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return 0
	case 7:
		return 30 + int64(rng.Intn(150))
	default:
		return 1
	}
}

// DenseStep advances one tick 3 times in 4 and never jumps: every
// window holds many events.
func DenseStep(rng *rand.Rand, _, _ int) int64 {
	if rng.Intn(4) != 0 {
		return 1
	}
	return 0
}

// RunStep grows an equal-time run half the time and otherwise advances
// one tick, or 1 time in 8 jumps 20–79 ticks, across a window boundary
// in the middle of a run.
func RunStep(rng *rand.Rand, _, _ int) int64 {
	switch rng.Intn(8) {
	case 0, 1, 2, 3:
		return 0
	case 7:
		return 20 + int64(rng.Intn(60))
	default:
		return 1
	}
}

// PhaseStep gives the stream three phases: a dense burst (time crawls,
// heavy ties), a sparse idle stretch from 3/8 to 5/8 of the stream
// (every event jumps 16–31 ticks, so a few events fill a window), then
// a second dense burst.
func PhaseStep(rng *rand.Rand, i, n int) int64 {
	switch {
	case 3*n/8 <= i && i < 5*n/8:
		return 16 + int64(rng.Intn(16))
	case rng.Intn(8) < 5:
		return 0
	case rng.Intn(8) == 0:
		return 4 + int64(rng.Intn(8))
	default:
		return 1
	}
}

// GroupStep returns a tempo of equal-time groups of 3–9 events whose
// types are drawn independently, so one type's events in a group are
// split into several runs by another type's; between groups time
// advances a tick or, 1 time in 8, jumps 20–79 ticks.
func GroupStep() func(rng *rand.Rand, i, n int) int64 {
	left := 0
	return func(rng *rand.Rand, _, _ int) int64 {
		if left == 0 {
			left = 3 + rng.Intn(7)
		}
		if left--; left > 0 {
			return 0
		}
		if rng.Intn(8) == 7 {
			return 20 + int64(rng.Intn(60))
		}
		return 1
	}
}

// BurstOf3To8 draws bursts of 3–8 events.
func BurstOf3To8(rng *rand.Rand) int { return 3 + rng.Intn(6) }

// PatientQueries covers the three granularities over the patient
// stream plus the contiguous wants-all path; every query partitions by
// patient, so a worker session routes on a shared attribute.
func PatientQueries() map[string]string {
	return map[string]string{
		"type": `
			RETURN COUNT(*), SUM(A.v)
			PATTERN (SEQ(A+, B))+
			SEMANTICS skip-till-any-match
			WHERE [patient] GROUP-BY patient
			WITHIN 64 SLIDE 32`,
		"mixed": `
			RETURN COUNT(*), MAX(M.rate)
			PATTERN M+
			SEMANTICS skip-till-any-match
			WHERE [patient] AND M.rate < NEXT(M).rate
			GROUP-BY patient
			WITHIN 64 SLIDE 64`,
		"pattern": `
			RETURN COUNT(*)
			PATTERN M+
			SEMANTICS skip-till-next-match
			WHERE [patient] AND M.rate <= NEXT(M).rate
			GROUP-BY patient
			WITHIN 96 SLIDE 48`,
		"contiguous": `
			RETURN COUNT(*)
			PATTERN M+
			SEMANTICS contiguous
			WHERE [patient] GROUP-BY patient
			WITHIN 64 SLIDE 64`,
	}
}
