package diff

import (
	"fmt"
	"math/rand"

	cogra "repro"
)

// GoldenFrame is one named checkpoint scenario: Build returns a live
// session standing at its cut. The frames such sessions write are
// committed under testdata/golden (scripts/gen_fuzz_corpus.go) and
// pinned byte for byte by TestSnapshotGoldenFrames, so a codec change
// that moves a single byte of any section shows up as a diff instead of
// at somebody's restore. Between them the scenarios reach every section
// of the format the fuzz seed does not.
type GoldenFrame struct {
	Name  string
	Build func() (*cogra.Session, error)
}

// GoldenFrames returns the committed scenarios.
func GoldenFrames() []GoldenFrame {
	return []GoldenFrame{
		{"fleet", goldenFleet},
		{"vectors", goldenVectors},
		{"mixed", goldenMixed},
		{"detached", goldenDetached},
		{"unconstrained", goldenUnconstrained},
		{"handover", goldenHandover},
		{"retired", goldenRetired},
		{"literals", goldenLiterals},
	}
}

// goldenStream is a dense seeded mix: A/B/C sequences carrying a
// drifting x (slot values age out under eviction), M rate walks, N
// negation fires and X noise over three patients and two wards, with
// long equal-timestamp runs and occasional window-spanning gaps.
func goldenStream(n int, seed int64) []*cogra.Event {
	rng := rand.New(rand.NewSource(seed))
	rates := [3]float64{60, 70, 80}
	out := make([]*cogra.Event, 0, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		p := rng.Intn(3)
		ev := cogra.NewEvent("X", tm)
		switch x := rng.Intn(16); {
		case x < 4:
			ev = cogra.NewEvent("A", tm).WithNum("v", float64(rng.Intn(100)))
		case x < 7:
			ev = cogra.NewEvent("B", tm).WithNum("v", float64(rng.Intn(100)))
		case x < 9:
			ev = cogra.NewEvent("C", tm)
		case x < 13:
			rates[p] += float64(rng.Intn(7)) - 3
			ev = cogra.NewEvent("M", tm).WithNum("rate", rates[p])
		case x < 14:
			ev = cogra.NewEvent("N", tm)
		}
		ev.WithSym("patient", fmt.Sprintf("p%d", p)).
			WithSym("ward", fmt.Sprintf("w%d", rng.Intn(2))).
			WithSym("x", fmt.Sprintf("x%d", i/60+rng.Intn(2)))
		ev.ID = int64(i + 1)
		out = append(out, ev)
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // equal-timestamp run
		case 7:
			tm += 20 + int64(rng.Intn(60))
		default:
			tm++
		}
	}
	return out
}

func subscribeAll(sess *cogra.Session, srcs ...string) ([]*cogra.Subscription, error) {
	var subs []*cogra.Subscription
	for _, src := range srcs {
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return subs, nil
}

// goldenFleet: four workers, each with its own sharing group of three
// RETURN-variants on one host over their union (the second variant is
// covered by the first, the third grows the union before any event, so
// the first host is rebuilt in place), and a late joiner partitioned by
// another attribute, which lands on the fallback worker.
func goldenFleet() (*cogra.Session, error) {
	const body = `
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 32`
	events := goldenStream(888, 31)
	sess := cogra.NewSession(cogra.WithWorkers(4))
	if _, err := subscribeAll(sess,
		"RETURN COUNT(*), SUM(A.v)"+body, "RETURN COUNT(*)"+body, "RETURN AVG(A.v), COUNT(B)"+body); err != nil {
		return nil, err
	}
	if err := sess.PushBatch(events[:500]); err != nil {
		return nil, err
	}
	if _, err := subscribeAll(sess, `
		RETURN COUNT(*), MIN(M.rate)
		PATTERN M+
		SEMANTICS skip-till-next-match
		WHERE [ward] GROUP-BY ward
		WITHIN 96 SLIDE 48`); err != nil {
		return nil, err
	}
	return sess, sess.PushBatch(events[500:])
}

// goldenVectors: a three-slot binding plan (interned vectors beside
// interned values) under intern eviction, cut after slot values have
// aged out, so stamps and free lists are populated. Vector ids are
// handed out in the order an aggregate table (a Go map) is iterated, so
// a byte-reproducible frame needs every iterated table to hold at most
// one binding: each phase fixes A.x and B.x and varies only C.x, and
// phases lie further apart than a window.
func goldenVectors() (*cogra.Session, error) {
	sess := cogra.NewSession()
	if _, err := subscribeAll(sess, `
		RETURN COUNT(*), MAX(A.v)
		PATTERN SEQ(A+, B, C)
		SEMANTICS skip-till-any-match
		WHERE [A.x] AND [B.x] AND [C.x]
		WITHIN 48 SLIDE 24`); err != nil {
		return nil, err
	}
	// Five whole phases and the first eight events of a sixth: it has
	// re-used fewer ids than eviction freed, so both free lists are
	// non-empty, and its windows are open with vector-keyed tables.
	for n := 0; n < 5*30+8; n++ {
		phase, i := n/30, n%30
		typ := "AABAC"[i%5 : i%5+1]
		ev := cogra.NewEvent(typ, int64(phase*200+i/2)).WithNum("v", float64(i)).
			WithSym("x", fmt.Sprintf("%s%d", typ, phase))
		if typ == "C" {
			ev.WithSym("x", fmt.Sprintf("C%d.%d", phase, i%3))
		}
		if err := sess.Push(ev); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// goldenMixed: mixed-grained stored entries retaining their left
// operands, negation by fire times (stored predecessors) and by shadow
// tables (type-grained predecessors, in both a mixed and a type-grained
// plan), cut inside an equal-timestamp run so the staged updates and
// resets of the open time stamp are in the frame.
func goldenMixed() (*cogra.Session, error) {
	sess := cogra.NewSession()
	if _, err := subscribeAll(sess, `
		RETURN COUNT(*), MAX(M.rate)
		PATTERN SEQ(A+, NOT(C), M+, NOT(N), B)
		SEMANTICS skip-till-any-match
		WHERE [patient] AND M.rate < NEXT(M).rate
		GROUP-BY patient
		WITHIN 64 SLIDE 32`, `
		RETURN COUNT(*), AVG(A.v)
		PATTERN SEQ(A+, NOT(N), B)
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 32`); err != nil {
		return nil, err
	}
	if err := sess.PushBatch(goldenStream(500, 33)); err != nil {
		return nil, err
	}
	// A short rising run for p0 whose last time stamp stays open: the
	// first two stamps commit (stored M entries, shadow rows), the third
	// leaves its updates and the N reset staged.
	st, err := sess.Stats()
	if err != nil {
		return nil, err
	}
	for i, typ := range []string{"A", "M", "M", "A", "M", "B", "N", "M"} {
		ev := cogra.NewEvent(typ, st.Watermark+min(int64(i), 3)).WithSym("patient", "p0").
			WithNum("v", 5).WithNum("rate", float64(90+i))
		if err := sess.Push(ev); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// goldenDetached: a slack buffer holding events, one active
// subscription with undelivered results in the session-level pending
// buffer and one detached subscription still holding its own — its
// catalog ids tombstoned — which must survive without a plan.
func goldenDetached() (*cogra.Session, error) {
	events, slack := ShuffleBounded(goldenStream(600, 34), 6, 7)
	sess := cogra.NewSession(cogra.WithSlack(slack))
	subs, err := subscribeAll(sess, `
		RETURN COUNT(*), SUM(A.v)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 32`, `
		RETURN COUNT(*)
		PATTERN M+
		SEMANTICS contiguous
		WHERE [ward] GROUP-BY ward
		WITHIN 64 SLIDE 64`)
	if err != nil {
		return nil, err
	}
	if err := sess.PushBatch(events); err != nil {
		return nil, err
	}
	// Breaking out of Results parks the unconsumed rest in the pending
	// buffer; unsubscribing inside the loop detaches the query first.
	for range subs[0].Results() {
		break
	}
	for range subs[1].Results() {
		subs[1].Unsubscribe()
		break
	}
	return sess, subs[1].Err()
}

// goldenUnconstrained: a plan labelled mixed-grained whose adjacent
// predicate constrains no FSA transition (B never follows B), so Te = ∅
// and nothing is ever stored — yet the label, not the split, decides
// that the frame carries one empty stored section per alias and the
// fire times of N. Cut inside an equal-timestamp run, like goldenMixed.
func goldenUnconstrained() (*cogra.Session, error) {
	sess := cogra.NewSession()
	if _, err := subscribeAll(sess, `
		RETURN COUNT(*), AVG(A.v)
		PATTERN SEQ(A+, NOT(N), B)
		SEMANTICS skip-till-any-match
		WHERE [patient] AND B.v < NEXT(B).v
		GROUP-BY patient
		WITHIN 64 SLIDE 32`); err != nil {
		return nil, err
	}
	if err := sess.PushBatch(goldenStream(300, 35)); err != nil {
		return nil, err
	}
	st, err := sess.Stats()
	if err != nil {
		return nil, err
	}
	for i, typ := range []string{"A", "N", "A", "B", "N", "A"} {
		ev := cogra.NewEvent(typ, st.Watermark+min(int64(i), 2)).WithSym("patient", "p0").WithNum("v", float64(i))
		if err := sess.Push(ev); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// goldenHandover: a sharing group cut while an old and a new host are
// both live. The second RETURN-variant joins mid-stream with an
// aggregate the first host does not compute, so the group hands over
// at the next window boundary W*; the events pushed after the join
// reach past that boundary but not past the close of window W*-1, so
// the frame carries the retired host (ceiling W*, open windows below
// it, one view) ahead of its successor (floor W*, union query, two
// views).
func goldenHandover() (*cogra.Session, error) {
	const body = `
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 32`
	sess := cogra.NewSession()
	if _, err := subscribeAll(sess, "RETURN COUNT(*)"+body); err != nil {
		return nil, err
	}
	if err := sess.PushBatch(goldenStream(300, 36)); err != nil {
		return nil, err
	}
	if _, err := subscribeAll(sess, "RETURN COUNT(*), SUM(A.v)"+body); err != nil {
		return nil, err
	}
	st, err := sess.Stats()
	if err != nil {
		return nil, err
	}
	boundary := (st.Watermark/32 + 1) * 32 // start of window W*
	for i, typ := range []string{"A", "A", "B", "A", "B", "A", "A", "B"} {
		ev := cogra.NewEvent(typ, max(st.Watermark, boundary-4+2*int64(i))).WithSym("patient", "p0").WithNum("v", float64(i))
		if err := sess.Push(ev); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// goldenRetired: two workers partitioned by patient, hosting two
// subscriptions made from one SubscribePlan(p) — one plan table entry
// referenced twice — and a fallback worker that came and went. Two
// RETURN-variants keyed by ward join the fallback mid-stream, the
// second through one handover; once both leave, the fallback retires,
// so only the executor's retired counters remember that handover and
// the operations the group saved.
func goldenRetired() (*cogra.Session, error) {
	const ward = `
		PATTERN M+
		SEMANTICS skip-till-next-match
		WHERE [ward] GROUP-BY ward
		WITHIN 64 SLIDE 32`
	events := goldenStream(900, 37)
	sess := cogra.NewSession(cogra.WithWorkers(2))
	p, err := cogra.CompileIn(sess.Catalog(), cogra.MustParse(`
		RETURN COUNT(*), SUM(A.v)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 64 SLIDE 32`))
	if err != nil {
		return nil, err
	}
	for range 2 {
		if _, err := sess.SubscribePlan(p); err != nil {
			return nil, err
		}
	}
	if err := sess.PushBatch(events[:300]); err != nil {
		return nil, err
	}
	guests, err := subscribeAll(sess, "RETURN COUNT(*)"+ward)
	if err != nil {
		return nil, err
	}
	if err := sess.PushBatch(events[300:450]); err != nil {
		return nil, err
	}
	joiner, err := subscribeAll(sess, "RETURN COUNT(*), MIN(M.rate)"+ward)
	if err != nil {
		return nil, err
	}
	if err := sess.PushBatch(events[450:750]); err != nil {
		return nil, err
	}
	for _, sub := range append(guests, joiner...) {
		if sub.Unsubscribe(); sub.Err() != nil {
			return nil, sub.Err()
		}
	}
	return sess, sess.PushBatch(events[750:])
}

// goldenLiterals: plan table entries whose texts hold every literal
// form — a number, a negative number, one in exponent form, a string
// with both quote characters and a backslash — and two queries that
// differ only in whether a literal is the number 5 or the string "5".
// Those two compute different trends, so they run in two groups of one
// (Stats().SharedGroups stays 0) although a display rendering writes
// both literals as 5.
func goldenLiterals() (*cogra.Session, error) {
	const pair = `
		RETURN COUNT(*), SUM(A.v)
		PATTERN SEQ(A+, B)
		SEMANTICS skip-till-any-match
		WHERE [patient] AND A.v != %s AND B.v > -2
		GROUP-BY patient
		WITHIN 64 SLIDE 32`
	sess := cogra.NewSession()
	if _, err := subscribeAll(sess, fmt.Sprintf(pair, "5"), fmt.Sprintf(pair, "'5'"), `
		RETURN COUNT(*), MAX(M.rate)
		PATTERN M+
		SEMANTICS skip-till-next-match
		WHERE [ward] AND M.rate < 1e+06 AND M.x != "q\"'\\"
		GROUP-BY ward
		WITHIN 96 SLIDE 48`); err != nil {
		return nil, err
	}
	return sess, sess.PushBatch(goldenStream(400, 38))
}
