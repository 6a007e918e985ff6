// Sharedfleet: shared trend aggregation across a query fleet. Eight
// dashboards watch the same ascending-measurement trend — identical
// PATTERN, SEMANTICS, WHERE, GROUP-BY and WITHIN — and differ only in
// the aggregates their RETURN clauses project. Without sharing, the
// session runs eight engines that each re-match the Kleene pattern
// and re-aggregate every trend; WithSharedAggregation folds them into
// one *sharing group*: a host engine computes the union of the eight
// aggregation specs once per trend, and each query's answer is a
// cheap projection of the union row at emission.
//
// That is a compile-time property of the queries (everything but
// RETURN is equal), and one engine over the union is never more work
// than one engine per query, so the session simply does it: a query
// that shares with nobody is a group of one. The fleet below changes
// while the stream runs. A dashboard whose RETURN the host already
// computes attaches to it from its first full window on; one that adds
// a new aggregate makes the group hand over, at the next window
// boundary, to a host over the grown union (the old host finishes its
// open windows and is released); a dashboard that leaves takes its
// open windows with it and the rest never notice. Stats() shows the
// group, the handovers, and the aggregation passes the host saved —
// the results are the ones a per-query fleet would produce, window for
// window.
package main

import (
	"fmt"
	"log"
	"math/rand"

	cogra "repro"
)

// fleetReturns: eight distinct answers over one trend computation.
// The first five subscribe before the stream starts, the rest join it.
var fleetReturns = [8]string{
	"COUNT(*)",
	"COUNT(M)",
	"SUM(M.rate)",
	"MAX(M.rate)",
	"MIN(M.rate)",
	"COUNT(*), SUM(M.rate)", // covered by the union of the first five
	"AVG(M.rate)",           // a new aggregate: the group hands over
	"COUNT(*), AVG(M.rate)", // covered again
}

const fleetBody = `
	PATTERN M+
	SEMANTICS skip-till-next-match
	WHERE [patient] AND M.rate <= NEXT(M).rate
	GROUP-BY patient
	WITHIN 60 SLIDE 60`

func main() {
	sess := cogra.NewSession(cogra.WithSharedAggregation())

	subs := make([]*cogra.Subscription, len(fleetReturns))
	subscribe := func(i int) {
		var err error
		if subs[i], err = sess.Subscribe(cogra.MustParse("RETURN " + fleetReturns[i] + "\n" + fleetBody)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		subscribe(i)
	}
	report(sess, "five dashboards before the first event (each new aggregate rebuilt the idle host in place)")

	// Synthetic measurements for three patients, 25 per time step.
	rng := rand.New(rand.NewSource(7))
	rates := []float64{62, 71, 80}
	run := func(from, to int64) {
		for t := from; t < to; t++ {
			for i := 0; i < 25; i++ {
				p := rng.Intn(3)
				rates[p] += float64(rng.Intn(7)) - 3
				ev := cogra.NewEvent("M", t).
					WithSym("patient", fmt.Sprintf("p%d", p)).
					WithNum("rate", rates[p])
				if err := sess.Push(ev); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	run(0, 200)
	subscribe(5)
	report(sess, "a sixth joins mid-window, covered by the host (no handover)")
	run(200, 400)
	subscribe(6)
	report(sess, "a seventh adds AVG (one handover at the next window boundary)")
	run(400, 600)
	subscribe(7)
	left := subs[4].Unsubscribe()
	report(sess, "an eighth joins, the MIN dashboard leaves with its open window")
	run(600, 720)

	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
	// Every query kept its own answer shape throughout — the same
	// results, window for window, a per-query fleet would produce; the
	// late joiners start at their first full window.
	for i, sub := range subs {
		results := sub.Drain()
		if i == 4 {
			results = left
		}
		fmt.Printf("  RETURN %-22s -> %d window results, last: %v\n",
			fleetReturns[i], len(results), results[len(results)-1])
	}
}

func report(sess *cogra.Session, phase string) {
	st, err := sess.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n  sharing groups: %d, host handovers: %d, aggregation passes saved: %d\n",
		phase, st.SharedGroups, st.ShareFlips, st.SharedSavedOps)
}
