// Fleet: one Session hosting a changing population of queries over one
// live measurement stream — the serving shape of the API.
//
// Every event is resolved once and dispatched only to the queries that
// react to its type, and one watermark drives every sliding window. The
// session runs 4 partition workers, routed on the partition attribute
// the first queries share (patient).
//
// Dashboards that watch the same trend — identical PATTERN, SEMANTICS,
// WHERE, GROUP-BY and WITHIN — and differ only in RETURN share one
// *sharing group*: a host engine computes the union of their aggregates
// once per trend, and each dashboard's answer is projected out of the
// union row. That is a compile-time property and one union engine is
// never more work than one engine per query, so the session always
// does it. Each worker owns its own groups, so the counters below are
// summed over the 4 workers.
//
// The fleet changes while the stream runs:
//   - a dashboard whose RETURN the host already computes joins from its
//     first full window on (a covered join);
//   - one that adds an aggregate makes the group hand over, at the next
//     window boundary, to a host over the grown union (a handover);
//   - an incident query keyed by ward joins after routing froze on
//     patient, so it runs on the fallback worker: a full-stream worker
//     that sees every event in order, retired with its last subscriber;
//   - a dashboard leaves, taking its open windows with it.
//
// A query that joins mid-stream reports from the first window it could
// observe completely, so its numbers are trustworthy from the first
// line; every other window is what a query subscribed all along — or
// one engine per query — reports.
package main

import (
	"fmt"
	"log"
	"math/rand"

	cogra "repro"
)

const trend = `
	PATTERN M+
	SEMANTICS skip-till-next-match
	WHERE [patient] AND M.rate <= NEXT(M).rate
	GROUP-BY patient
	WITHIN 60 SLIDE 60`

func main() {
	sess := cogra.NewSession(cogra.WithWorkers(4))
	subs := map[string]*cogra.Subscription{}
	subscribe := func(name, src string) {
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		subs[name] = sub
	}

	// Before the stream: two dashboards over one trend, and a check-in
	// query with a pattern of its own.
	subscribe("count+sum", "RETURN COUNT(*), SUM(M.rate)"+trend)
	subscribe("count", "RETURN COUNT(*)"+trend)
	subscribe("checkins", `
		RETURN COUNT(*)
		PATTERN SEQ(C+, M)
		SEMANTICS skip-till-any-match
		WHERE [patient] GROUP-BY patient
		WITHIN 120 SLIDE 120`)
	report(sess, "t=0    three queries, two of them one sharing group")

	rng := rand.New(rand.NewSource(7))
	rates := []float64{62, 71, 80}
	var left []cogra.Result
	for t := int64(0); t < 600; t++ {
		for i := 0; i < 8; i++ {
			p := rng.Intn(3)
			ev := cogra.NewEvent("M", t)
			if rng.Intn(10) == 0 {
				ev = cogra.NewEvent("C", t)
			} else {
				rates[p] += float64(rng.Intn(7)) - 3
				ev.WithNum("rate", rates[p])
			}
			ev.WithSym("patient", fmt.Sprintf("p%d", p)).WithSym("ward", fmt.Sprintf("w%d", p%2))
			if err := sess.Push(ev); err != nil {
				log.Fatal(err)
			}
		}
		switch t {
		case 150:
			subscribe("sum", "RETURN SUM(M.rate)"+trend)
			report(sess, "t=150  covered join: the host already computes SUM")
		case 250:
			subscribe("avg", "RETURN AVG(M.rate)"+trend)
			report(sess, "t=250  AVG is new: the group hands over at the next window boundary")
		case 350:
			subscribe("incident", `
				RETURN COUNT(*)
				PATTERN M+
				SEMANTICS skip-till-next-match
				WHERE [ward] AND M.rate < NEXT(M).rate
				GROUP-BY ward
				WITHIN 60 SLIDE 60`)
			report(sess, "t=350  incident query by ward: routing froze on patient, so the fallback worker")
		case 450:
			left = subs["count+sum"].Unsubscribe()
			for _, r := range subs["incident"].Unsubscribe() {
				fmt.Printf("  incident  %v\n", r)
			}
			report(sess, "t=450  count+sum leaves with its open windows; the incident closes and the fallback worker retires")
		}
	}
	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"count+sum", "count", "checkins", "sum", "avg"} {
		results := subs[name].Drain()
		if name == "count+sum" {
			results = left
		}
		fmt.Printf("%-10s %3d window results, last: %v\n", name, len(results), results[len(results)-1])
	}
}

func report(sess *cogra.Session, phase string) {
	st, err := sess.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n  queries %d, sharing groups %d, handovers %d, passes saved %d, executor groups %d\n",
		phase, st.Queries, st.SharedGroups, st.ShareFlips, st.SharedSavedOps, st.ExecutorGroups)
}
