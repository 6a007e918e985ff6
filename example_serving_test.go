package cogra_test

// Two serving shapes of the Session API as runnable examples: a fleet
// of queries that changes while the stream runs, and a source whose
// events arrive out of order. `go test` checks what each prints against
// its Output block.

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	cogra "repro"
)

// Example_fleet is one Session hosting a changing population of queries
// over one live measurement stream — the serving shape of the API.
//
// Every event is resolved once and dispatched only to the queries that
// react to its type, and one watermark drives every sliding window. The
// session runs 4 partition workers, routed on the partition attribute
// the first queries share (patient).
//
// Dashboards that watch the same trend — identical PATTERN, SEMANTICS,
// WHERE, GROUP-BY and WITHIN — and differ only in RETURN share one
// sharing group: a host engine computes the union of their aggregates
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
func Example_fleet() {
	const trend = `
		PATTERN M+
		SEMANTICS skip-till-next-match
		WHERE [patient] AND M.rate <= NEXT(M).rate
		GROUP-BY patient
		WITHIN 60 SLIDE 60`
	sess := cogra.NewSession(cogra.WithWorkers(4))
	subs := map[string]*cogra.Subscription{}
	subscribe := func(name, src string) {
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		subs[name] = sub
	}
	report := func(phase string) {
		st, err := sess.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  queries %d, sharing groups %d, handovers %d, passes saved %d, executor groups %d\n",
			phase, st.Queries, st.SharedGroups, st.ShareFlips, st.SharedSavedOps, st.ExecutorGroups)
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
	report("t=0    three queries, two of them one sharing group")

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
			report("t=150  covered join: the host already computes SUM")
		case 250:
			subscribe("avg", "RETURN AVG(M.rate)"+trend)
			report("t=250  AVG is new: the group hands over at the next window boundary")
		case 350:
			subscribe("incident", `
				RETURN COUNT(*)
				PATTERN M+
				SEMANTICS skip-till-next-match
				WHERE [ward] AND M.rate < NEXT(M).rate
				GROUP-BY ward
				WITHIN 60 SLIDE 60`)
			report("t=350  incident query by ward: routing froze on patient, so the fallback worker")
		case 450:
			left = subs["count+sum"].Unsubscribe()
			for _, r := range subs["incident"].Unsubscribe() {
				fmt.Printf("  incident  %v\n", r)
			}
			report("t=450  count+sum leaves with its open windows; the incident closes and the fallback worker retires")
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
	// Output:
	// t=0    three queries, two of them one sharing group
	//   queries 3, sharing groups 4, handovers 0, passes saved 0, executor groups 0
	// t=150  covered join: the host already computes SUM
	//   queries 4, sharing groups 4, handovers 0, passes saved 1092, executor groups 0
	// t=250  AVG is new: the group hands over at the next window boundary
	//   queries 5, sharing groups 4, handovers 4, passes saved 2528, executor groups 0
	// t=350  incident query by ward: routing froze on patient, so the fallback worker
	//   queries 6, sharing groups 4, handovers 4, passes saved 5390, executor groups 1
	//   incident  window [360,420) group=(w0): COUNT(*)=333
	//   incident  window [360,420) group=(w1): COUNT(*)=158
	//   incident  window [420,480) group=(w0): COUNT(*)=173
	//   incident  window [420,480) group=(w1): COUNT(*)=82
	// t=450  count+sum leaves with its open windows; the incident closes and the fallback worker retires
	//   queries 4, sharing groups 4, handovers 4, passes saved 7583, executor groups 0
	// count+sum   24 window results, last: window [420,480) group=(p2): COUNT(*)=99, SUM(M.rate)=19185
	// count       30 window results, last: window [540,600) group=(p2): COUNT(*)=182
	// checkins    15 window results, last: window [480,600) group=(p2): COUNT(*)=256096589534
	// sum         21 window results, last: window [540,600) group=(p2): SUM(M.rate)=34467
	// avg         15 window results, last: window [540,600) group=(p2): AVG(M.rate)=154.5605381165919
}

// Example_disordered ingests a real-world source whose events arrive
// out of order. The paper assumes an in-order stream (§2.1); production
// sources — sensors behind flaky uplinks, partitioned message buses —
// deliver within a disorder bound instead. WithSlack(k) puts a K-slack
// buffer in front of the watermark: events are re-sorted within k time
// units, stragglers beyond that follow the late policy (dropped and
// counted by default, or rejected with ErrLateEvent), and results are
// identical to the sorted stream.
func Example_disordered() {
	q := cogra.MustParse(`
		RETURN COUNT(*), MAX(M.rate)
		PATTERN M+
		SEMANTICS skip-till-any-match
		WHERE [sensor]
		GROUP-BY sensor
		WITHIN 60 SLIDE 60`)

	// A sensor feed: in-order at the source, then shuffled within a
	// bounded window — the shape network jitter produces.
	rng := rand.New(rand.NewSource(11))
	var feed []*cogra.Event
	rate := 50.0
	for t := int64(0); t < 300; t++ {
		rate += float64(rng.Intn(5)) - 2
		e := cogra.NewEvent("M", t).
			WithSym("sensor", fmt.Sprintf("s%d", rng.Intn(3))).
			WithNum("rate", rate)
		e.ID = t + 1
		feed = append(feed, e)
	}
	for i := 0; i+4 < len(feed); i += 5 {
		rng.Shuffle(5, func(a, b int) { feed[i+a], feed[i+b] = feed[i+b], feed[i+a] })
	}

	sess := cogra.NewSession(cogra.WithSlack(8)) // jitter bound: 8 ticks
	sub, err := sess.Subscribe(q)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.PushBatch(feed); err != nil {
		log.Fatal(err)
	}

	// A straggler from before the slack horizon: dropped and counted
	// under the default DropLate policy.
	if err := sess.Push(cogra.NewEvent("M", 0).WithSym("sensor", "s0").WithNum("rate", 1)); err != nil {
		log.Fatal(err)
	}
	st, err := sess.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d events; %d dropped late; reorder buffer peaked at %d events\n",
		st.Events, st.LateDropped, st.ReorderPeakDepth)

	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
	shown := 0
	for r := range sub.Results() {
		if shown == 6 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %v\n", r)
		shown++
	}

	// The same straggler under RejectLate fails the Push instead, with
	// a typed error the caller can branch on.
	strict := cogra.NewSession(cogra.WithSlack(8), cogra.WithLatePolicy(cogra.RejectLate))
	if _, err := strict.Subscribe(q); err != nil {
		log.Fatal(err)
	}
	if err := strict.Push(cogra.NewEvent("M", 100).WithSym("sensor", "s0").WithNum("rate", 1)); err != nil {
		log.Fatal(err)
	}
	err = strict.Push(cogra.NewEvent("M", 1).WithSym("sensor", "s0").WithNum("rate", 1))
	fmt.Printf("RejectLate straggler: err=%v (ErrLateEvent: %v)\n", err, errors.Is(err, cogra.ErrLateEvent))
	if err := strict.Close(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// ingested 291 events; 1 dropped late; reorder buffer peaked at 9 events
	//   window [0,60) group=(s0): COUNT(*)=1048575, MAX(M.rate)=69
	//   window [0,60) group=(s1): COUNT(*)=2097151, MAX(M.rate)=70
	//   window [0,60) group=(s2): COUNT(*)=524287, MAX(M.rate)=69
	//   window [60,120) group=(s0): COUNT(*)=1048575, MAX(M.rate)=69
	//   window [60,120) group=(s1): COUNT(*)=32767, MAX(M.rate)=71
	//   window [60,120) group=(s2): COUNT(*)=33554431, MAX(M.rate)=70
	//   ...
	// RejectLate straggler: err=cogra: event at time 1 older than the stream's drop boundary 92 (watermark minus slack, raised by shedding): late event (ErrLateEvent: true)
}
