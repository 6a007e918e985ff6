package cogra_test

// The paper's three queries, q1–q3, as runnable examples over the
// generated healthcare, ridesharing and stock streams. `go test` checks
// what each prints against its Output block.

import (
	"fmt"

	cogra "repro"
	"repro/internal/gen"
)

// Example_healthcare is query q1: cardiac arrhythmia monitoring detects
// contiguously increasing heart-rate trends during passive activities
// per intensive-care patient, reporting the minimal and maximal rate
// in a 10-minute window sliding every 30 seconds. The contiguous
// semantics selects the pattern granularity: COGRA keeps two
// aggregates and the last matched event per patient, regardless of the
// stream rate. Results stream through a Sink as each window closes.
func Example_healthcare() {
	q, err := cogra.Parse(`
		RETURN patient, MIN(M.rate), MAX(M.rate), COUNT(*)
		PATTERN Measurement M+
		SEMANTICS contiguous
		WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
		GROUP-BY patient
		WITHIN 10 minutes SLIDE 30 seconds`)
	if err != nil {
		fmt.Println(err)
		return
	}
	// One hour of measurements for four intensive-care patients.
	events := gen.Activity(gen.ActivityConfig{Seed: 42, Events: 3600, Persons: 4, RunLength: 8})

	sess := cogra.NewSession()
	shown := 0
	sub, err := sess.Subscribe(q, cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) {
		if shown < 8 { // print the first windows only
			fmt.Println(r)
			shown++
		}
	})))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sub.Plan())
	for _, e := range events {
		if err := sess.Push(e); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Println(err)
		return
	}
	st, err := sess.Stats()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("...\nprocessed %d measurements\n", st.Events)
	// Output:
	// plan: granularity=pattern semantics=contiguous pattern=(Measurement M)+ partition-by=[patient]
	// window [0,600) group=(p00): MIN(M.rate)=40, MAX(M.rate)=95.71, COUNT(*)=401
	// window [0,600) group=(p01): MIN(M.rate)=40, MAX(M.rate)=83.67, COUNT(*)=337
	// window [0,600) group=(p02): MIN(M.rate)=51.61, MAX(M.rate)=94.24, COUNT(*)=389
	// window [0,600) group=(p03): MIN(M.rate)=40, MAX(M.rate)=82.63, COUNT(*)=212
	// window [30,630) group=(p00): MIN(M.rate)=40, MAX(M.rate)=95.71, COUNT(*)=403
	// window [30,630) group=(p01): MIN(M.rate)=40, MAX(M.rate)=83.67, COUNT(*)=340
	// window [30,630) group=(p02): MIN(M.rate)=51.61, MAX(M.rate)=94.24, COUNT(*)=385
	// window [30,630) group=(p03): MIN(M.rate)=40, MAX(M.rate)=82.63, COUNT(*)=216
	// ...
	// processed 3600 measurements
}

// Example_rideshare is query q2: an Uber-pool trip is one Accept, one
// or more (Call, Cancel) pairs and one Finish, all with the same
// driver; skip-till-next-match skips the in-transit and drop-off noise
// in between. The query counts completable trips per driver. The
// [driver] equivalence predicate partitions the stream, so a 4-worker
// session routes sub-streams onto worker goroutines (§8) and returns
// exactly the results of the inline session.
func Example_rideshare() {
	const src = `
		RETURN driver, COUNT(*)
		PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)
		SEMANTICS skip-till-next-match
		WHERE [driver] GROUP-BY driver
		WITHIN 10 minutes SLIDE 30 seconds`
	events := gen.Rideshare(gen.RideshareConfig{Seed: 3, Trips: 400, Drivers: 8, NoiseFraction: 0.4})

	run := func(opts ...cogra.SessionOption) ([]cogra.Result, error) {
		sess := cogra.NewSession(opts...)
		sub, err := sess.Subscribe(cogra.MustParse(src))
		if err != nil {
			return nil, err
		}
		cloned := make([]*cogra.Event, len(events))
		for i, e := range events {
			cloned[i] = e.Clone()
		}
		if err := sess.PushBatch(cloned); err != nil {
			return nil, err
		}
		if err := sess.Close(); err != nil {
			return nil, err
		}
		return sub.Drain(), nil
	}
	sequential, err := run() // inline on this goroutine
	if err != nil {
		fmt.Println(err)
		return
	}
	parallel, err := run(cogra.WithWorkers(4)) // routed by [driver]
	if err != nil {
		fmt.Println(err)
		return
	}
	same := len(sequential) == len(parallel)
	for i := 0; same && i < len(sequential); i++ {
		same = sequential[i].String() == parallel[i].String()
	}
	fmt.Printf("%d window results, parallel == sequential: %v; first 4:\n", len(parallel), same)
	for _, r := range parallel[:4] {
		fmt.Println(r)
	}
	// Output:
	// 975 window results, parallel == sequential: true; first 4:
	// window [0,600) group=(d000): COUNT(*)=7
	// window [0,600) group=(d001): COUNT(*)=7
	// window [0,600) group=(d002): COUNT(*)=7
	// window [0,600) group=(d003): COUNT(*)=8
}

// Example_trading is query q3: within each sector, down-trends of
// company A's price are followed by trends of company B whose average
// price the query reports, under skip-till-any-match — local
// fluctuations are skipped to catch longer, more reliable trends. The
// predicate on adjacent events (A.price > NEXT(A).price) makes COGRA
// select the mixed granularity: A-events are stored for predicate
// evaluation, everything else aggregates per type. A small market keeps
// the group list readable and the trend counts within uint64: under
// skip-till-any-match the number of trends grows exponentially with the
// events per window (Table 3), which is why constructing them is
// hopeless.
func Example_trading() {
	q, err := cogra.Parse(`
		RETURN sector, A.company, B.company, AVG(B.price)
		PATTERN SEQ(Stock A+, Stock B+)
		SEMANTICS skip-till-any-match
		WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		GROUP-BY sector, A.company, B.company
		WITHIN 90 seconds SLIDE 90 seconds`)
	if err != nil {
		fmt.Println(err)
		return
	}
	events := gen.Stock(gen.StockConfig{Seed: 7, Events: 600, Companies: 6, Sectors: 2})

	sess := cogra.NewSession()
	sub, err := sess.Subscribe(q)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sub.Plan())
	if err := sess.PushBatch(events); err != nil {
		fmt.Println(err)
		return
	}
	if err := sess.Close(); err != nil {
		fmt.Println(err)
		return
	}
	shown, total := 0, 0
	for r := range sub.Results() {
		if shown < 4 {
			fmt.Println(r)
			shown++
		}
		total++
	}
	fmt.Printf("(%d (sector, A, B) groups with detected trend pairs; first %d shown)\n", total, shown)
	// Output:
	// plan: granularity=mixed semantics=skip-till-any-match pattern=SEQ((Stock A)+, (Stock B)+) event-grained=[A] partition-by=[sector] binding-slots=[[A.company] [B.company]]
	// window [0,90) group=(sec0,co00,co00): AVG(B.price)=144.47448727703102
	// window [0,90) group=(sec0,co00,co02): AVG(B.price)=74.03349901896665
	// window [0,90) group=(sec0,co00,co04): AVG(B.price)=120.42022807470522
	// window [0,90) group=(sec0,co02,co00): AVG(B.price)=144.36451592895406
	// (126 (sector, A, B) groups with detected trend pairs; first 4 shown)
}
