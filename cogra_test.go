package cogra_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	cogra "repro"
	"repro/internal/core"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	q := cogra.MustParse(`
		RETURN COUNT(*)
		PATTERN (SEQ(A+, B))+
		SEMANTICS skip-till-any-match
		WITHIN 100 SLIDE 100`)
	plan := cogra.MustCompile(q)
	if plan.Granularity != cogra.TypeGrained {
		t.Fatalf("granularity = %v", plan.Granularity)
	}
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch(figure2Stream()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	res := sub.Drain()
	if len(res) != 1 || res[0].Values[0].Count != 43 {
		t.Fatalf("results = %v", res)
	}
}

// TestPublicAPICompileQ3 compiles the paper's q3 and checks the
// granularity selector's output.
func TestPublicAPICompileQ3(t *testing.T) {
	plan := cogra.MustCompile(cogra.MustParse(`
		RETURN AVG(B.price)
		PATTERN SEQ(Stock A+, Stock B+)
		SEMANTICS skip-till-any-match
		WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		GROUP-BY A.company, B.company
		WITHIN 600 SLIDE 10`))
	if plan.Granularity != cogra.MixedGrained {
		t.Fatalf("granularity = %v, want mixed", plan.Granularity)
	}
	if !plan.EventGrained["A"] || plan.EventGrained["B"] {
		t.Fatalf("event-grained set = %v", plan.EventGrained)
	}
}

// TestPublicAPIAggSpecs checks that every aggregate of a RETURN
// clause renders as the paper writes it.
func TestPublicAPIAggSpecs(t *testing.T) {
	want := []string{"COUNT(*)", "COUNT(M)", "MIN(M.rate)", "MAX(M.rate)", "SUM(M.x)", "AVG(M.p)"}
	q := cogra.MustParse("RETURN " + strings.Join(want, ", ") + " PATTERN Measurement M+ WITHIN 10 SLIDE 10")
	if len(q.Returns) != len(want) {
		t.Fatalf("parsed %d aggregates, want %d", len(q.Returns), len(want))
	}
	for i, spec := range q.Returns {
		if got := spec.String(); got != want[i] {
			t.Errorf("spec renders %q, want %q", got, want[i])
		}
	}
}

// TestCSVRoundTrip exercises the heterogeneous CSV codec.
func TestCSVRoundTrip(t *testing.T) {
	events := []*cogra.Event{
		cogra.NewEvent("Accept", 1).WithSym("driver", "d1"),
		cogra.NewEvent("Stock", 2).WithSym("company", "IBM").WithNum("price", 101.5),
		cogra.NewEvent("Stock", 3).WithSym("company", "HP").WithNum("price", 7),
	}
	var buf bytes.Buffer
	if err := cogra.WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := cogra.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("len = %d", len(back))
	}
	if back[0].Type != "Accept" || back[0].Sym["driver"] != "d1" {
		t.Errorf("event 0 = %v", back[0])
	}
	if _, ok := back[0].NumAttr("price"); ok {
		t.Error("absent attribute resurrected from empty cell")
	}
	if back[1].Num["price"] != 101.5 || back[2].Num["price"] != 7 {
		t.Errorf("prices lost: %v %v", back[1], back[2])
	}
}

// TestCSVWriteReadRoundTrip: whatever WriteCSV writes, ReadCSV reads
// back as the same events; what it could not, WriteCSV refuses,
// naming the event's time and the attribute.
func TestCSVWriteReadRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name   string
		events []*cogra.Event
		err    string // a substring of WriteCSV's error; "" round-trips
	}{
		{"mixed schemas", []*cogra.Event{
			cogra.NewEvent("Accept", 1).WithSym("driver", "d 1"),
			cogra.NewEvent("Stock", 2).WithSym("company", "IBM").WithNum("price", 101.5).WithNum("volume", 1e-7),
			cogra.NewEvent("Quote", 2).WithNum("bid:num", 3),
		}, ""},
		{"comma in a value", []*cogra.Event{
			cogra.NewEvent("Stock", 3).WithSym("company", "Acme, Inc."),
		}, `time 3: symbolic attribute "company"`},
		{"line break in a value", []*cogra.Event{
			cogra.NewEvent("Stock", 4).WithSym("company", "IBM"),
			cogra.NewEvent("Stock", 5).WithSym("company", "two\nlines"),
		}, `time 5: symbolic attribute "company"`},
		{"symbolic and numeric under one name", []*cogra.Event{
			cogra.NewEvent("Stock", 6).WithNum("price", 7),
			cogra.NewEvent("Quote", 7).WithSym("price", "n/a"),
		}, `time 7: symbolic attribute "price"`},
		{"empty value", []*cogra.Event{
			cogra.NewEvent("Stock", 8).WithSym("company", ""),
		}, `time 8: symbolic attribute "company"`},
		{"white space around the last cell", []*cogra.Event{
			cogra.NewEvent("Stock", 9).WithSym("company", "IBM "),
		}, `time 9: symbolic attribute "company"`},
		{"symbolic name of a numeric column", []*cogra.Event{
			cogra.NewEvent("Stock", 10).WithSym("price:num", "7"),
		}, `time 10: symbolic attribute "price:num"`},
		{"comma in a symbolic name", []*cogra.Event{
			cogra.NewEvent("Stock", 11).WithSym("a,b", "x"),
		}, `time 11: symbolic attribute "a,b"`},
		{"comma in a numeric name", []*cogra.Event{
			cogra.NewEvent("Stock", 12).WithNum("a,b", 1),
		}, `time 12: numeric attribute "a,b"`},
		{"comma in the type", []*cogra.Event{
			cogra.NewEvent("Stock,Quote", 13),
		}, `time 13: type "Stock,Quote"`},
		{"white space around the type", []*cogra.Event{
			cogra.NewEvent("Stock ", 14),
		}, `time 14: type "Stock "`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := cogra.WriteCSV(&buf, c.events)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("WriteCSV error = %v, want one naming %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			back, err := cogra.ReadCSV(&buf)
			if err != nil {
				t.Fatalf("ReadCSV of WriteCSV's output: %v", err)
			}
			if fmt.Sprint(back) != fmt.Sprint(c.events) {
				t.Errorf("round trip\ngot:  %v\nwant: %v", back, c.events)
			}
		})
	}
}

func TestCSVErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"wrong,header\n",
		"time,type\nx,A\n",
		"time,type,p:num\n1,A,notnum\n",
		"time,type,a,b\n1,A,only-one-cell\n",
	} {
		if _, err := cogra.ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", src)
		}
	}
	// Blank lines are tolerated.
	events, err := cogra.ReadCSV(strings.NewReader("time,type\n1,A\n\n2,B\n"))
	if err != nil || len(events) != 2 {
		t.Errorf("blank-line handling: %v, %v", events, err)
	}
}

// TestQ1Q2Q3Compile compiles all three paper queries through the
// public API and checks their granularities (Table 4).
func TestQ1Q2Q3Compile(t *testing.T) {
	cases := []struct {
		src  string
		want cogra.Granularity
	}{
		{`RETURN patient, MIN(M.rate), MAX(M.rate)
		  PATTERN Measurement M+
		  SEMANTICS contiguous
		  WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
		  GROUP-BY patient
		  WITHIN 10 minutes SLIDE 30 seconds`, cogra.PatternGrained},
		{`RETURN driver, COUNT(*)
		  PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)
		  SEMANTICS skip-till-next-match
		  WHERE [driver] GROUP-BY driver
		  WITHIN 10 minutes SLIDE 30 seconds`, cogra.PatternGrained},
		{`RETURN sector, A.company, B.company, AVG(B.price)
		  PATTERN SEQ(Stock A+, Stock B+)
		  SEMANTICS skip-till-any-match
		  WHERE [A.company] AND [B.company] AND A.price > NEXT(A).price
		  GROUP-BY sector, A.company, B.company
		  WITHIN 10 minutes SLIDE 10 seconds`, cogra.MixedGrained},
	}
	for i, c := range cases {
		plan, err := cogra.Compile(cogra.MustParse(c.src))
		if err != nil {
			t.Fatalf("q%d: %v", i+1, err)
		}
		if plan.Granularity != c.want {
			t.Errorf("q%d granularity = %v, want %v", i+1, plan.Granularity, c.want)
		}
	}
}

// TestEngineResultCallbackAndAccounting exercises the push egress and
// the logical memory accounting through a session: a sink receives
// every result (Drain then has none), and Stats reports the peak bytes
// the hosted engine charged.
func TestEngineResultCallbackAndAccounting(t *testing.T) {
	q := cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`)
	var got []cogra.Result
	sess := cogra.NewSession()
	sub, err := sess.Subscribe(q, cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) { got = append(got, r) })))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushBatch([]*cogra.Event{cogra.NewEvent("A", 1), cogra.NewEvent("A", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if res := sub.Drain(); res != nil {
		t.Errorf("Drain returned %v with a sink installed", res)
	}
	if len(got) != 1 || got[0].Values[0].Count != 3 {
		t.Errorf("sink results = %v", got)
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakBytes == 0 {
		t.Error("accountant saw nothing")
	}
}

// TestPlanAliasExport sanity-checks that core types flow through the
// public aliases.
func TestPlanAliasExport(t *testing.T) {
	var p *cogra.Plan = cogra.MustCompile(cogra.MustParse(`RETURN COUNT(*) PATTERN A+ WITHIN 1 SLIDE 1`))
	var _ *core.Plan = p // same type
	if p.Granularity.String() != "type" {
		t.Errorf("granularity = %v", p.Granularity)
	}
}
