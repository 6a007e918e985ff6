package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/stream"
)

// testLap is a lap size per workload small enough for the tests to
// finish in seconds and large enough for the shape statistics to
// settle (and, for the durable workload, to reach its midpoint
// restore).
var testLap = map[string]int{
	"steady_fleet":       1 << 16,
	"burst_kernel":       1 << 17,
	"durable_disordered": 1 << 16,
	"served_tenants":     64000,
}

func mustGenerate(t *testing.T, wl *workload, seed uint64) *input {
	t.Helper()
	in, err := generate(wl, seed, testLap[wl.name])
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// distance is the total variation distance between two histograms of
// shares.
func distance(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d / 2
}

func TestSameSeedSameInput(t *testing.T) {
	for _, wl := range workloads {
		a, b := mustGenerate(t, wl, 7), mustGenerate(t, wl, 7)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated two different inputs or references", wl.name)
		}
	}
}

func TestDifferentSeedSameShape(t *testing.T) {
	for _, wl := range workloads {
		a, b := mustGenerate(t, wl, 7), mustGenerate(t, wl, 8)
		if a.digest() == b.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same input", wl.name)
		}
		sa, sb := a.shape(), b.shape()
		if sa.events != sb.events || sa.events != testLap[wl.name] {
			t.Errorf("%s: %d and %d events, want %d", wl.name, sa.events, sb.events, testLap[wl.name])
		}
		if d := distance(sa.typeMix, sb.typeMix); d > 0.02 {
			t.Errorf("%s: type mixes %.3f apart", wl.name, d)
		}
		if d := distance(sa.jitter[:], sb.jitter[:]); d > 0.02 {
			t.Errorf("%s: jitter histograms %.3f apart", wl.name, d)
		}
		if d := distance(sa.runMix[:], sb.runMix[:]); d > 0.02 {
			t.Errorf("%s: run-length histograms %.3f apart", wl.name, d)
		}
		if math.Abs(sa.runMean-sb.runMean) > 0.02*sa.runMean {
			t.Errorf("%s: mean run lengths %.2f and %.2f", wl.name, sa.runMean, sb.runMean)
		}
		if (sa.inverts > 0) != (wl.slack > 0) {
			t.Errorf("%s: %.1f%% of arrivals go back in time, slack %d", wl.name, 100*sa.inverts, wl.slack)
		}
	}
	if sh := mustGenerate(t, findWorkload("burst_kernel"), 7).shape(); sh.runMean < 32 {
		t.Errorf("burst_kernel: mean run length %.1f", sh.runMean)
	}
}

// TestArrivalsWithinSlack feeds the jittered arrival order through the
// program's own reorder buffer: nothing may be late, and what comes
// out must be the time order the reference was computed on.
func TestArrivalsWithinSlack(t *testing.T) {
	wl := findWorkload("durable_disordered")
	s := wl.build(7, testLap[wl.name])[0]
	ro := stream.NewReorderer(wl.slack)
	next := int64(1)
	check := func(ids []int64) {
		for _, id := range ids {
			if id != next {
				t.Fatalf("event %d released where %d was due", id, next)
			}
			next++
		}
	}
	for lo := 0; lo < len(s.recs); lo += 4096 {
		for _, e := range s.arrivals(lo, min(lo+4096, len(s.recs))) {
			out, err := ro.Offer(e)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(out))
			for i, e := range out {
				ids[i] = e.ID
			}
			check(ids)
		}
	}
	for _, e := range ro.Flush() {
		check([]int64{e.ID})
	}
	if ro.Dropped() != 0 || next != int64(len(s.recs))+1 {
		t.Errorf("%d events dropped as late, %d of %d released", ro.Dropped(), next-1, len(s.recs))
	}
}

// TestLapsMatchReference runs one lap of every workload and holds the
// vacuity guards to it.
func TestLapsMatchReference(t *testing.T) {
	for _, wl := range workloads {
		in := mustGenerate(t, wl, 7)
		var tl tally
		if err := tl.lapChecked(in, lapOpts{}); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if tl.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, tl.failed, tl.attempted)
		}
		for _, f := range vacuity(in, tl.info) {
			t.Errorf("%s: %s", wl.name, f)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// names, units, directions and bounds this package measures.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, doc.Workloads[i], wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, %d defined", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: listed %+v, defined %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound listed %v, defined %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEndMetrics, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}
