package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/metrics"
)

// TestFig9SelectivityDerivation: Figure 9's y attribute makes u <= y
// hold on each swept selectivity's share of adjacent pairs, on a copy
// of the stream.
func TestFig9SelectivityDerivation(t *testing.T) {
	stock := gen.Stock(gen.StockConfig{Seed: 9, Events: 20_001})
	for _, sel := range fig9Selectivities {
		events := withSelectivity(stock, sel)
		pass := 0
		for i := 1; i < len(events); i++ {
			if events[i-1].Num["u"] <= events[i].Num["y"] {
				pass++
			}
		}
		if got := float64(pass) / float64(len(events)-1); math.Abs(got-sel) > 0.02 {
			t.Errorf("selectivity %g: u <= NEXT.y passes %.4f of pairs", sel, got)
		}
	}
	if _, ok := stock[0].Num["y"]; ok {
		t.Error("withSelectivity wrote y into the stream it copies")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		XLabel:  "events",
		Columns: []string{"COGRA", "SASE", "GRETA"},
		Rows: []Row{
			{
				X: "1000",
				Runs: map[string]metrics.Run{
					"COGRA": {Name: "COGRA", Events: 1000, Latency: 2 * time.Millisecond, PeakBytes: 1024},
					"SASE":  {Name: "SASE", DNF: true},
					"GRETA": {Name: "GRETA", Unsupported: true},
				},
			},
		},
	}
	out := tbl.Format()
	for _, frag := range []string{"Demo", "latency", "peak memory", "throughput",
		"2.00ms", "1.00KiB", "DNF", "n/s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format() missing %q in:\n%s", frag, out)
		}
	}
	// A column absent from the row map also renders n/s.
	tbl.Rows[0].Runs = map[string]metrics.Run{}
	if !strings.Contains(tbl.Format(), "n/s") {
		t.Error("missing run should render n/s")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond: "500µs",
		3 * time.Millisecond:   "3.00ms",
		2 * time.Second:        "2.00s",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table9", "ablation"} {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Errorf("IDs() returned %d of %d", len(ids), len(reg))
	}
	if ids[0] != "fig5" || ids[len(ids)-1] != "ablation" {
		t.Errorf("presentation order wrong: %v", ids)
	}
}

func TestScaled(t *testing.T) {
	c := Config{Scale: 0.001}
	if got := c.scaled(100); got != 1 {
		t.Errorf("scaled floor = %d, want 1", got)
	}
	c.Scale = 2
	if got := c.scaled(100); got != 200 {
		t.Errorf("scaled = %d, want 200", got)
	}
}
