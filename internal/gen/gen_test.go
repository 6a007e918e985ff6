package gen

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/event"
)

// attrs names the attributes one generated event type carries.
type attrs struct{ num, sym []string }

// The generators' schemas: per event type, exactly these attributes.
var (
	stockSchema    = map[string]attrs{"Stock": {num: []string{"price", "u", "volume"}, sym: []string{"company", "sector"}}}
	activitySchema = map[string]attrs{"Measurement": {num: []string{"rate"}, sym: []string{"activity", "patient"}}}
	transitSchema  = map[string]attrs{
		"Board": {num: []string{"wait"}, sym: []string{"passenger", "station"}},
		"Ride":  {num: []string{"wait"}, sym: []string{"passenger", "station"}},
	}
	trip            = attrs{sym: []string{"driver", "session"}}
	rideshareSchema = map[string]attrs{
		"Accept": trip, "Call": trip, "Cancel": trip, "Finish": trip, "InTransit": trip, "DropOff": trip,
	}
)

// checkSchema fails unless e is of a type in schema and carries
// exactly that type's attributes.
func checkSchema(t *testing.T, schema map[string]attrs, e *event.Event) {
	t.Helper()
	want, ok := schema[e.Type]
	if !ok {
		t.Fatalf("unexpected event type %q", e.Type)
	}
	num, sym := slices.Sorted(maps.Keys(e.Num)), slices.Sorted(maps.Keys(e.Sym))
	if !slices.Equal(num, want.num) || !slices.Equal(sym, want.sym) {
		t.Fatalf("event %v carries numeric %v and symbolic %v, want %v and %v", e, num, sym, want.num, want.sym)
	}
}

func TestStockDeterministicAndValid(t *testing.T) {
	cfg := StockConfig{Seed: 1, Events: 500}
	a, b := Stock(cfg), Stock(cfg)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	companies := map[string]bool{}
	sectors := map[string]bool{}
	for i, e := range a {
		checkSchema(t, stockSchema, e)
		if e.String() != b[i].String() {
			t.Fatal("generator not deterministic")
		}
		if i > 0 && a[i-1].Time > e.Time {
			t.Fatal("events out of order")
		}
		companies[e.Sym["company"]] = true
		sectors[e.Sym["sector"]] = true
		if e.Num["price"] <= 0 {
			t.Fatalf("non-positive price at %d", i)
		}
	}
	if len(companies) != 19 || len(sectors) != 10 {
		t.Errorf("companies=%d sectors=%d, want 19/10", len(companies), len(sectors))
	}
}

func TestStockDifferentSeedsDiffer(t *testing.T) {
	a := Stock(StockConfig{Seed: 1, Events: 50})
	b := Stock(StockConfig{Seed: 2, Events: 50})
	same := true
	for i := range a {
		if a[i].Num["price"] != b[i].Num["price"] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestActivityRuns(t *testing.T) {
	events := Activity(ActivityConfig{Seed: 3, Events: 2000, Persons: 2, RunLength: 6})
	increases, total := 0, 0
	last := map[string]float64{}
	for _, e := range events {
		checkSchema(t, activitySchema, e)
		p := e.Sym["patient"]
		if prev, ok := last[p]; ok {
			total++
			if e.Num["rate"] > prev {
				increases++
			}
		}
		last[p] = e.Num["rate"]
	}
	frac := float64(increases) / float64(total)
	// RunLength 6 means ~5/6 of steps increase.
	if frac < 0.7 || frac > 0.95 {
		t.Errorf("increase fraction = %.2f, want ~0.83", frac)
	}
}

func TestTransitGroups(t *testing.T) {
	events := Transit(TransitConfig{Seed: 4, Events: 3000, Passengers: 5})
	passengers := map[string]bool{}
	boards := 0
	for _, e := range events {
		passengers[e.Sym["passenger"]] = true
		if e.Type == "Board" {
			boards++
		}
	}
	if len(passengers) != 5 {
		t.Errorf("passengers = %d, want 5", len(passengers))
	}
	frac := float64(boards) / float64(len(events))
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("board fraction = %.2f, want ~0.7", frac)
	}
}

func TestRideshareWellFormedTrips(t *testing.T) {
	events := Rideshare(RideshareConfig{Seed: 5, Trips: 50, Drivers: 4})
	// Per session: exactly one Accept, one Finish, equal Calls and
	// Cancels (>= 1), Accept first, Finish last among relevant types.
	type tally struct{ accept, call, cancel, finish int }
	perSession := map[string]*tally{}
	for i, e := range events {
		if i > 0 && events[i-1].Time >= e.Time {
			t.Fatal("times not strictly increasing")
		}
		s := e.Sym["session"]
		tl, ok := perSession[s]
		if !ok {
			tl = &tally{}
			perSession[s] = tl
		}
		switch e.Type {
		case "Accept":
			tl.accept++
		case "Call":
			tl.call++
		case "Cancel":
			tl.cancel++
		case "Finish":
			tl.finish++
		}
	}
	if len(perSession) != 50 {
		t.Fatalf("sessions = %d", len(perSession))
	}
	for s, tl := range perSession {
		if tl.accept != 1 || tl.finish != 1 || tl.call != tl.cancel || tl.call < 1 {
			t.Errorf("session %s malformed: %+v", s, tl)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	if len(Stock(StockConfig{Events: 1})) != 1 {
		t.Error("stock defaults")
	}
	if len(Activity(ActivityConfig{Events: 1})) != 1 {
		t.Error("activity defaults")
	}
	if len(Transit(TransitConfig{Events: 1})) != 1 {
		t.Error("transit defaults")
	}
	if len(Rideshare(RideshareConfig{Trips: 1})) < 4 {
		t.Error("rideshare defaults")
	}
}

func TestSchemasCoverGeneratedTypes(t *testing.T) {
	for _, e := range Rideshare(RideshareConfig{Seed: 9, Trips: 20, NoiseFraction: 0.5}) {
		checkSchema(t, rideshareSchema, e)
	}
	for _, e := range Transit(TransitConfig{Seed: 9, Events: 100}) {
		checkSchema(t, transitSchema, e)
	}
}
