// Package gen provides seeded synthetic workload generators for the
// four streams of the experimental study (§9.1):
//
//   - a stock stream modelled on the EODData set (19 companies, 10
//     sectors, price/volume attributes) used by queries like q3;
//   - a physical-activity stream modelled on the PAMAP data set (14
//     people, 18 activities, heart rate) used by q1;
//   - a public-transportation stream (30 passengers, 100 stations,
//     waiting times) used by the NEXT-semantics and trend-grouping
//     experiments;
//   - a ridesharing stream (Accept/Call/Cancel/Finish plus in-transit
//     noise) used by q2.
//
// The real traces are not redistributable; the generators reproduce
// their schemas and the knobs the experiments sweep — event count,
// number of groups, predicate selectivity — with deterministic seeds,
// which is what the reproduction needs (the paper's curves are shapes
// over these knobs, not properties of particular ticker symbols).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
)

// StockConfig parameterises the stock stream.
type StockConfig struct {
	Seed      int64
	Events    int
	Companies int // default 19 (EODData)
	Sectors   int // default 10
	// TicksPerEvent spaces time stamps; 1 gives one event per second.
	TicksPerEvent int64
}

// Stock generates the stock stream: a price random walk per company
// plus a uniform attribute u in [0,1), the left operand of Figure 9's
// selectivity-controlled adjacent predicate.
func Stock(cfg StockConfig) []*event.Event {
	if cfg.Companies <= 0 {
		cfg.Companies = 19
	}
	if cfg.Sectors <= 0 {
		cfg.Sectors = 10
	}
	if cfg.TicksPerEvent <= 0 {
		cfg.TicksPerEvent = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	price := make([]float64, cfg.Companies)
	for i := range price {
		price[i] = 50 + rng.Float64()*100
	}
	out := make([]*event.Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		c := rng.Intn(cfg.Companies)
		price[c] += rng.NormFloat64()
		if price[c] < 1 {
			price[c] = 1
		}
		e := event.New("Stock", int64(i)*cfg.TicksPerEvent).
			WithSym("company", fmt.Sprintf("co%02d", c)).
			WithSym("sector", fmt.Sprintf("sec%d", c%cfg.Sectors)).
			WithNum("price", round2(price[c])).
			WithNum("volume", float64(100+rng.Intn(900))).
			WithNum("u", rng.Float64())
		out = append(out, e)
	}
	return out
}

// ActivityConfig parameterises the physical-activity stream.
type ActivityConfig struct {
	Seed       int64
	Events     int
	Persons    int // default 14 (PAMAP)
	Activities int // default 18
	// RunLength is the expected length of a contiguously increasing
	// heart-rate run before a drop (drives the CONT experiments).
	RunLength     int
	TicksPerEvent int64
}

// Activity generates heart-rate measurements with contiguously
// increasing runs of the configured expected length, per person.
func Activity(cfg ActivityConfig) []*event.Event {
	if cfg.Persons <= 0 {
		cfg.Persons = 14
	}
	if cfg.Activities <= 0 {
		cfg.Activities = 18
	}
	if cfg.RunLength <= 0 {
		cfg.RunLength = 5
	}
	if cfg.TicksPerEvent <= 0 {
		cfg.TicksPerEvent = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rate := make([]float64, cfg.Persons)
	for i := range rate {
		rate[i] = 60 + rng.Float64()*20
	}
	out := make([]*event.Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		p := rng.Intn(cfg.Persons)
		if rng.Intn(cfg.RunLength) == 0 {
			rate[p] -= 5 + rng.Float64()*15 // end of an increasing run
		} else {
			rate[p] += 0.5 + rng.Float64()*2
		}
		if rate[p] < 40 {
			rate[p] = 40
		}
		activity := "passive"
		if rng.Intn(4) == 0 {
			activity = fmt.Sprintf("act%d", 1+rng.Intn(cfg.Activities-1))
		}
		e := event.New("Measurement", int64(i)*cfg.TicksPerEvent).
			WithSym("patient", fmt.Sprintf("p%02d", p)).
			WithSym("activity", activity).
			WithNum("rate", round2(rate[p]))
		out = append(out, e)
	}
	return out
}

// TransitConfig parameterises the public-transportation stream.
type TransitConfig struct {
	Seed       int64
	Events     int
	Passengers int // default 30 (the default trend-group count)
	Stations   int // default 100
	// BoardFraction is the fraction of Board events (the rest are
	// Ride events), shaping the (SEQ(Board+, Ride))+ style patterns.
	BoardFraction float64
	TicksPerEvent int64
}

// Transit generates passenger trips: Board and Ride events with
// uniformly random waiting times (§9.1).
func Transit(cfg TransitConfig) []*event.Event {
	if cfg.Passengers <= 0 {
		cfg.Passengers = 30
	}
	if cfg.Stations <= 0 {
		cfg.Stations = 100
	}
	if cfg.BoardFraction <= 0 || cfg.BoardFraction >= 1 {
		cfg.BoardFraction = 0.7
	}
	if cfg.TicksPerEvent <= 0 {
		cfg.TicksPerEvent = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*event.Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		typ := "Ride"
		if rng.Float64() < cfg.BoardFraction {
			typ = "Board"
		}
		e := event.New(typ, int64(i)*cfg.TicksPerEvent).
			WithSym("passenger", fmt.Sprintf("pass%02d", rng.Intn(cfg.Passengers))).
			WithSym("station", fmt.Sprintf("st%03d", rng.Intn(cfg.Stations))).
			WithNum("wait", float64(rng.Intn(600)))
		out = append(out, e)
	}
	return out
}

// RideshareConfig parameterises the ridesharing stream (query q2).
type RideshareConfig struct {
	Seed    int64
	Trips   int
	Drivers int
	// MaxCallCancel bounds the Call/Cancel pairs per trip.
	MaxCallCancel int
	// NoiseFraction controls interleaved irrelevant events (InTransit,
	// DropOff) that skip-till-next-match must skip.
	NoiseFraction float64
}

// Rideshare generates q2-style trips: Accept, one or more (Call,
// Cancel) pairs, Finish, interleaved with irrelevant in-transit noise,
// sharing a driver attribute.
func Rideshare(cfg RideshareConfig) []*event.Event {
	if cfg.Drivers <= 0 {
		cfg.Drivers = 10
	}
	if cfg.MaxCallCancel <= 0 {
		cfg.MaxCallCancel = 3
	}
	if cfg.NoiseFraction < 0 {
		cfg.NoiseFraction = 0.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*event.Event
	tm := int64(0)
	emit := func(typ, driver string, session int) {
		tm++
		out = append(out, event.New(typ, tm).
			WithSym("driver", driver).
			WithSym("session", fmt.Sprintf("s%06d", session)))
	}
	noise := func(driver string, session int) {
		for rng.Float64() < cfg.NoiseFraction {
			typ := "InTransit"
			if rng.Intn(2) == 0 {
				typ = "DropOff"
			}
			emit(typ, driver, session)
		}
	}
	for trip := 0; trip < cfg.Trips; trip++ {
		driver := fmt.Sprintf("d%03d", rng.Intn(cfg.Drivers))
		emit("Accept", driver, trip)
		noise(driver, trip)
		pairs := 1 + rng.Intn(cfg.MaxCallCancel)
		for p := 0; p < pairs; p++ {
			emit("Call", driver, trip)
			noise(driver, trip)
			emit("Cancel", driver, trip)
			noise(driver, trip)
		}
		emit("Finish", driver, trip)
	}
	return out
}

func round2(v float64) float64 { return float64(int64(v*100)) / 100 }
