package main

// The end-to-end run: 1 untimed warm-up lap, 32 set-ups, and as many
// timed laps as fit the budget. (The open-loop pass at the workload's
// frozen rate belongs to the traced run: its latencies do not repeat
// well enough on a shared box to be gated.)
//
// How a timing is made to repeat. Work is fixed, not time: a lap is
// always the same lap. The box this was developed on is a 2-vCPU
// microVM whose neighbours (and whose own second thread, when the
// collector runs on it) slow the feeding thread by a third for
// anything from milliseconds to minutes; the same 0.1 s lap takes 85
// to 130 ms from one repetition to the next. Interference only ever
// slows work down, and most of it is short. So laps are short and
// many, every lap is timed in lapSections sections, and a lap's
// undisturbed time is estimated section by section: for each section
// the lower decile over all laps, summed. A section that was disturbed
// in one lap was calm in another; a whole lap rarely is. Sections are
// several collector cycles long, so each carries its share of GC work
// in every lap. Set-up reports the lower quartile of its repetitions;
// counts barely move and report the median lap. GOMAXPROCS is pinned, GOGC
// fixed, a GC runs between laps, and the input lives outside the Go
// heap.
//
// What this cannot see past is a stretch of interference that outlasts
// the run; the bounds on the time-valued metrics are as wide as those
// stretches are deep (README, "How far a timing can be trusted").

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"
)

const (
	setUpReps    = 32
	minLaps      = 8
	maxLaps      = 100
	lapShare     = 0.85 // of -seconds, for the timed closed-loop laps
	openShare    = 0.25 // of -seconds, for the traced run's open-loop pass
	openSegments = 12
	lapSections  = 16
	calm         = 0.25 // the quantile of set-up and open-loop samples that is reported
	calmSection  = 0.10 // the quantile of a lap section's samples that is summed
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the p-quantile of sorted (nearest rank).
func quantile[T int64 | float64 | time.Duration](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(p*float64(len(sorted))))]
}

func sortedCopy[T int64 | float64 | time.Duration](v []T) []T {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapProbe measures the live heap relative to a baseline taken with
// the input loaded and no fleet built, so it reads the program's
// memory, not the harness's. It probes several times in a lap, always
// where the windows are full, and reports the mean.
type heapProbe struct {
	base, sum uint64
	n         int
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (p *heapProbe) baseline() { p.base = liveHeap() }
func (p *heapProbe) probe() {
	if live := liveHeap(); live > p.base {
		p.sum += live - p.base
	}
	p.n++
}
func (p *heapProbe) mean() float64 { return float64(p.sum) / float64(max(p.n, 1)) }

// sectionTimes are the durations of a lap's sections. The first
// section starts with the lap and holds the fleet's set-up; one more
// after the last holds its close.
type sectionTimes [lapSections + 1]time.Duration

func (s *sectionTimes) total() time.Duration {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum
}

// lapTiming is one timed lap.
type lapTiming struct {
	wall, cpu      sectionTimes
	mallocs, bytes uint64
}

// undisturbed sums, section by section, the calmSection quantile over
// all laps.
func undisturbed(laps []lapTiming, pick func(*lapTiming) *sectionTimes) time.Duration {
	var sum time.Duration
	samples := make([]time.Duration, len(laps))
	for s := 0; s <= lapSections; s++ {
		for i := range laps {
			samples[i] = pick(&laps[i])[s]
		}
		slices.Sort(samples)
		sum += quantile(samples, calmSection)
	}
	return sum
}

// tally accumulates the operation counts of a run.
type tally struct {
	attempted, failed int64
	info              lapInfo // of the last complete lap
}

// lapChecked runs one whole lap and checks its results.
func (t *tally) lapChecked(in *input, o lapOpts) error {
	o.obs = newObserver(in)
	info, err := runLap(in, o)
	if err != nil {
		return err
	}
	t.attempted += int64(info.events) + in.expected()
	t.failed += int64(info.failed + o.obs.mismatches(in, 1))
	if info.events != in.nEvents {
		t.failed += int64(in.nEvents - info.events)
	}
	t.info = info
	return nil
}

func timedLap(in *input, t *tally) (lapTiming, error) {
	var lap lapTiming
	perSection := (in.batches() + lapSections - 1) / lapSections
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, section := 0, 0
	c0, t0 := cpuTime(), time.Now()
	mark := func() {
		c1, t1 := cpuTime(), time.Now()
		lap.wall[section], lap.cpu[section] = t1.Sub(t0), c1-c0
		c0, t0, section = c1, t1, section+1
	}
	err := t.lapChecked(in, lapOpts{onCall: func(int) {
		if calls++; calls%perSection == 0 && section < lapSections {
			mark()
		}
	}})
	section = lapSections // whatever is left of the calls, and the close
	mark()
	runtime.ReadMemStats(&m1)
	lap.mallocs, lap.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return lap, err
}

// openLoop feeds batches at the workload's frozen rate for about
// seconds and returns the observer with the per-result latencies and
// the pacer with the generator's own lateness.
func openLoop(in *input, seconds float64, t *tally) (*observer, *pacer, error) {
	wl := in.wl
	batches := max(3, int(wl.rate*seconds/float64(wl.batch)))
	obs := newObserver(in)
	obs.record = true
	obs.lat = make([]time.Duration, 0, in.expected()*int64(batches/in.batches()+1))
	pace := &pacer{period: time.Duration(float64(wl.batch) / wl.rate * float64(time.Second)),
		lag: make([]time.Duration, 0, batches)}
	runtime.GC()
	pace.start = time.Now()
	for left := batches; left > 0; {
		limit := min(left, in.batches())
		info, err := runLap(in, lapOpts{obs: obs, pace: pace, limit: limit})
		if err != nil {
			return nil, nil, err
		}
		t.attempted += int64(info.events)
		t.failed += int64(info.failed)
		left -= limit
	}
	if len(obs.lat) == 0 {
		return nil, nil, fmt.Errorf("open loop: no result in %d batches", pace.n)
	}
	return obs, pace, nil
}

// calmP50 splits the samples into openSegments equal segments in order
// of observation and returns the lower quartile of the segment medians.
func calmP50(lat []time.Duration) time.Duration {
	var medians []time.Duration
	for s := 0; s < openSegments; s++ {
		if seg := lat[len(lat)*s/openSegments : len(lat)*(s+1)/openSegments]; len(seg) > 0 {
			medians = append(medians, quantile(sortedCopy(seg), 0.5))
		}
	}
	return quantile(sortedCopy(medians), calm)
}

// endToEnd is the untraced run; it reports every end-to-end metric.
func endToEnd(wl *workload, seed uint64, seconds float64, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	in, err := generate(wl, seed, wl.lapEvents)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "input      %d events, %.1f B/event, built in %.2f s (digest %016x)\n",
		in.nEvents, float64(in.bytes)/float64(in.nEvents), in.buildS, in.digest())

	var t tally
	var heap heapProbe
	heap.baseline()
	t0 := time.Now()
	if err := t.lapChecked(in, lapOpts{probe: heap.probe}); err != nil {
		return res, err
	}
	warm := t.info
	fmt.Fprintf(w, "warm-up    1 lap in %.2f s with %d live-heap probes, %d results expected per lap\n",
		time.Since(t0).Seconds(), heap.n, t.attempted-int64(in.nEvents))

	setUps := make([]time.Duration, setUpReps)
	for i := range setUps {
		runtime.GC()
		if setUps[i], err = setUp(in, warm.snapshot); err != nil {
			return res, err
		}
	}
	slices.Sort(setUps)
	fmt.Fprintf(w, "set-ups    %d; fastest %.6f s, median %.6f s, slowest %.6f s\n",
		setUpReps, setUps[0].Seconds(), quantile(setUps, 0.5).Seconds(), setUps[setUpReps-1].Seconds())

	var laps []lapTiming
	t0 = time.Now()
	for len(laps) < minLaps || (len(laps) < maxLaps && time.Since(t0).Seconds() < lapShare*seconds) {
		lap, err := timedLap(in, &t)
		if err != nil {
			return res, err
		}
		laps = append(laps, lap)
	}
	whole := make([]time.Duration, len(laps))
	for i := range laps {
		whole[i] = laps[i].wall.total()
	}
	slices.Sort(whole)
	wall := undisturbed(laps, func(l *lapTiming) *sectionTimes { return &l.wall })
	cpu := undisturbed(laps, func(l *lapTiming) *sectionTimes { return &l.cpu })
	fmt.Fprintf(w, "laps       %d in %.1f s; whole laps: fastest %.4f s, median %.4f s, slowest %.4f s; undisturbed %.4f s\n",
		len(laps), time.Since(t0).Seconds(), whole[0].Seconds(), quantile(whole, 0.5).Seconds(), whole[len(whole)-1].Seconds(), wall.Seconds())
	medianLap := func(f func(lapTiming) uint64) float64 {
		v := make([]float64, len(laps))
		for i, l := range laps {
			v[i] = float64(f(l))
		}
		return quantile(sortedCopy(v), 0.5)
	}

	events := float64(in.nEvents)
	res.Metrics["setup_s"] = metric{quantile(setUps, calm).Seconds(), "s"}
	res.Metrics["events_per_s"] = metric{events / wall.Seconds(), "events/s"}
	res.Metrics["cpu_us_per_event"] = metric{micros(cpu) / events, "us"}
	res.Metrics["allocs_per_event"] = metric{medianLap(func(l lapTiming) uint64 { return l.mallocs }) / events, "allocs/event"}
	res.Metrics["alloc_bytes_per_event"] = metric{medianLap(func(l lapTiming) uint64 { return l.bytes }) / events, "B/event"}
	res.Metrics["peak_state_bytes"] = metric{float64(warm.peakState), "B"}
	res.Metrics["live_heap_bytes"] = metric{heap.mean(), "B"}

	if fails := vacuity(in, warm); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(w, "GUARD FAILED:", f)
		}
		t.failed += int64(len(fails))
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// vacuity returns the ways in which a workload stopped exercising the
// layer it exists for.
func vacuity(in *input, warm lapInfo) []string {
	var fails []string
	for si, ref := range in.ref {
		for qi, q := range ref {
			if q.n == 0 {
				fails = append(fails, fmt.Sprintf("stream %d query %d emits no results", si, qi))
			}
		}
	}
	switch in.wl.name {
	case "durable_disordered":
		if warm.reorderPeak == 0 {
			fails = append(fails, "the reorder buffer never held an event")
		}
		if warm.lateDropped != 0 {
			fails = append(fails, fmt.Sprintf("%d events arrived beyond the slack", warm.lateDropped))
		}
		if warm.snapshot == nil || warm.snapshots < 2 {
			fails = append(fails, "no checkpoint or no restore in the lap")
		}
		if warm.internBytes == 0 {
			fails = append(fails, "the binding intern tables are empty")
		}
	case "served_tenants":
		if warm.sharedGroups == 0 {
			fails = append(fails, "no sharing group is live at the end of the lap")
		}
	case "burst_kernel":
		if sh := in.shape(); sh.runMean < 32 {
			fails = append(fails, fmt.Sprintf("mean run length %.1f below 32", sh.runMean))
		}
	}
	return fails
}
