// Package metrics provides the measurement substrate for the
// experimental study (§9.1): wall-clock latency, throughput, and a
// hardware-independent logical peak-memory accountant.
//
// The paper reports peak memory as the storage each approach holds:
// aggregates and sub-graphs for COGRA, the GRETA graph, prefix
// counters for A-Seq, events in stacks plus pointers plus trends for
// SASE, and trends for Flink. Logical byte accounting reproduces
// those curves deterministically, independent of the Go runtime's
// allocator.
package metrics

import (
	"fmt"
	"time"
)

// Accountant tracks the current and peak logical memory of one
// execution. Components call Add with positive deltas when they store
// state and negative deltas when they release it. The zero value is
// ready to use. Accountant is not safe for concurrent use; parallel
// partitions each use their own and the results are combined with
// Max/Sum.
type Accountant struct {
	cur  int64
	peak int64
}

// Add applies a delta of logical bytes.
func (a *Accountant) Add(delta int64) {
	a.cur += delta
	if a.cur > a.peak {
		a.peak = a.cur
	}
}

// Current returns the live logical bytes.
func (a *Accountant) Current() int64 { return a.cur }

// Peak returns the maximum logical bytes ever live.
func (a *Accountant) Peak() int64 { return a.peak }

// Timer measures wall-clock latency and derives throughput.
type Timer struct {
	start time.Time
	total time.Duration
}

// Start begins (or resumes) timing.
func (t *Timer) Start() { t.start = time.Now() }

// Stop accumulates the elapsed interval.
func (t *Timer) Stop() { t.total += time.Since(t.start) }

// Elapsed returns the accumulated duration.
func (t *Timer) Elapsed() time.Duration { return t.total }

// Run is the outcome of one measured execution.
type Run struct {
	// Name identifies the approach, e.g. "COGRA" or "SASE".
	Name string
	// Events is the number of events processed.
	Events int64
	// Latency is the total processing wall-clock time. The paper's
	// latency metric is the delay between the last contributing event
	// and result output; with an in-memory source that equals the
	// processing time of the window.
	Latency time.Duration
	// PeakBytes is the logical peak memory.
	PeakBytes int64
	// DNF marks a run that exceeded its budget, mirroring the paper's
	// "fails to terminate" entries.
	DNF bool
	// Unsupported marks a query outside the approach's expressive
	// power (Table 9); such approaches are absent from the paper's
	// charts.
	Unsupported bool
	// Err records an execution error, if any.
	Err error
}

// Throughput returns events per second.
func (r Run) Throughput() float64 {
	if r.Latency <= 0 {
		return 0
	}
	return float64(r.Events) / r.Latency.Seconds()
}

// String renders one result row.
func (r Run) String() string {
	if r.DNF {
		return fmt.Sprintf("%-8s events=%-10d DNF (budget exceeded)", r.Name, r.Events)
	}
	if r.Err != nil {
		return fmt.Sprintf("%-8s events=%-10d error: %v", r.Name, r.Events, r.Err)
	}
	return fmt.Sprintf("%-8s events=%-10d latency=%-14s mem=%-12s throughput=%.0f ev/s",
		r.Name, r.Events, r.Latency, FormatBytes(r.PeakBytes), r.Throughput())
}

// FormatBytes renders a byte count with binary unit prefixes.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.2fTiB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Budget bounds a run so exponential baselines terminate the way the
// paper reports them: as DNF. It counts abstract work units (trend
// extensions, constructed trends, ...) and trips after Limit.
type Budget struct {
	// Limit is the maximum number of work units; 0 means unlimited.
	Limit int64
	used  int64
}

// NewBudget returns a budget with the given limit.
func NewBudget(limit int64) *Budget { return &Budget{Limit: limit} }

// Spend consumes n units and reports whether the budget still holds.
func (b *Budget) Spend(n int64) bool {
	b.used += n
	return b.Limit == 0 || b.used <= b.Limit
}

// Used returns the consumed units.
func (b *Budget) Used() int64 { return b.used }
