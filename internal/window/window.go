// Package window implements the WITHIN/SLIDE sliding-window clause
// (§2.3, §7). The unbounded stream is partitioned into overlapping
// finite intervals; window wid covers the half-open time interval
// [wid*Slide, wid*Slide+Within). An event may fall into several
// windows, expire in some and remain valid in others, so every
// aggregate is maintained per window identifier (the paper adopts the
// wid technique of Li et al. [21]).
package window

import (
	"fmt"
	"math"
	"slices"
)

// Spec is the WITHIN w SLIDE s clause in stream time units.
type Spec struct {
	// Within is the window length w (> 0).
	Within int64
	// Slide is the slide interval s (> 0, usually <= Within).
	Slide int64
}

// Validate reports an error for non-positive lengths.
func (s Spec) Validate() error {
	if s.Within <= 0 {
		return fmt.Errorf("window: WITHIN must be positive, got %d", s.Within)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: SLIDE must be positive, got %d", s.Slide)
	}
	return nil
}

// String renders the clause.
func (s Spec) String() string {
	return fmt.Sprintf("WITHIN %d SLIDE %d", s.Within, s.Slide)
}

// Bounds returns the half-open interval [start, end) of window wid.
func (s Spec) Bounds(wid int64) (start, end int64) {
	return wid * s.Slide, wid*s.Slide + s.Within
}

// WindowsOf returns the inclusive range [first, last] of window
// identifiers containing time t: all wid >= 0 with
// wid*Slide <= t < wid*Slide+Within. first > last means no window
// (cannot happen for t >= 0).
func (s Spec) WindowsOf(t int64) (first, last int64) {
	last = floorDiv(t, s.Slide)
	first = floorDiv(t-s.Within, s.Slide) + 1
	if first < 0 {
		first = 0
	}
	return first, last
}

// MaxConcurrent returns the maximum number of windows any time point
// belongs to: ceil(Within/Slide).
func (s Spec) MaxConcurrent() int64 {
	return (s.Within + s.Slide - 1) / s.Slide
}

// ClosedBefore returns the largest wid whose window has fully closed
// at watermark time t (exclusive: every event with time < t has been
// seen), i.e. the largest wid with wid*Slide+Within <= t. Returns -1
// if no window has closed.
func (s Spec) ClosedBefore(t int64) int64 {
	return floorDiv(t-s.Within, s.Slide)
}

// FirstFullWindow returns the smallest wid whose window is fully
// covered by an observer that joins the stream at watermark t: the
// stream may already have emitted events up to and including time t,
// so a window is fully covered only if its start lies strictly after
// t. This defines the partial-first-window semantics of mid-stream
// subscription — a late joiner reports results starting from this
// window; earlier (partially observed) windows are suppressed.
func (s Spec) FirstFullWindow(t int64) int64 {
	wid := floorDiv(t, s.Slide) + 1
	if wid < 0 {
		wid = 0
	}
	return wid
}

// EpochOf returns the index of the Within-length time frame containing
// t. Epochs are the granularity of state-reclamation schemes tied to
// window expiry (the engine's binding-intern rotation): a window spans
// at most Within, so every window containing a time in epoch e has
// closed once the watermark reaches epoch e+2.
func (s Spec) EpochOf(t int64) int64 {
	return floorDiv(t, s.Within)
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Manager tracks per-window state of type T keyed by window id,
// creating states lazily and emitting them in wid order as the
// watermark passes their close time. It is the scaffold every
// aggregator (COGRA and baselines) hangs its per-window instances on.
type Manager[T any] struct {
	spec       Spec
	newState   func(wid int64) T
	active     map[int64]T
	emitted    int64 // all wids < emitted have been closed and emitted
	maxWid     int64
	everSawWid bool
	// ceil (when hasCeil) caps window creation: wids >= ceil are never
	// created, so the manager drains — once the watermark closes every
	// window below the ceiling it owns nothing. A retired engine (its
	// sharing group handed wids >= ceil to a newer host) keeps processing
	// events for its remaining windows and is torn down when Drained
	// reports true.
	ceil    int64
	hasCeil bool
	// wids and closed are the scratch AdvanceTo and Flush work from, so a
	// window close allocates nothing here.
	wids   []int64
	closed []Closed[T]
}

// NewManager builds a manager; newState creates the state for a window
// the first time an event lands in it.
func NewManager[T any](spec Spec, newState func(wid int64) T) *Manager[T] {
	return &Manager[T]{spec: spec, newState: newState, active: map[int64]T{}}
}

// Spec returns the window specification.
func (m *Manager[T]) Spec() Spec { return m.spec }

// StatesFor returns the states of every window containing time t,
// creating missing ones. The returned slice is ordered by wid.
func (m *Manager[T]) StatesFor(t int64) []T {
	return m.AppendStatesFor(nil, t)
}

// AppendStatesFor is StatesFor appending into dst, so per-event
// callers can reuse one scratch slice instead of allocating per event.
func (m *Manager[T]) AppendStatesFor(dst []T, t int64) []T {
	first, last := m.spec.WindowsOf(t)
	if first < m.emitted {
		first = m.emitted // late windows already emitted are dropped
	}
	if m.hasCeil && last >= m.ceil {
		last = m.ceil - 1 // windows at/above the ceiling belong elsewhere
	}
	for wid := first; wid <= last; wid++ {
		st, ok := m.active[wid]
		if !ok {
			st = m.newState(wid)
			m.active[wid] = st
		}
		if !m.everSawWid || wid > m.maxWid {
			m.maxWid = wid
			m.everSawWid = true
		}
		dst = append(dst, st)
	}
	return dst
}

// SkipBefore suppresses every window with wid < floor: they are
// neither created nor emitted, as if already closed. A late-joining
// query aligns its manager to the stream with
// SkipBefore(Spec().FirstFullWindow(t)), so windows it could only have
// observed partially never report. The floor only moves forward;
// windows already emitted stay emitted.
func (m *Manager[T]) SkipBefore(floor int64) {
	if floor <= m.emitted {
		return
	}
	m.emitted = floor
	for wid := range m.active {
		if wid < floor {
			delete(m.active, wid)
		}
	}
}

// SkipFrom suppresses every window with wid >= ceil: they are never
// created, so the manager owns exactly the windows below the ceiling
// and drains as the watermark closes them. The mirror image of
// SkipBefore — a sharing-group handover at window boundary W* retires
// the old host with SkipFrom(W*) while the new one aligns with
// SkipBefore(W*), so every window is owned by exactly one of them. The
// ceiling only moves downward; states at/above it are dropped.
func (m *Manager[T]) SkipFrom(ceil int64) {
	if m.hasCeil && m.ceil <= ceil {
		return
	}
	m.ceil, m.hasCeil = ceil, true
	for wid := range m.active {
		if wid >= ceil {
			delete(m.active, wid)
		}
	}
}

// Drained reports whether a ceiling is set and every window below it
// has closed: the manager owns nothing anymore and never will.
func (m *Manager[T]) Drained() bool {
	return m.hasCeil && m.emitted >= m.ceil && len(m.active) == 0
}

// Closed emits (wid, state) pairs for every window that closed at
// watermark t, in wid order, and forgets them. Windows that never
// received an event are skipped.
type Closed[T any] struct {
	Wid   int64
	State T
}

// AdvanceTo closes windows given a watermark: all events with time < t
// have been observed. The returned slice is the manager's scratch, valid
// until the next AdvanceTo or Flush.
func (m *Manager[T]) AdvanceTo(t int64) []Closed[T] {
	limit := m.spec.ClosedBefore(t)
	if limit < m.emitted {
		return nil
	}
	m.emitted = limit + 1
	return m.close(limit)
}

// Flush closes every remaining window (end of stream), in wid order.
// The returned slice is the manager's scratch, like AdvanceTo's.
func (m *Manager[T]) Flush() []Closed[T] {
	if m.everSawWid && m.maxWid >= m.emitted {
		m.emitted = m.maxWid + 1
	}
	return m.close(math.MaxInt64)
}

// close forgets the active windows up to limit and returns them in wid
// order.
func (m *Manager[T]) close(limit int64) []Closed[T] {
	m.wids = m.wids[:0]
	for wid := range m.active {
		if wid <= limit {
			m.wids = append(m.wids, wid)
		}
	}
	slices.Sort(m.wids)
	clear(m.closed) // drop the states of the previous close
	m.closed = m.closed[:0]
	for _, wid := range m.wids {
		m.closed = append(m.closed, Closed[T]{Wid: wid, State: m.active[wid]})
		delete(m.active, wid)
	}
	return m.closed
}
