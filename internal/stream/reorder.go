package stream

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/event"
)

// Reorderer is a K-slack buffer that repairs bounded disorder: events
// may arrive up to Slack time units later than the maximum time stamp
// seen so far and are re-emitted strictly in (time, ID) order. Events
// arriving later than the slack allows are dropped and counted.
//
// An event is released only once the maximum seen time stamp STRICTLY
// exceeds its own time stamp plus the slack: an arrival at exactly
// maxSeen-slack is still admissible (not late), so events at that
// time stamp must stay buffered or a late tie would be emitted after
// its (time, ID) successors. The remainder is released by Flush at
// end of stream.
//
// Events must carry distinct IDs before they are offered: ties in
// (time, ID) — in particular unassigned IDs (0) on equal time stamps
// — pop from the heap in arbitrary order. Callers that buffer ahead
// of ID assignment (the Session's slack path) stamp arrival order
// onto ID-0 events first.
//
// The buffer is unbounded by default; SetMaxDepth caps it so one
// misbehaving source (a stalled watermark with a firehose of
// in-window events) cannot balloon it. At the cap, ShedOldest
// force-drains the oldest buffered events to make room (they are
// emitted early and counted by Shed; later arrivals older than a shed
// event are dropped as late), while Reject refuses the event with an
// error wrapping core.ErrBackpressure.
//
// The paper assumes in-order streams (§2.1) and cites AFA [10] for
// native disorder handling; a slack buffer in front of the engine is
// the standard way to meet the in-order contract with real sources.
type Reorderer struct {
	slack    int64
	h        eventHeap
	maxSeen  int64
	sawAny   bool
	dropped  int64
	shed     int64
	maxDepth int
	policy   DepthPolicy
	floor    int64 // time of the last force-drained event
	hasFloor bool
	out      []*event.Event // reused emission buffer (see Offer)
}

// DepthPolicy selects what a depth-capped Reorderer does when the
// buffer is full (SetMaxDepth).
type DepthPolicy int

const (
	// ShedOldest force-drains the oldest buffered events to make room:
	// they are emitted immediately (early, but still in order relative
	// to everything emitted before and after) and counted by Shed.
	// Later arrivals older than a shed event are dropped as late —
	// shedding effectively advances the stream — and arrivals AT a shed
	// event's time stamp are admitted but may interleave out of ID
	// order with what was already shed.
	ShedOldest DepthPolicy = iota
	// Reject refuses the offered event with an error wrapping
	// core.ErrBackpressure whenever admitting it would leave the buffer
	// above the cap. An event that advances the watermark far enough to
	// release at least one buffered event is still admitted — rejecting
	// it would deadlock a healthy stream at exactly the moment it makes
	// progress. Concretely, a full buffer refuses events until stream
	// time exceeds the oldest buffered time stamp plus the slack (the
	// admission check uses the OFFERED event's time, so progress does
	// not depend on an admission having happened first): size the cap
	// for the number of events a slack window can carry, and treat
	// ErrBackpressure as throttling, not loss — the event was not
	// ingested and may be retried.
	Reject
)

// NewReorderer builds a buffer tolerating the given slack (negative
// slack is clamped to 0).
func NewReorderer(slack int64) *Reorderer {
	if slack < 0 {
		slack = 0
	}
	return &Reorderer{slack: slack}
}

// SetMaxDepth caps the buffer at n events (n <= 0: unbounded, the
// default) with the given overflow policy. Configure before the first
// Offer; lowering the cap below the current depth only takes effect as
// events drain.
func (r *Reorderer) SetMaxDepth(n int, policy DepthPolicy) {
	r.maxDepth, r.policy = n, policy
}

type eventHeap []*event.Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].Before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event.Event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// boundaryFor returns max - slack clamped against int64 underflow:
// time stamps near math.MinInt64, or a huge slack, must widen the
// window, not wrap it shut.
func (r *Reorderer) boundaryFor(max int64) int64 {
	b := max - r.slack
	if b > max {
		// slack >= 0, so the true boundary is <= max; a larger result
		// means the subtraction wrapped below math.MinInt64.
		b = math.MinInt64
	}
	return b
}

// dropBoundary returns the oldest admissible time stamp: the clamped
// maxSeen-slack, raised to the shed floor once ShedOldest has
// force-drained events (an arrival older than a shed event would be
// emitted out of order downstream).
func (r *Reorderer) dropBoundary() int64 {
	b := r.boundaryFor(r.maxSeen)
	if r.hasFloor && r.floor > b {
		b = r.floor
	}
	return b
}

// Offer inserts one possibly-disordered event and returns the events
// that became safe to emit, in order. An event older than the drop
// boundary (maxSeen - slack, raised by shedding) is dropped and
// counted by Dropped. Under a depth cap, overflow follows the
// configured policy: ShedOldest force-drains into the returned slice,
// Reject returns an error wrapping core.ErrBackpressure and does not
// ingest the event.
//
// The returned slice is a scratch buffer owned by the Reorderer,
// valid only until the next Offer or Flush call: consume (or copy)
// it before offering again.
func (r *Reorderer) Offer(e *event.Event) ([]*event.Event, error) {
	if r.sawAny && e.Time < r.dropBoundary() {
		r.dropped++
		return nil, nil
	}
	if r.maxDepth > 0 && r.policy == Reject && len(r.h) >= r.maxDepth {
		newMax := r.maxSeen
		if !r.sawAny || e.Time > newMax {
			newMax = e.Time
		}
		if !(r.h[0].Time < r.boundaryFor(newMax)) {
			return nil, fmt.Errorf("stream: reorder buffer at max depth %d: %w", r.maxDepth, core.ErrBackpressure)
		}
	}
	heap.Push(&r.h, e)
	if !r.sawAny || e.Time > r.maxSeen {
		r.maxSeen = e.Time
		r.sawAny = true
	}
	r.out = r.out[:0]
	if r.maxDepth > 0 && r.policy == ShedOldest {
		for len(r.h) > r.maxDepth {
			ev := heap.Pop(&r.h).(*event.Event)
			r.out = append(r.out, ev)
			r.floor, r.hasFloor = ev.Time, true
			r.shed++
		}
	}
	return r.drain(r.dropBoundary()), nil
}

// drain pops every buffered event with time strictly below the
// watermark — events AT the watermark can still acquire admissible
// ties (Offer admits time >= the drop boundary), so they are held.
// Appends into the shared scratch buffer and returns it.
func (r *Reorderer) drain(watermark int64) []*event.Event {
	for r.h.Len() > 0 && r.h[0].Time < watermark {
		r.out = append(r.out, heap.Pop(&r.h).(*event.Event))
	}
	return r.out
}

// Flush emits everything still buffered, in order (end of stream).
// Like Offer's, the returned slice is the Reorderer's scratch buffer,
// valid until the next Offer or Flush.
func (r *Reorderer) Flush() []*event.Event {
	r.out = r.out[:0]
	for r.h.Len() > 0 {
		r.out = append(r.out, heap.Pop(&r.h).(*event.Event))
	}
	return r.out
}

// Dropped reports how many events exceeded the slack (or arrived
// behind the shed floor).
func (r *Reorderer) Dropped() int64 { return r.dropped }

// DropBoundary reports the oldest currently-admissible time stamp:
// events strictly older are dropped. It is maxSeen-slack (clamped),
// raised to the shed floor after ShedOldest force-drains — callers
// reporting a drop should cite this value, since the slack alone does
// not explain floor-caused drops. Meaningless before the first event.
func (r *Reorderer) DropBoundary() int64 { return r.dropBoundary() }

// Shed reports how many buffered events were force-drained by the
// ShedOldest depth policy.
func (r *Reorderer) Shed() int64 { return r.shed }

// Buffered reports the current buffer size.
func (r *Reorderer) Buffered() int { return r.h.Len() }
