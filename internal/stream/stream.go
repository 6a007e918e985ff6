// Package stream provides the stream-processing substrate of §8
// ("Parallel Processing"): ordered event sources, k-way merging of
// per-source ordered feeds, and a partition-parallel executor that
// runs one COGRA engine per sub-stream (simultaneous events reach it
// as Runtime.dispatchChunk's equal-time groups), since
// equivalence predicates and the GROUP-BY clause partition the stream
// into sub-streams that are processed independently.
package stream

import (
	"container/heap"

	"repro/internal/event"
)

// Iterator yields events in non-decreasing (time, ID) order. Next
// returns ok=false when the source is exhausted.
type Iterator interface {
	Next() (*event.Event, bool)
}

// SliceIterator replays a pre-sorted slice.
type SliceIterator struct {
	events []*event.Event
	pos    int
}

// FromSlice wraps events (already in stream order) as an Iterator.
func FromSlice(events []*event.Event) *SliceIterator {
	return &SliceIterator{events: events}
}

// Next implements Iterator.
func (s *SliceIterator) Next() (*event.Event, bool) {
	if s.pos >= len(s.events) {
		return nil, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// mergeEntry is one head element of the k-way merge.
type mergeEntry struct {
	e   *event.Event
	src int
}

type mergeHeap []mergeEntry

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].e.Time != h[j].e.Time {
		return h[i].e.Time < h[j].e.Time
	}
	if h[i].e.ID != h[j].e.ID {
		return h[i].e.ID < h[j].e.ID
	}
	return h[i].src < h[j].src
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Merger merges several per-source ordered feeds into one globally
// time-ordered stream (event producers such as sensors each emit in
// order; the consumer needs a single ordered stream, §2.1).
type Merger struct {
	srcs []Iterator
	h    mergeHeap
}

// Merge builds a k-way merger over the sources.
func Merge(srcs ...Iterator) *Merger {
	m := &Merger{srcs: srcs}
	for i, src := range srcs {
		if e, ok := src.Next(); ok {
			m.h = append(m.h, mergeEntry{e: e, src: i})
		}
	}
	heap.Init(&m.h)
	return m
}

// Next implements Iterator.
func (m *Merger) Next() (*event.Event, bool) {
	if m.h.Len() == 0 {
		return nil, false
	}
	top := m.h[0]
	if e, ok := m.srcs[top.src].Next(); ok {
		m.h[0] = mergeEntry{e: e, src: top.src}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.e, true
}
