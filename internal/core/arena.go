package core

import (
	"repro/internal/agg"
)

// Stored-event arenas: the skip-till-any-match kernel retains one
// storedEntry per event of an event-grained (Te) type (none when the
// plan has no adjacent predicate), and each entry carries two small
// slices — its adjacent-predicate left operands ([]attrVal) and its
// aggregate's auxiliary state ([]agg.Aux). Allocating those
// item-at-a-time is where BenchmarkEngineProcessMixedAdjacent burnt
// ~9K allocs/op: two GC objects per stored event, each individually
// traced and individually freed.
//
// Both slices have a plan-fixed width (len(plan.adjLeft) and
// len(plan.Specs)), so the arena is a bump allocator over slabs of
// fixed-width cells. Slabs grow geometrically from arenaMinEntries to
// arenaMaxEntries cells, so a near-empty window pays one small slab
// while a dense one amortises allocation to ~log₂(n) + n/max slabs.
//
// Reclamation is wholesale: entries are written once at store time and
// never returned individually, so the arena needs no free list — when a
// window closes its sub-aggregators' Release drops their stored slices,
// and the GC frees whole slabs instead of tracing thousands of entries.
const (
	arenaMinEntries = 8
	arenaMaxEntries = 1024
)

// storeArenas bundles the two arenas backing the stored (Te)
// entries. One pair is owned per Engine and shared by every hosted
// sub-aggregator: slabs fill across the open windows of the engine and
// become collectible once the last window whose entries they carry has
// closed (its sub-aggregator released its stored slices) — the
// epoch-bucketing falls out of windows closing in time order, with at
// most one partially-filled slab pair alive per engine.
type storeArenas struct {
	left attrValArena
	aux  auxArena
}

// attrValArena bump-allocates fixed-width []attrVal cells.
type attrValArena struct {
	slab []attrVal
	off  int
	next int // entry count of the next slab
}

// alloc returns a zeroed n-wide cell with capacity exactly n, so a
// later append can never bleed into the neighbouring cell.
func (a *attrValArena) alloc(n int) []attrVal {
	if n == 0 {
		return nil
	}
	if len(a.slab)-a.off < n {
		if a.next < arenaMinEntries {
			a.next = arenaMinEntries
		}
		a.slab = make([]attrVal, a.next*n)
		a.off = 0
		if a.next < arenaMaxEntries {
			a.next *= 2
		}
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// auxArena bump-allocates fixed-width []agg.Aux cells.
type auxArena struct {
	slab []agg.Aux
	off  int
	next int
}

func (a *auxArena) alloc(n int) []agg.Aux {
	if n == 0 {
		return nil
	}
	if len(a.slab)-a.off < n {
		if a.next < arenaMinEntries {
			a.next = arenaMinEntries
		}
		a.slab = make([]agg.Aux, a.next*n)
		a.off = 0
		if a.next < arenaMaxEntries {
			a.next *= 2
		}
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}
