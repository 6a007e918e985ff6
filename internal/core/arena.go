package core

// Stored-event arenas: the skip-till-any-match kernel retains one
// storedEntry per event of an event-grained (Te) type (none when the
// plan has no adjacent predicate), and each entry carries two small
// slices — its adjacent-predicate left operands ([]attrVal) and its
// aggregate's auxiliary state ([]agg.Aux). Allocating those
// item-at-a-time is two GC objects per stored event, each individually
// traced and individually freed.
//
// Both slices have a plan-fixed width (len(plan.adjLeft) and
// len(plan.Specs)), so an arena is a bump allocator over slabs of
// fixed-width cells. Slabs grow geometrically from arenaMinEntries cells
// through arenaDoublings doublings (8 to 1,024), so a near-empty window
// pays one small slab while a dense one amortises allocation to
// ~log₂(n) + n/1024 slabs.
//
// Reclamation is wholesale and the slabs are recycled: entries are
// written once at store time and never returned individually, and when
// the window closes the owning sub-aggregator's Release rewinds its
// arenas to their first slab. The aggregator is pooled with its slabs
// (Engine.openSubAggregator), so the next (window, partition) it serves
// bump-allocates through memory it already owns — a warm engine stores
// events without allocating at all.
//
// What is recycled is what the last window generation used, not the most
// a sub-stream ever needed: reset gives the slabs it did not reach back
// to the GC, and Shed does the same for the plain slices an aggregator
// keeps, so one dense partition does not size the pool for good.
const (
	arenaMinEntries = 8
	arenaDoublings  = 7
)

// arena bump-allocates cells of one fixed width from slabs it keeps.
type arena[T any] struct {
	slabs [][]T
	cur   int // slab being filled
	off   int // fill offset within it
}

// alloc returns an n-wide cell with capacity exactly n, so a later
// append can never bleed into the neighbouring cell. A recycled cell is
// zeroed by reset; the callers overwrite it in full regardless.
func (a *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for ; a.cur < len(a.slabs); a.cur, a.off = a.cur+1, 0 {
		if s := a.slabs[a.cur]; len(s)-a.off >= n {
			a.off += n
			return s[a.off-n : a.off : a.off]
		}
	}
	entries := arenaMinEntries << min(len(a.slabs), arenaDoublings)
	a.slabs = append(a.slabs, make([]T, entries*n))
	a.off = n
	return a.slabs[a.cur][:n:n]
}

// reset rewinds to the first slab, zeroing the used cells so that they
// pin nothing (left operands hold attribute strings) while pooled, and
// drops the slabs this generation did not reach.
func (a *arena[T]) reset() {
	if len(a.slabs) == 0 {
		return
	}
	clear(a.slabs[a.cur][:a.off])
	for _, full := range a.slabs[:a.cur] {
		clear(full)
	}
	clear(a.slabs[a.cur+1:])
	a.slabs = a.slabs[:a.cur+1]
	a.cur, a.off = 0, 0
}

// Shed truncates s for the next window generation, keeping its storage
// — unless the generation that ends used less than a quarter of it:
// then it is sized for a spike and goes back to the GC. Storage the size
// of an arena's first slab always stays. The result buffers a drain
// recycles (internal/runtime, internal/stream) follow the same rule.
func Shed[T any](s []T) []T {
	if cap(s) > arenaMinEntries && len(s) < cap(s)/4 {
		return nil
	}
	return s[:0]
}
