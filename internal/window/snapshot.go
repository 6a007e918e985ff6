package window

import (
	"slices"

	"repro/internal/snap"
)

// Checkpoint accessors. The manager's bookkeeping (active wids,
// emission cursor, max wid) is private on purpose — these hooks expose
// exactly what a snapshot needs, keeping the state-machine invariants
// (emitted only moves forward, active never holds emitted wids) inside
// the package.

// CodeCursor lists the watermark bookkeeping in wire order: the
// emission cursor (all wids < emitted are closed), the largest wid ever
// seen, whether any window was ever created, and the SkipFrom ceiling.
func (m *Manager[T]) CodeCursor(c *snap.Coder) {
	c.I64(&m.emitted)
	c.I64(&m.maxWid)
	c.Bool(&m.everSawWid)
	c.Bool(&m.hasCeil)
	c.I64(&m.ceil)
}

// ActiveWids returns the live window ids in ascending order.
func (m *Manager[T]) ActiveWids() []int64 {
	wids := make([]int64, 0, len(m.active))
	for wid := range m.active {
		wids = append(wids, wid)
	}
	slices.Sort(wids)
	return wids
}

// State returns the live state of one window id.
func (m *Manager[T]) State(wid int64) (T, bool) {
	st, ok := m.active[wid]
	return st, ok
}

// RestoreState re-installs one live window state verbatim. It refuses
// (false) a wid the decoded cursor rules out: already emitted, at or
// above the ceiling, or already live.
func (m *Manager[T]) RestoreState(wid int64, st T) bool {
	if _, live := m.active[wid]; live || wid < m.emitted || (m.hasCeil && wid >= m.ceil) {
		return false
	}
	m.active[wid] = st
	return true
}
