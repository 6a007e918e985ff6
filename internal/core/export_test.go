package core

// WalkCharged returns a copy of p whose kernels charge every event by
// walking its attribute maps, as Event.FootprintBytes does: with no
// attribute slots to count, Plan.eventBytes finds no map covered. It is
// the reference the slot-read charge must equal.
func WalkCharged(p *Plan) *Plan {
	w := *p
	w.attrSyms = nil
	return &w
}

// The cases of eventbytes_test.go, for runtime_ext_test.go, which
// drives them through a Runtime.
var (
	EventBytesWide   = eventBytesWide
	EventBytesStream = eventBytesStream
	DualKindStream   = dualKindStream
)

// EventBytesQueries lists eventBytesQueries as name, text pairs.
func EventBytesQueries() [][2]string {
	var qs [][2]string
	for _, q := range eventBytesQueries {
		qs = append(qs, [2]string{q.name, q.src})
	}
	return qs
}

// mainTable returns the committed entries of alias id's main table: none
// for an event-grained alias, which has no table, or before the
// aggregator owns its tables.
func (t *mixedGrained) mainTable(id int32) []tableEntry {
	if i := t.plan.tableCells[id]; i >= 0 {
		return t.committed(i)
	}
	return nil
}
