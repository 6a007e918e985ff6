// Package event defines the primitive event model shared by every
// component of the COGRA reproduction: typed, time-stamped messages
// carrying numeric and symbolic attributes.
//
// Time is a linearly ordered set of points (the paper uses non-negative
// rationals; we use int64 ticks, typically seconds or milliseconds).
// Events arrive on a stream in non-decreasing time-stamp order; the
// stream scheduler in internal/stream enforces that discipline.
package event

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Time is an application time stamp assigned by the event source.
type Time = int64

// Event is a message indicating that something of interest happened in
// the real world. An event belongs to exactly one event type (its
// schema) and carries numeric attributes (heart rate, price, ...) and
// symbolic attributes (patient id, company, sector, ...).
//
// Events are immutable once published to a stream. The zero value is a
// valid (empty, time-0) event of the empty type.
type Event struct {
	// Time is the application time stamp, assigned by the source.
	Time Time
	// Type is the event type name, e.g. "Stock" or "Measurement".
	Type string
	// ID is a unique sequence number within a stream, assigned by the
	// source in arrival order. Ties in Time are broken by ID.
	ID int64
	// Num holds the numeric attributes.
	Num map[string]float64
	// Sym holds the symbolic (string-valued) attributes.
	Sym map[string]string
}

// New returns an event of the given type and time with no attributes.
func New(typ string, t Time) *Event {
	return &Event{Type: typ, Time: t}
}

// WithNum returns e with the numeric attribute name set to v.
// It mutates and returns e to allow fluent construction.
func (e *Event) WithNum(name string, v float64) *Event {
	if e.Num == nil {
		e.Num = make(map[string]float64, 4)
	}
	e.Num[name] = v
	return e
}

// WithSym returns e with the symbolic attribute name set to v.
func (e *Event) WithSym(name, v string) *Event {
	if e.Sym == nil {
		e.Sym = make(map[string]string, 4)
	}
	e.Sym[name] = v
	return e
}

// NumAttr returns the numeric attribute and whether it is present.
func (e *Event) NumAttr(name string) (float64, bool) {
	v, ok := e.Num[name]
	return v, ok
}

// SymAttr returns the symbolic attribute. If the attribute is absent
// but a numeric attribute of that name exists, its formatted value is
// returned, so equivalence predicates work over either kind.
func (e *Event) SymAttr(name string) (string, bool) {
	if v, ok := e.Sym[name]; ok {
		return v, true
	}
	if v, ok := e.Num[name]; ok {
		return formatNum(v), true
	}
	return "", false
}

// Attr returns the attribute value as an untyped comparison operand:
// numeric attributes as float64, symbolic as string.
func (e *Event) Attr(name string) (any, bool) {
	if v, ok := e.Num[name]; ok {
		return v, true
	}
	if v, ok := e.Sym[name]; ok {
		return v, true
	}
	return nil, false
}

// Before reports whether e precedes other in stream order: primarily
// by time stamp, with stream sequence ID as the tie-breaker.
func (e *Event) Before(other *Event) bool {
	if e.Time != other.Time {
		return e.Time < other.Time
	}
	return e.ID < other.ID
}

// String renders the event compactly, e.g. "a1" style for single-letter
// types (matching the paper's figures) or "Type@t{attrs}" otherwise.
func (e *Event) String() string {
	if len(e.Type) == 1 && len(e.Num) == 0 && len(e.Sym) == 0 {
		return fmt.Sprintf("%s%d", strings.ToLower(e.Type), e.Time)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", e.Type, e.Time)
	if len(e.Num)+len(e.Sym) > 0 {
		b.WriteByte('{')
		keys := make([]string, 0, len(e.Num)+len(e.Sym))
		for k := range e.Num {
			keys = append(keys, k)
		}
		for k := range e.Sym {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			if v, ok := e.Num[k]; ok {
				fmt.Fprintf(&b, "%s=%s", k, formatNum(v))
			} else {
				fmt.Fprintf(&b, "%s=%s", k, e.Sym[k])
			}
		}
		b.WriteByte('}')
	}
	return b.String()
}

func formatNum(v float64) string { return FormatNum(v) }

// FormatNum renders a numeric attribute value the way SymAttr's
// numeric fallback does: integral values without a fraction, others in
// shortest %g form. Exposed so the symbol-interning layer in
// internal/core resolves numeric attributes into symbolic slots with
// byte-identical values. It is AppendNum materialised as a string, so
// there is exactly one canonical formatter.
func FormatNum(v float64) string {
	return string(AppendNum(nil, v))
}

// AppendNum appends the canonical rendering of v to buf without
// intermediate allocation; used by zero-alloc partition-key
// construction. Partition routing, binding slots and resolved views
// all rely on these bytes being identical wherever a numeric value is
// read symbolically.
func AppendNum(buf []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// Clone returns a deep copy of e.
func (e *Event) Clone() *Event {
	c := &Event{Time: e.Time, Type: e.Type, ID: e.ID}
	if e.Num != nil {
		c.Num = make(map[string]float64, len(e.Num))
		for k, v := range e.Num {
			c.Num[k] = v
		}
	}
	if e.Sym != nil {
		c.Sym = make(map[string]string, len(e.Sym))
		for k, v := range e.Sym {
			c.Sym[k] = v
		}
	}
	return c
}

// FootprintBytes is the logical memory cost of storing this event,
// used by the metrics package for hardware-independent peak-memory
// accounting (paper §9.1). It charges the struct header plus each
// attribute entry. The baselines call it; COGRA's kernels charge the
// same bytes with core's Plan.eventBytes, which reads them off the
// event's resolved attribute slots and walks only a map that carries
// an attribute the plan does not read.
func (e *Event) FootprintBytes() int64 {
	n := int64(40) // header: time, id, type pointer, two map headers
	n += int64(len(e.Type))
	for k := range e.Num {
		n += int64(len(k)) + 8
	}
	for k, v := range e.Sym {
		n += int64(len(k)) + int64(len(v))
	}
	return n
}

// Sort orders events in stream order (time, then ID) in place.
func Sort(events []*Event) {
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].Before(events[j])
	})
}
