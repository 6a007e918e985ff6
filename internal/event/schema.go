package event

import (
	"fmt"
	"strings"
)

// AttrKind distinguishes numeric from symbolic attributes in a schema.
type AttrKind int

const (
	// NumAttrKind marks a float64-valued attribute.
	NumAttrKind AttrKind = iota
	// SymAttrKind marks a string-valued attribute.
	SymAttrKind
)

// Schema describes one event type: its name and attribute kinds.
// The generators (internal/gen) describe their datasets with schemas,
// and Validate checks an event against one.
type Schema struct {
	// Type is the event type name this schema describes.
	Type string
	// Attrs maps attribute name to kind.
	Attrs map[string]AttrKind
}

// NewSchema builds a schema. Attribute names prefixed with "#" are
// numeric, all others symbolic; the prefix is stripped. Example:
//
//	NewSchema("Stock", "company", "sector", "#price", "#volume")
func NewSchema(typ string, attrs ...string) *Schema {
	s := &Schema{Type: typ, Attrs: make(map[string]AttrKind, len(attrs))}
	for _, a := range attrs {
		if strings.HasPrefix(a, "#") {
			s.Attrs[a[1:]] = NumAttrKind
		} else {
			s.Attrs[a] = SymAttrKind
		}
	}
	return s
}

// Validate reports an error if e does not conform to the schema: wrong
// type name, unknown attribute, or missing attribute.
func (s *Schema) Validate(e *Event) error {
	if e.Type != s.Type {
		return fmt.Errorf("event type %q does not match schema %q", e.Type, s.Type)
	}
	for name, kind := range s.Attrs {
		switch kind {
		case NumAttrKind:
			if _, ok := e.Num[name]; !ok {
				return fmt.Errorf("event %v: missing numeric attribute %q", e, name)
			}
		case SymAttrKind:
			if _, ok := e.Sym[name]; !ok {
				return fmt.Errorf("event %v: missing symbolic attribute %q", e, name)
			}
		}
	}
	for name := range e.Num {
		if k, ok := s.Attrs[name]; !ok || k != NumAttrKind {
			return fmt.Errorf("event %v: unexpected numeric attribute %q", e, name)
		}
	}
	for name := range e.Sym {
		if k, ok := s.Attrs[name]; !ok || k != SymAttrKind {
			return fmt.Errorf("event %v: unexpected symbolic attribute %q", e, name)
		}
	}
	return nil
}
