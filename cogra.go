// Package cogra is the public API of the COGRA reproduction:
// Coarse-Grained Event Trend Aggregation under rich event matching
// semantics (Poppe, Lei, Rundensteiner, Maier — SIGMOD 2019).
//
// COGRA evaluates event trend aggregation queries — Kleene patterns
// with COUNT/MIN/MAX/SUM/AVG aggregates, predicates, grouping and
// sliding windows — online, without constructing the matched trends,
// at the coarsest aggregate granularity each event matching semantics
// permits: per pattern for skip-till-next-match and contiguous, per
// event type for skip-till-any-match, and mixed when predicates on
// adjacent events force some events to be kept.
//
// Quickstart — a Session hosts any number of queries over one live
// stream, and the query population may change while the stream runs:
//
//	q := cogra.MustParse(`
//	    RETURN COUNT(*)
//	    PATTERN (SEQ(A+, B))+
//	    SEMANTICS skip-till-any-match
//	    WITHIN 10 minutes SLIDE 10 minutes`)
//	sess := cogra.NewSession()            // cogra.WithWorkers(4) to parallelise
//	sub, err := sess.Subscribe(q)         // subscribe any time, even mid-stream
//	if err := sess.PushBatch(events); err != nil { ... }
//	sess.Close()
//	for r := range sub.Results() {
//	    fmt.Println(r)
//	}
//
// Ingest is batch-first (Push/PushBatch; WithSlack accepts bounded
// disorder), egress is pull (Subscription.Results) or push (WithSink),
// and lifecycle errors wrap typed sentinels (ErrClosed, ErrLateEvent,
// ErrNotHosted, ErrFrozenRouting) matchable with errors.Is.
// Subscription.Unsubscribe detaches one query mid-stream and flushes
// its windows; a query subscribed mid-stream reports results from the
// first window it could observe completely (see Session).
package cogra

import (
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

// Event is a typed, time-stamped message on the input stream.
type Event = event.Event

// NewEvent constructs an event of the given type and time; attach
// attributes with WithNum and WithSym.
func NewEvent(eventType string, time int64) *Event { return event.New(eventType, time) }

// Query is an event trend aggregation query (Definition 6 of the
// paper), read from its text by Parse.
type Query = query.Query

// GroupKey is one GROUP-BY item.
type GroupKey = query.GroupKey

// Semantics selects the event matching semantics.
type Semantics = query.Semantics

// The three event matching semantics (§2.2).
const (
	// SkipTillAnyMatch detects all possible trends; relevant events
	// may extend a trend or be skipped.
	SkipTillAnyMatch = query.Any
	// SkipTillNextMatch requires all relevant events to be matched
	// and skips only irrelevant ones.
	SkipTillNextMatch = query.Next
	// Contiguous forbids any unmatched event between adjacent trend
	// events.
	Contiguous = query.Cont
)

// Parse parses a query in the paper's SASE-style syntax.
func Parse(src string) (*Query, error) { return query.Parse(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Query { return query.MustParse(src) }

// Plan is a compiled query: the pattern FSA, the classified
// predicates and the selected aggregation granularity (Table 4).
type Plan = core.Plan

// Granularity identifies the selected aggregate granularity.
type Granularity = core.Granularity

// Granularities, coarse to fine.
const (
	PatternGrained = core.PatternGrained
	TypeGrained    = core.TypeGrained
	MixedGrained   = core.MixedGrained
)

// Compile runs the static query analyzer (§3).
func Compile(q *Query) (*Plan, error) { return core.NewPlan(q) }

// MustCompile is Compile that panics on error.
func MustCompile(q *Query) *Plan { return core.MustPlan(q) }

// Result is one aggregation output (window × group).
type Result = core.Result

// Catalog is the shared symbol table a set of plans is compiled
// against: plans compiled in one catalog agree on dense type and
// attribute ids, which lets a Session resolve each stream event once
// for all of them.
type Catalog = core.Catalog

// NewCatalog returns an empty catalog for multi-query compilation.
func NewCatalog() *Catalog { return core.NewCatalog() }

// CompileIn compiles a query against a shared catalog — a session's
// (Session.Catalog), for hosting the plan there with SubscribePlan.
func CompileIn(cat *Catalog, q *Query) (*Plan, error) { return core.NewPlanIn(cat, q) }
