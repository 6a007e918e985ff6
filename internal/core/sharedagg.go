// Shared sub-aggregation across plans (the Hamlet direction: "To
// Share, or not to Share Online Event Trend Aggregation Over Bursty
// Event Streams"). Two plans are sharing-equivalent when everything
// that determines their per-window aggregation state — pattern,
// matching semantics, predicates, grouping and window clause — is
// identical; only the RETURN clause may differ. Such plans can be
// served by ONE engine running the union of their aggregation specs:
// the Table 8 propagation maintains every spec's auxiliary state
// independently inside one trend count, so a member's RETURN values
// are an exact column projection of the union's values, applied as a
// cheap per-query correction at emission. Unlike Hamlet's shared
// sub-patterns this costs a fingerprint-equal group nothing per
// snapshot, so it is decided at compile time: the equivalence key, the
// union query and the per-member projections live here, and
// internal/runtime owns the engines.
package core

import (
	"slices"

	"repro/internal/agg"
	"repro/internal/query"
)

// Fingerprint returns the plan's sharing-equivalence key, computed at
// compile time: the query's text (Text) without its RETURN line.
// Everything it holds feeds aggregation state (pattern, semantics and
// predicates pick the trends, GROUP-BY shapes Result.Group, WITHIN and
// SLIDE shape window ids); the RETURN line only selects which columns
// of the union a member reports. Plans with equal fingerprints detect
// identical trends over identical sub-streams and windows — the
// precondition for registering them against one shared aggregation
// node.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// Text returns the query's canonical text (query.Query.String),
// rendered once at compile time; Parse of it compiles to this plan's
// query again.
func (p *Plan) Text() string { return p.text }

// ProjectSpecs maps a member's RETURN columns onto a host's: proj[i] is
// the host column holding the member's i-th value. ok is false when
// the host lacks one of them; proj is nil when the two lists are the
// same, so the member reports the host's results as they are.
func ProjectSpecs(host, member agg.Specs) (proj []int, ok bool) {
	if slices.Equal(host, member) {
		return nil, true
	}
	proj = make([]int, len(member))
	for i, s := range member {
		if proj[i] = slices.Index(host, s); proj[i] < 0 {
			return nil, false
		}
	}
	return proj, true
}

// UnionQuery builds the query a sharing group's next host runs: the
// current host's query with the RETURN clause grown by the specs of
// add it lacks, in first-seen order. ReturnKeys are dropped — they
// only echo group values at the presentation layer and each member
// re-applies its own.
func UnionQuery(rep *query.Query, add agg.Specs) *query.Query {
	q := *rep
	q.Returns = slices.Clone(rep.Returns)
	for _, s := range add {
		if !slices.Contains(q.Returns, s) {
			q.Returns = append(q.Returns, s)
		}
	}
	q.ReturnKeys = nil
	return &q
}

// ProjectResult applies a member's projection to a host result: the
// member's RETURN values are the proj-selected columns, in its own
// clause order (nil: the result as is, no copy). Wid/bounds/group
// carry over (the group tuple is shared read-only across members —
// consumers never mutate results).
func ProjectResult(r Result, proj []int) Result {
	if proj == nil {
		return r
	}
	vals := make([]agg.Value, len(proj))
	for i, j := range proj {
		vals[i] = r.Values[j]
	}
	r.Values = vals
	return r
}
