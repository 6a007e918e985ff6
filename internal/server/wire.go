// Package server is the multi-tenant network service over
// cogra.Session behind cmd/cograd: tenants are consistent-hashed
// across a pool of shard goroutines, each shard owns the Sessions of
// its tenants (the Session surface is feeding-goroutine-only; the
// shard goroutine IS that goroutine), and the surface above is
// HTTP+JSON — batch ingest, dynamic subscribe/unsubscribe, streaming
// results, Prometheus metrics; the route table heads http.go — plus a
// framed-TCP path for bulk ingest (codec.go, tcp.go). Both ingest
// routes decode through one Decoder per source. Each tenant's results
// are byte-identical to an embedded run of its stream.
//
// Every typed session sentinel crosses the wire as one stable code
// (the table below), and DecodeWireError turns an error body back into
// an error that errors.Is matches against the same sentinel; server
// quotas (Config.MaxBatch, IngestRate, MaxQueriesPerTenant) reject with
// the backpressure code.
//
// Durability, with Config.CheckpointDir: Drain refuses new work,
// completes what is queued and checkpoints every open tenant session
// (snap.WriteFileAtomic, undrained results included); New restores
// every <hex tenant>.snap it finds, ignoring the temp files a crash
// mid-write leaves; a restored session keeps its checkpoint's
// configuration and its subscriptions keep their ids; CloseTenant
// deletes the tenant's checkpoint, so a closed stream stays closed. With
// Config.CheckpointEvery the shard goroutine also checkpoints a tenant
// before acknowledging a request that took its accepted-event count
// across a multiple of the cadence, so a kill loses only what was
// acknowledged after the last checkpoint. A client that re-sends the
// stream from that position gets the results of a run that never
// stopped, except that results it drained after the checkpoint come
// back.
package server

import (
	"errors"
	"fmt"
	"net/http"

	cogra "repro"
)

// Wire error codes: every typed sentinel of the session data plane
// maps to exactly one stable machine-readable code, in the one table
// below. Clients branch on the code the way embedded callers branch
// with errors.Is — and DecodeWireError round-trips a wire error back
// into an error matching the original sentinel, so a Go client of
// cograd reuses the same errors.Is logic it would use in process.
const (
	// CodeBackpressure: the tenant's session refused the event under
	// its depth-capped reorder buffer (ErrBackpressure), or a server
	// quota (ingest rate, query cap) was exceeded. HTTP 429.
	CodeBackpressure = "backpressure"
	// CodeLateEvent: the event is older than the stream's drop
	// boundary and the session rejects late events (ErrLateEvent).
	// HTTP 400.
	CodeLateEvent = "late_event"
	// CodeFrozenRouting: a strict-routing subscription arrived after
	// events froze the partition routing (ErrFrozenRouting). HTTP 409.
	CodeFrozenRouting = "frozen_routing"
	// CodeNotHosted: the query id names nothing this tenant hosts
	// (ErrNotHosted). HTTP 404.
	CodeNotHosted = "not_hosted"
	// CodeClosed: the tenant's session was closed (ErrClosed). HTTP 409.
	CodeClosed = "closed"
	// CodeSinkPanic: a result sink panicked; the subscription failed
	// (ErrSinkPanic). HTTP 500.
	CodeSinkPanic = "sink_panic"
	// CodeBadSnapshot: a checkpoint could not be decoded
	// (ErrBadSnapshot). HTTP 500.
	CodeBadSnapshot = "bad_snapshot"
	// CodeBadRequest: the request itself is malformed (bad JSON, bad
	// query text, bad id) — no session sentinel is involved. HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeDraining: the server is shutting down and admits no new
	// work. HTTP 503.
	CodeDraining = "draining"
	// CodeInternal: anything else. HTTP 500.
	CodeInternal = "internal"
)

// wireTable is the single sentinel↔code↔status mapping. Order matters
// only for Is-overlapping sentinels (there are none today).
var wireTable = []struct {
	sentinel error
	code     string
	status   int
}{
	{cogra.ErrBackpressure, CodeBackpressure, http.StatusTooManyRequests},
	{cogra.ErrLateEvent, CodeLateEvent, http.StatusBadRequest},
	{cogra.ErrFrozenRouting, CodeFrozenRouting, http.StatusConflict},
	{cogra.ErrNotHosted, CodeNotHosted, http.StatusNotFound},
	{cogra.ErrClosed, CodeClosed, http.StatusConflict},
	{cogra.ErrSinkPanic, CodeSinkPanic, http.StatusInternalServerError},
	{cogra.ErrBadSnapshot, CodeBadSnapshot, http.StatusInternalServerError},
}

// statusByCode maps the non-sentinel codes (and, redundantly, the
// sentinel ones) to HTTP statuses, for encoders that start from a code
// rather than an error.
var statusByCode = map[string]int{
	CodeBadRequest: http.StatusBadRequest,
	CodeDraining:   http.StatusServiceUnavailable,
	CodeInternal:   http.StatusInternalServerError,
}

func init() {
	for _, e := range wireTable {
		statusByCode[e.code] = e.status
	}
}

// WireError is the typed error body every endpoint returns: a stable
// machine-readable code plus the human-readable message.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"error"`
	// Accepted reports, on a partial batch-ingest failure, how many
	// leading events of the batch were ingested before the offender
	// (-1: unknown).
	Accepted int `json:"accepted,omitempty"`
}

// Error implements error, so a WireError can travel inside client code
// unchanged.
func (w *WireError) Error() string { return fmt.Sprintf("%s (%s)", w.Message, w.Code) }

// EncodeError maps any error to its wire form using the sentinel
// table; errors carrying no sentinel encode as CodeInternal.
func EncodeError(err error) *WireError {
	for _, e := range wireTable {
		if errors.Is(err, e.sentinel) {
			return &WireError{Code: e.code, Message: err.Error()}
		}
	}
	return &WireError{Code: CodeInternal, Message: err.Error()}
}

// HTTPStatus returns the status an error body with this code is served
// under; unknown codes are 500.
func HTTPStatus(code string) int {
	if s, ok := statusByCode[code]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// DecodeWireError rebuilds a Go error from a wire error such that
// errors.Is matches the sentinel the server-side error wrapped:
// Decode(Encode(err)) is sentinel-preserving for every code in the
// table. Codes without a sentinel (bad_request, draining, internal)
// decode to the bare WireError.
func DecodeWireError(w *WireError) error {
	for _, e := range wireTable {
		if w.Code == e.code {
			return fmt.Errorf("%s: %w", w.Message, e.sentinel)
		}
	}
	return w
}
