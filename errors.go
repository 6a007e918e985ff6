package cogra

import "repro/internal/core"

// Sentinel errors of the session data plane. Every error the public
// API returns for one of these conditions wraps the sentinel, so
// callers branch with errors.Is instead of parsing messages:
//
//	if err := sess.Push(e); errors.Is(err, cogra.ErrLateEvent) {
//	    metrics.late++ // source exceeded the configured slack
//	}
var (
	// ErrClosed: the session (or the queried subsystem) was closed;
	// Push, Subscribe, Unsubscribe, Drain and a second Close all wrap
	// it once the stream has ended.
	ErrClosed = core.ErrClosed

	// ErrLateEvent: an event arrived older than the stream watermark
	// minus the configured slack (zero without WithSlack). Sessions
	// with WithLatePolicy(RejectLate) return it from Push/PushBatch;
	// DropLate sessions count the event in Stats instead.
	ErrLateEvent = core.ErrLateEvent

	// ErrNotHosted: the operation names a query this session does not
	// host — already unsubscribed, an unknown id, or a plan compiled
	// against a foreign catalog.
	ErrNotHosted = core.ErrNotHosted

	// ErrFrozenRouting: a StrictRouting subscription was rejected
	// because events already flowed (the partition routing is frozen)
	// and the query's partition keys do not cover the routing
	// attributes; without StrictRouting such a query is hosted on the
	// full-stream fallback worker instead.
	ErrFrozenRouting = core.ErrFrozenRouting

	// ErrBackpressure: the slack reorder buffer hit its configured
	// maximum depth (WithMaxReorderDepth) under the Reject policy and
	// the offered event would not have released any buffered one.
	// Push/PushBatch return it without ingesting the event; the session
	// stays usable — retry once the stream's watermark has advanced.
	ErrBackpressure = core.ErrBackpressure

	// ErrBadSnapshot: Restore could not decode the checkpoint stream —
	// truncated, corrupted (checksum mismatch), written by a different
	// snapshot format version, or structurally impossible. Decoding
	// never panics and never over-allocates on corrupt input.
	ErrBadSnapshot = core.ErrBadSnapshot

	// ErrSinkPanic: a user-supplied Sink callback panicked while a
	// result was being delivered. The panic is recovered, the stream
	// and the other subscriptions keep running, and the affected
	// subscription fails with an error wrapping this sentinel (its
	// further results are buffered, readable via Results/Drain).
	ErrSinkPanic = core.ErrSinkPanic
)

// BatchError is PushBatch's error: the session ingested the batch's
// first Ingested events, and Err says why it stopped at the next one.
// It unwraps to Err, so errors.Is matches the sentinels above.
type BatchError struct {
	Ingested int
	Err      error
}

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }
