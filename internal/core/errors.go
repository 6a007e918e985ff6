package core

import (
	"errors"

	"repro/internal/snap"
)

// Sentinel errors of the data plane. Every layer — engine, runtime,
// stream router, public Session — wraps these with fmt.Errorf("...: %w")
// so callers match conditions with errors.Is instead of parsing
// messages; the public package re-exports them (cogra.ErrClosed, ...).
var (
	// ErrClosed marks any operation against a closed engine, runtime,
	// executor or session: the stream has ended and the state has been
	// flushed.
	ErrClosed = errors.New("closed")

	// ErrLateEvent marks an event (or watermark) older than what the
	// stream has already emitted: out of order beyond what the
	// configured slack — zero, by default — can repair.
	ErrLateEvent = errors.New("late event")

	// ErrNotHosted marks an operation on a query the receiver does not
	// host: already unsubscribed, an unknown id, or a plan compiled
	// against a different catalog.
	ErrNotHosted = errors.New("query not hosted")

	// ErrFrozenRouting marks a strict-routing subscription rejected
	// because the partition routing is frozen (events have flowed) and
	// the plan's partition keys do not cover the routing attributes, so
	// hosting it would require the full-stream fallback worker.
	ErrFrozenRouting = errors.New("routing frozen")

	// ErrBackpressure marks an event refused because the slack reorder
	// buffer is at its configured maximum depth (WithMaxReorderDepth
	// under the Reject policy) and admitting the event would not release
	// any buffered one: the source must stop or advance its watermark.
	ErrBackpressure = errors.New("reorder buffer full")

	// ErrBadSnapshot marks a checkpoint stream Restore could not decode:
	// truncated, corrupted (checksum mismatch), written by a different
	// format version, or structurally impossible. The snapshot codec
	// guarantees decoding never panics and never allocates more than the
	// input can justify.
	ErrBadSnapshot = snap.ErrBadSnapshot

	// ErrSinkPanic marks a subscription failed because its user-supplied
	// Sink panicked. The panic is recovered — the stream and the other
	// subscriptions keep running — and the failed subscription reports
	// it via Err; further results for that subscription are buffered
	// instead of delivered.
	ErrSinkPanic = errors.New("sink panicked")
)
