// Package sessionflags is the one place the session-option command
// line is defined: cograql and cograd both serve a cogra.Session, so
// they share the flags that shape one (-workers, -slack, -late-reject,
// -max-reorder-depth, -reorder-reject), their help
// strings, their cross-flag validation and their translation into
// []cogra.SessionOption. A binary registers the set on its FlagSet,
// parses, validates, and asks for the options:
//
//	sf := sessionflags.Register(flag.CommandLine)
//	flag.Parse()
//	opts, err := sf.Options()
//
// Keeping this in one package means a new session option lands in both
// binaries with one edit, and the two cannot drift apart in defaults
// or validation (they did once: the duplication this package removed).
package sessionflags

import (
	"flag"
	"fmt"

	cogra "repro"
)

// Flags holds the parsed session-shaping flag values. The zero value
// is NOT the flag default set: the -slack flag defaults to -1 (require
// in-order input) while the zero value means slack 0 — construct via
// Register for command lines, or fill the fields directly in tests.
type Flags struct {
	// Workers is the partition-parallel worker count (<= 1: inline).
	Workers int
	// Slack accepts events up to this many time units out of order;
	// negative means "no reorder buffer, require in-order input".
	Slack int64
	// RejectLate fails on events beyond Slack instead of dropping them.
	RejectLate bool
	// MaxDepth caps the reorder buffer (0: unbounded).
	MaxDepth int
	// RejectOverrun fails with backpressure at the depth cap instead of
	// shedding the buffer's oldest events.
	RejectOverrun bool
}

// Register defines the shared session flags on fs and returns the
// struct they parse into. Call fs.Parse before reading the fields.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 1, "partition-parallel workers per session")
	fs.Int64Var(&f.Slack, "slack", -1, "accept events up to this many time units out of order (-1: require in-order input)")
	fs.BoolVar(&f.RejectLate, "late-reject", false, "fail on events beyond -slack instead of dropping them")
	fs.IntVar(&f.MaxDepth, "max-reorder-depth", 0, "cap the -slack reorder buffer at this many events (0: unbounded)")
	fs.BoolVar(&f.RejectOverrun, "reorder-reject", false, "fail with backpressure when the capped reorder buffer is full, instead of shedding its oldest events")
	return f
}

// Validate applies the cross-flag rules shared by every session-serving
// binary: silently-ignored combinations are refused, not dropped.
func (f *Flags) Validate() error {
	if f.MaxDepth < 0 {
		return fmt.Errorf("-max-reorder-depth must be non-negative (0: unbounded), got %d", f.MaxDepth)
	}
	if f.Slack < 0 && (f.MaxDepth > 0 || f.RejectOverrun || f.RejectLate) {
		return fmt.Errorf("-late-reject/-max-reorder-depth/-reorder-reject require -slack (there is no reorder buffer without it)")
	}
	if f.Slack >= 0 && f.RejectOverrun && f.MaxDepth <= 0 {
		return fmt.Errorf("-reorder-reject requires -max-reorder-depth (an unbounded buffer never exerts backpressure)")
	}
	return nil
}

// Options validates and translates the flags into session options.
func (f *Flags) Options() ([]cogra.SessionOption, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var opts []cogra.SessionOption
	if f.Workers > 1 {
		opts = append(opts, cogra.WithWorkers(f.Workers))
	}
	if f.Slack >= 0 {
		opts = append(opts, cogra.WithSlack(f.Slack))
		if f.RejectLate {
			opts = append(opts, cogra.WithLatePolicy(cogra.RejectLate))
		}
		if f.MaxDepth > 0 {
			opts = append(opts, cogra.WithMaxReorderDepth(f.MaxDepth))
			if f.RejectOverrun {
				opts = append(opts, cogra.WithDepthPolicy(cogra.Reject))
			}
		}
	}
	return opts, nil
}
