package main

// The four workloads. Their names, and the names of the metrics in
// metrics.go, are what every later performance claim in this repo
// cites; changing a definition here changes what those claims meant.

import (
	"fmt"

	cogra "repro"
)

// kind selects the lap a workload runs.
type kind int

const (
	// embedded: one inline Session, PushBatch, results at a sink.
	embedded kind = iota
	// durable: a slack-buffered, evicting, 2-worker Session fed event
	// at a time, checkpointed periodically and restored once per lap.
	durable
	// served: an in-process cograd server on loopback, 8 tenants.
	served
)

type workload struct {
	name string
	why  string
	kind kind
	// lapEvents is the fixed work of one lap (0.1 to 0.8 s on the 2-core
	// reference box), batch the events per ingest call and per frame.
	lapEvents int
	batch     int
	// rate is the open-loop arrival rate in events/s: about 30% of the
	// closed-loop capacity measured when the benchmark landed, rounded
	// to two digits and frozen. Changing it redefines
	// emit_latency_p50_us.
	rate float64
	// predecoded workloads push ready events, the others wire bytes.
	predecoded bool
	queries    []string
	build      func(seed uint64, n int) []*source
	// The session configuration.
	slack   int64 // > 0: WithSlack
	evict   bool  // WithInternEviction
	workers int   // > 1: WithWorkers
	shared  bool  // WithSharedAggregation
	// probeEvery is the number of ingest calls between two live-heap
	// probes of the warm-up lap; each probe falls where the windows are
	// as full as they get.
	probeEvery int
	// ladderEvents is the stream prefix the traced run's layer ladder
	// passes over: long enough to close windows, short enough that a
	// dozen passes fit the run.
	ladderEvents int
}

// options is the workload's session configuration; inline leaves the
// worker pool out (the ladder prices it on a rung of its own).
func (wl *workload) options(inline bool) []cogra.SessionOption {
	var opts []cogra.SessionOption
	if wl.slack > 0 {
		opts = append(opts, cogra.WithSlack(wl.slack))
	}
	if wl.evict {
		opts = append(opts, cogra.WithInternEviction())
	}
	if wl.workers > 1 && !inline {
		opts = append(opts, cogra.WithWorkers(wl.workers))
	}
	if wl.shared {
		opts = append(opts, cogra.WithSharedAggregation())
	}
	return opts
}

const (
	snapshotEvery = 16384 // durable: events between checkpoints
	durableSlack  = 2 * maxJitterTicks
	servedShards  = 2
	pipelineDepth = 8
)

// fleetQueries is ROADMAP's headline fleet: query i aggregates the
// SEQ(S_i+, S_{i+1}) transition per key.
func fleetQueries(where string, within, slide int) []string {
	out := make([]string, fleetTypes)
	for i := range out {
		out[i] = fmt.Sprintf(`RETURN key, COUNT(*), SUM(A.v)
			PATTERN SEQ(S%d A+, S%d B)
			SEMANTICS skip-till-any-match
			WHERE %s GROUP-BY key
			WITHIN %d SLIDE %d`, i, (i+1)%fleetTypes, where, within, slide)
	}
	return out
}

// burstQueries covers the three aggregate granularities without
// grouping, so each query keeps one partition per window and the
// per-event kernels do the work. Windows are one to four blocks long;
// a close is rare, one per few thousand events.
var burstQueries = []string{
	// type-grained: skip-till-any-match, no adjacent predicate
	`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S0 A+, S1 B) SEMANTICS skip-till-any-match WITHIN 64 SLIDE 64`,
	`RETURN COUNT(*), MAX(A.v) PATTERN SEQ(S2 A+, S3 B) SEMANTICS skip-till-any-match WITHIN 128 SLIDE 128`,
	`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S4 A+, S5 B) SEMANTICS skip-till-any-match WITHIN 192 SLIDE 192`,
	`RETURN COUNT(*), MIN(A.v) PATTERN SEQ(S6 A+, S7 B) SEMANTICS skip-till-any-match WITHIN 256 SLIDE 256`,
	// mixed-grained: an adjacent-event predicate forces A events to be
	// kept; the local predicate keeps one in twenty of them
	`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S1 A+, S2 B) SEMANTICS skip-till-any-match WHERE A.v < 50 AND A.v < NEXT(A).v WITHIN 128 SLIDE 128`,
	`RETURN COUNT(*) PATTERN SEQ(S5 A+, S6 B) SEMANTICS skip-till-any-match WHERE A.v < 50 AND A.v < NEXT(A).v WITHIN 192 SLIDE 192`,
	// pattern-grained: next-match and contiguous
	`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S3 A+, S4 B) SEMANTICS skip-till-next-match WITHIN 64 SLIDE 64`,
	`RETURN COUNT(*), SUM(A.v) PATTERN SEQ(S7 A+, S0 B) SEMANTICS contiguous WITHIN 256 SLIDE 256`,
}

// tenantQueries is each tenant's portfolio. The first two differ only
// in RETURN, so they are fingerprint-equal and form a sharing group.
// The windows are long next to a 500-event batch (125 ticks), so the
// engine's share of a served event stays small.
var tenantQueries = []string{
	`RETURN k, COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 512 SLIDE 512`,
	`RETURN k, COUNT(*), SUM(A.x) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 512 SLIDE 512`,
	`RETURN k, COUNT(*), MAX(A.x) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 256 SLIDE 256`,
	`RETURN k, COUNT(*) PATTERN SEQ(B+, C) WHERE [k] GROUP-BY k WITHIN 384 SLIDE 384`,
}

var workloads = []*workload{
	{
		name:         "steady_fleet",
		why:          "8 grouped queries, tumbling windows, wire bytes in: window open/close per (window, group) dominates, decode a twentieth, the kernel little; open loop at 140000 events/s",
		kind:         embedded,
		lapEvents:    1 << 18,
		batch:        256,
		rate:         140000,
		queries:      fleetQueries("[key]", 256, 256),
		build:        func(seed uint64, n int) []*source { return buildFleet(seed, n, false, false) },
		probeEvery:   64,
		ladderEvents: 1 << 17,
	},
	{
		name:         "burst_kernel",
		why:          "pre-decoded same-type bursts, 8 ungrouped queries of all three granularities, rare closes: the per-event kernels do nearly all the work; open loop at 900000 events/s",
		kind:         embedded,
		lapEvents:    1 << 18,
		batch:        1024,
		rate:         900000,
		predecoded:   true,
		queries:      burstQueries,
		build:        buildBursts,
		probeEvery:   36,
		ladderEvents: 1 << 18,
	},
	{
		name:      "durable_disordered",
		why:       "jittered arrivals under slack, drifting keys under eviction, sliding windows, 2 workers, per-event Push, Snapshot every 16384 events, one Restore: the hardened path; open loop at 28000 events/s",
		kind:      durable,
		lapEvents: 1 << 16,
		batch:     256,
		rate:      32000,
		// [A.key] repeats what [key] already demands, but as a binding
		// slot: its values go through the engines' intern tables, which
		// the drifting keys would grow without bound if not evicted.
		queries:      fleetQueries("[key] AND [A.key]", 256, 64),
		build:        func(seed uint64, n int) []*source { return buildFleet(seed, n, true, true) },
		slack:        durableSlack,
		evict:        true,
		workers:      2,
		probeEvery:   16,
		ladderEvents: 1 << 15,
	},
	{
		name:         "served_tenants",
		why:          "in-process cograd on loopback, 8 tenants over a pipelined TCP and an HTTP connection, shared aggregation: frame read, decode, shard hop and ack dominate; open loop at 300000 events/s",
		kind:         served,
		lapEvents:    256000,
		batch:        500,
		rate:         300000,
		queries:      tenantQueries,
		build:        buildTenants,
		shared:       true,
		probeEvery:   32,
		ladderEvents: 32000,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
