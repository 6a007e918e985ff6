// Command cograql evaluates one or more event trend aggregation
// queries over a CSV event stream in one pass:
//
//	cograql -query q1.etaq -input stream.csv
//	cogragen -dataset stock | cograql -query 'RETURN company, COUNT(*)
//	    PATTERN SEQ(Stock A+, Stock B+) WHERE [company]
//	    GROUP-BY company WITHIN 100 SLIDE 100'
//
// Queries are given inline with -query or in files with -file; both
// flags repeat, and all queries execute together in one pass over the
// stream (one Session): each event is resolved once and dispatched
// only to the queries matching its type, and queries that differ only
// in RETURN share one host engine, byte-identically to per-query
// execution. The stream is read from -input or stdin to its end, then
// the session closes and flushes its open windows. Results print one
// line per window and group, prefixed with the query's index ([qN])
// when more than one query runs.
//
// The session flags are the ones cograd takes (internal/sessionflags):
// -workers > 1 enables partition-parallel execution (all queries, one
// worker pool); -slack k accepts bounded disorder, re-sorting events
// within k time units and dropping stragglers beyond that (or failing
// the run with -late-reject); -max-reorder-depth caps the slack buffer
// (shedding its oldest events at the cap, or failing with backpressure
// under -reorder-reject).
//
// -explain prints the compiled plans and exits; -memory reports the
// logical peak memory; -stats prints an end-of-run summary: events
// accepted, events skipped by the partition router, late events dropped
// by the slack buffer, events shed at the depth cap, the buffer's peak
// depth and the catalog compaction count.
//
// A live stream — queries added and removed while it runs, periodic
// checkpoints, restore after a crash — is served by cmd/cograd; its
// smoke test (scripts/server_smoke.sh) uses cograql as the reference.
package main

import (
	"flag"
	"fmt"
	"os"

	cogra "repro"
	"repro/internal/sessionflags"
)

// querySource is one query given on the command line, in flag order —
// interleaved -query and -file flags keep their relative positions, so
// [qN] result prefixes match the order the user wrote.
type querySource struct {
	fromFile bool
	value    string
}

// sourceFlag appends to a shared ordered list of query sources.
type sourceFlag struct {
	srcs     *[]querySource
	fromFile bool
}

func (f sourceFlag) String() string { return "" }

func (f sourceFlag) Set(v string) error {
	*f.srcs = append(*f.srcs, querySource{fromFile: f.fromFile, value: v})
	return nil
}

// runCfg collects the command line; run is testable over it. The
// session-shaping flags (-workers, -slack, ...) live in the shared
// sessionflags struct, the same set cograd serves.
type runCfg struct {
	sources []querySource
	input   string
	session sessionflags.Flags
	explain bool
	memory  bool
	stats   bool
}

func main() {
	var cfg runCfg
	flag.Var(sourceFlag{&cfg.sources, false}, "query", "query text (SASE-style syntax); repeatable")
	flag.Var(sourceFlag{&cfg.sources, true}, "file", "file holding one query text; repeatable")
	flag.StringVar(&cfg.input, "input", "", "CSV event stream (default stdin)")
	sf := sessionflags.Register(flag.CommandLine)
	flag.BoolVar(&cfg.explain, "explain", false, "print the compiled plans and exit")
	flag.BoolVar(&cfg.memory, "memory", false, "report logical peak memory after the run")
	flag.BoolVar(&cfg.stats, "stats", false, "report an end-of-run stream summary")
	flag.Parse()
	cfg.session = *sf

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cograql:", err)
		os.Exit(1)
	}
}

func run(cfg runCfg) error {
	texts := make([]string, 0, len(cfg.sources))
	for _, src := range cfg.sources {
		if !src.fromFile {
			texts = append(texts, src.value)
			continue
		}
		data, err := os.ReadFile(src.value)
		if err != nil {
			return err
		}
		texts = append(texts, string(data))
	}
	if len(texts) == 0 {
		return fmt.Errorf("provide -query or -file (repeatable)")
	}

	queries := make([]*cogra.Query, len(texts))
	for i, text := range texts {
		q, err := cogra.Parse(text)
		if err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
		queries[i] = q
	}
	if cfg.explain {
		// Compile against one shared catalog, the way a session would.
		cat := cogra.NewCatalog()
		for i, q := range queries {
			plan, err := cogra.CompileIn(cat, q)
			if err != nil {
				return fmt.Errorf("query %d: %w", i+1, err)
			}
			if len(queries) > 1 {
				fmt.Printf("[q%d] %v\n", i+1, plan)
			} else {
				fmt.Println(plan)
			}
		}
		return nil
	}

	in := os.Stdin
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	// The shared helper validates the cross-flag rules and builds the
	// session options.
	opts, err := cfg.session.Options()
	if err != nil {
		return err
	}
	sess := cogra.NewSession(opts...)
	// Result lines carry a [qN] prefix only when more than one query
	// runs.
	for i, q := range queries {
		sink := cogra.SinkFunc(func(r cogra.Result) {
			if len(queries) > 1 {
				fmt.Printf("[q%d] %v\n", i+1, r)
			} else {
				fmt.Println(r)
			}
		})
		if _, err := sess.Subscribe(q, cogra.WithSink(sink)); err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
	}
	if cfg.session.Workers > 1 {
		if st, err := sess.Stats(); err == nil && len(st.RoutingAttrs) == 0 {
			fmt.Fprintf(os.Stderr, "cograql: no shared partition attribute to route on; all events run on 1 of %d workers\n", cfg.session.Workers)
		}
	}

	events, err := cogra.ReadCSV(in)
	if err != nil {
		return err
	}
	if err := sess.PushBatch(events); err != nil {
		return err
	}
	if err := sess.Close(); err != nil {
		return err
	}
	if cfg.memory || cfg.stats {
		st, err := sess.Stats()
		if err != nil {
			return err
		}
		if cfg.memory {
			fmt.Fprintf(os.Stderr, "peak memory: %d bytes across %d worker(s); binding intern tables: %d bytes\n",
				st.PeakBytes, st.Workers, st.BindingInternBytes)
		}
		if cfg.stats {
			// st.Queries counts ACTIVE subscriptions — zero after Close —
			// so the summary reports how many ever subscribed.
			fmt.Fprintf(os.Stderr, "stream: %d events accepted, %d unroutable, %d dropped late, %d shed at the depth cap (reorder peak depth %d); %d quer(ies) subscribed on %d worker(s) and %d executor group(s); %d catalog compaction(s)\n",
				st.Events, st.Skipped, st.LateDropped, st.ReorderShed, st.ReorderPeakDepth, len(queries), st.Workers, st.ExecutorGroups, st.CatalogCompactions)
		}
	}
	return nil
}
