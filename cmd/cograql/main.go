// Command cograql evaluates one or more event trend aggregation
// queries against a CSV event stream:
//
//	cograql -query q1.etaq -input stream.csv
//	cogragen -dataset stock | cograql -query 'RETURN company, COUNT(*)
//	    PATTERN SEQ(Stock A+, Stock B+) WHERE [company]
//	    GROUP-BY company WITHIN 100 SLIDE 100'
//
// Queries are given inline with -query or in files with -file; both
// flags repeat, and all queries execute together in one pass over the
// stream (one Session): each event is resolved once and dispatched
// only to the queries matching its type. The stream is read from
// -input or stdin. Results print one line per window and group,
// prefixed with the query's index when more than one query runs.
// -workers > 1 enables partition-parallel execution (all queries, one
// worker pool). -slack k accepts bounded disorder: events are
// re-sorted within k time units and stragglers beyond that are
// dropped and counted (or fail the run with -late-reject).
//
// -follow tails a live feed line by line and accepts control lines
// interleaved with the CSV rows, so the query fleet can change while
// the stream runs:
//
//	+query <text>   subscribe a new query mid-stream (its results
//	                start from its first fully covered window)
//	-query <id>     unsubscribe query <id> (as printed at subscribe
//	                time), flushing its open windows
//
// Long-lived sessions bound their state: -max-reorder-depth caps the
// slack buffer (shedding its oldest events at the cap, or failing with
// backpressure under -reorder-reject), and binding-intern memory is
// always reclaimed once the windows referencing it have closed. Queries
// that differ only in RETURN always share one trend aggregation pass
// (one host engine over the union of their RETURN lists); results are
// byte-identical to per-query execution.
//
// Crash recovery: -checkpoint <path> -checkpoint-every <n> (with
// -follow) snapshots the whole session — query fleet, window state,
// stream position — to <path> after every n accepted events. The file
// is written atomically (temp file + fsync + rename), so a crash
// mid-checkpoint never leaves a truncated snapshot; each completed
// checkpoint is logged to stderr with its stream position. -restore
// <path> resumes from a checkpoint instead of starting empty: feed it
// the stream suffix after the checkpoint position and the results
// continue byte-identically to an undisturbed run. Restored queries
// have no sinks (a snapshot cannot carry code), so their results are
// drained and printed at each checkpoint and at end of run.
//
// -stats prints an end-of-run summary: events accepted, events
// skipped by the partition router, late events dropped by the slack
// buffer, events shed at the depth cap, the buffer's peak depth and
// the catalog compaction count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	cogra "repro"
	"repro/internal/sessionflags"
	"repro/internal/snap"
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
	sources         []querySource
	input           string
	session         sessionflags.Flags
	follow          bool
	explain         bool
	memory          bool
	stats           bool
	checkpoint      string
	checkpointEvery int
	restore         string
}

func main() {
	var cfg runCfg
	flag.Var(sourceFlag{&cfg.sources, false}, "query", "query text (SASE-style syntax); repeatable")
	flag.Var(sourceFlag{&cfg.sources, true}, "file", "file holding one query text; repeatable")
	flag.StringVar(&cfg.input, "input", "", "CSV event stream (default stdin)")
	sf := sessionflags.Register(flag.CommandLine)
	flag.BoolVar(&cfg.follow, "follow", false, "tail the feed line by line; '+query <text>' / '-query <id>' control lines change the fleet mid-stream")
	flag.BoolVar(&cfg.explain, "explain", false, "print the compiled plans and exit")
	flag.BoolVar(&cfg.memory, "memory", false, "report logical peak memory after the run")
	flag.BoolVar(&cfg.stats, "stats", false, "report an end-of-run stream summary")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write session checkpoints to this file, atomically (requires -checkpoint-every and -follow)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 0, "checkpoint after every N accepted events (requires -checkpoint)")
	flag.StringVar(&cfg.restore, "restore", "", "resume from this checkpoint file instead of starting empty")
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
	if len(texts) == 0 && !cfg.follow && cfg.restore == "" {
		return fmt.Errorf("provide -query or -file (repeatable)")
	}
	if (cfg.checkpoint != "") != (cfg.checkpointEvery > 0) {
		return fmt.Errorf("-checkpoint and -checkpoint-every go together (a path and a cadence)")
	}
	if cfg.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %d", cfg.checkpointEvery)
	}
	if cfg.checkpoint != "" && !cfg.follow {
		return fmt.Errorf("-checkpoint requires -follow (a batch run has no mid-stream positions to cut at)")
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
	// session options; when restoring, an explicitly given -workers
	// overrides the checkpoint's topology (allowed only before the
	// stream's first event froze partition routing), while an omitted
	// flag lets the checkpoint decide.
	var opts []cogra.SessionOption
	var err error
	if cfg.restore != "" {
		opts, err = cfg.session.RestoreOptions()
	} else {
		opts, err = cfg.session.Options()
	}
	if err != nil {
		return err
	}

	var sess *cogra.Session
	var restored []*cogra.Subscription
	nextID := 0
	if cfg.restore != "" {
		// A crash mid-checkpoint leaves a stale temp file next to the
		// durable one; it is truncated by construction and must never be
		// restored from.
		if strings.HasSuffix(cfg.restore, snap.TempSuffix) {
			return fmt.Errorf("refusing to restore from temp checkpoint %s: a crash mid-checkpoint leaves it truncated; restore from the durable path", cfg.restore)
		}
		f, err := os.Open(cfg.restore)
		if err != nil {
			return err
		}
		sess, err = cogra.Restore(f, opts...)
		f.Close()
		if err != nil {
			return fmt.Errorf("restore %s: %w", cfg.restore, err)
		}
		for _, sub := range sess.Subscriptions() {
			if sub.Active() {
				restored = append(restored, sub)
			}
		}
		// Hot-added queries number after the checkpoint's fleet, active
		// or not, matching the session's own id assignment.
		nextID = len(sess.Subscriptions())
		fmt.Fprintf(os.Stderr, "cograql: restored %d quer(ies) from %s\n", len(restored), cfg.restore)
	} else {
		sess = cogra.NewSession(opts...)
	}

	// Result lines carry a [qN] prefix whenever the fleet can exceed
	// one query, so single-query batch output stays byte-compatible
	// with earlier versions; -follow and -restore always prefix
	// (hot-adds and checkpointed fleets can hold any number).
	printResult := func(qi int, r cogra.Result) {
		if len(queries) > 1 || cfg.follow || cfg.restore != "" {
			fmt.Printf("[q%d] %v\n", qi+1, r)
		} else {
			fmt.Println(r)
		}
	}
	// Restored subscriptions carry no sinks (a snapshot cannot carry
	// code), so their results buffer and are drained here: right before
	// each checkpoint — printed results stay out of the snapshot's
	// pending buffer, so a restore never replays them — and at end of
	// run.
	drainRestored := func() {
		for _, sub := range restored {
			for _, r := range sub.Drain() {
				printResult(sub.ID(), r)
			}
		}
	}
	subscribe := func(q *cogra.Query) (*cogra.Subscription, error) {
		qi := nextID
		sub, err := sess.Subscribe(q,
			cogra.WithSink(cogra.SinkFunc(func(r cogra.Result) { printResult(qi, r) })))
		if err != nil {
			return nil, err
		}
		nextID++
		return sub, nil
	}

	subs := make(map[int]*cogra.Subscription)
	for _, sub := range restored {
		subs[sub.ID()] = sub
	}
	for i, q := range queries {
		sub, err := subscribe(q)
		if err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
		subs[sub.ID()] = sub
	}
	if cfg.session.Workers > 1 && len(queries) > 0 {
		if st, err := sess.Stats(); err == nil && len(st.RoutingAttrs) == 0 {
			fmt.Fprintf(os.Stderr, "cograql: no shared partition attribute to route on; all events run on 1 of %d workers\n", cfg.session.Workers)
		}
	}

	var pushed int64
	onPush := func() error {
		pushed++
		if cfg.checkpointEvery <= 0 || pushed%int64(cfg.checkpointEvery) != 0 {
			return nil
		}
		drainRestored()
		if err := snap.WriteFileAtomic(cfg.checkpoint, sess.Snapshot); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cograql: checkpoint %s @ %d events\n", cfg.checkpoint, pushed)
		return nil
	}

	if cfg.follow {
		if err := follow(in, sess, subscribe, subs, onPush); err != nil {
			return err
		}
	} else {
		events, err := cogra.ReadCSV(in)
		if err != nil {
			return err
		}
		if err := sess.PushBatch(events); err != nil {
			return err
		}
	}
	if err := sess.Close(); err != nil {
		return err
	}
	drainRestored() // Close flushed the open windows into the buffers
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
				st.Events, st.Skipped, st.LateDropped, st.ReorderShed, st.ReorderPeakDepth, nextID, st.Workers, st.ExecutorGroups, st.CatalogCompactions)
		}
	}
	return nil
}

// follow tails the feed line by line. The first non-control line must
// be the CSV header; control lines ('+query <text>', '-query <id>')
// change the query fleet at exactly their position in the stream.
// Control errors (a bad query text, an unknown id) are reported to
// stderr and the stream continues — a typo must not kill a live tail.
func follow(in io.Reader, sess *cogra.Session,
	subscribe func(*cogra.Query) (*cogra.Subscription, error), subs map[int]*cogra.Subscription,
	onPush func() error) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var dec *cogra.CSVDecoder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "+query "):
			q, err := cogra.Parse(strings.TrimPrefix(line, "+query "))
			if err != nil {
				fmt.Fprintln(os.Stderr, "cograql: +query:", err)
				continue
			}
			sub, err := subscribe(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cograql: +query:", err)
				continue
			}
			subs[sub.ID()] = sub
			fmt.Fprintf(os.Stderr, "cograql: subscribed [q%d]\n", sub.ID()+1)
		case strings.HasPrefix(line, "-query "):
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "-query ")))
			if err != nil {
				fmt.Fprintln(os.Stderr, "cograql: -query:", err)
				continue
			}
			sub, ok := subs[id-1]
			if !ok || !sub.Active() {
				fmt.Fprintf(os.Stderr, "cograql: -query: no active query %d\n", id)
				continue
			}
			sub.Unsubscribe() // results reach the query's sink
			if sub.Active() {
				// Still attached: the unsubscribe itself was rejected
				// (Err records why); keep the entry for a retry.
				fmt.Fprintln(os.Stderr, "cograql: -query:", sub.Err())
				continue
			}
			delete(subs, id-1)
			fmt.Fprintf(os.Stderr, "cograql: unsubscribed [q%d]\n", id)
		case dec == nil:
			if strings.TrimSpace(line) == "" {
				continue
			}
			var err error
			if dec, err = cogra.NewCSVDecoder(line); err != nil {
				return err
			}
		default:
			e, err := dec.Decode(line)
			if err != nil {
				return err
			}
			if e == nil {
				continue
			}
			if err := sess.Push(e); err != nil {
				return err
			}
			if err := onPush(); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
