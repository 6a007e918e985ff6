// The repro codec: a failing (scenario, oracle) pair serialized as a
// self-contained text file that `cografuzz -repro <file>` and the
// committed TestFuzzRepros regression suite both replay. The format is
// line-oriented and fully deterministic — encoding the same scenario
// always produces the same bytes, which is what lets the shrinker's
// output be pinned in golden tests.
//
//	cografuzz-repro v1
//	# free-form comment lines (the mismatch at capture time)
//	oracle slack
//	template transit
//	seed 0x1f2e3d4c
//	config workers=4 batch=64 shuffleblock=8 shuffleseed=97 snapat=-1
//	sub join=0 leave=128
//		RETURN COUNT(*)
//		PATTERN SEQ(Board+, Ride)
//		SEMANTICS skip-till-any-match
//		WITHIN 10 SLIDE 10
//	end
//	events 128
//	time,type,passenger,station,wait:num
//	...one CSV row per event...
//
// Query lines are tab-indented inside sub/end blocks (the canonical
// multi-line rendering of query.String). The events section reuses the
// repository's CSV event codec and must come last.
package fuzz

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	cogra "repro"
)

const reproMagic = "cografuzz-repro v1"

// Repro couples a scenario with the oracle it fails and the mismatch
// observed at capture time.
type Repro struct {
	Oracle   string
	Mismatch string // informational; replay recomputes it
	Scenario *Scenario
}

// WriteRepro serializes the repro. The mismatch is embedded as
// comment lines so a committed file documents what went wrong without
// affecting replay.
func WriteRepro(w io.Writer, r *Repro) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, reproMagic)
	for _, line := range strings.Split(strings.TrimRight(r.Mismatch, "\n"), "\n") {
		if line != "" {
			fmt.Fprintf(bw, "# %s\n", line)
		}
	}
	fmt.Fprintf(bw, "oracle %s\n", r.Oracle)
	sc := r.Scenario
	if sc.Template != "" {
		fmt.Fprintf(bw, "template %s\n", sc.Template)
	}
	fmt.Fprintf(bw, "seed %#x\n", sc.Seed)
	fmt.Fprintf(bw, "config workers=%d batch=%d shuffleblock=%d shuffleseed=%d snapat=%d jitter=%d\n",
		sc.Workers, sc.BatchSize, sc.ShuffleBlock, sc.ShuffleSeed, sc.SnapshotAt, sc.Jitter)
	for _, sub := range sc.Subs {
		fmt.Fprintf(bw, "sub join=%d leave=%d\n", sub.Join, sub.Leave)
		for _, line := range strings.Split(strings.TrimRight(sub.Src, "\n"), "\n") {
			fmt.Fprintf(bw, "\t%s\n", line)
		}
		fmt.Fprintln(bw, "end")
	}
	fmt.Fprintf(bw, "events %d\n", len(sc.Events))
	if err := bw.Flush(); err != nil {
		return err
	}
	return cogra.WriteCSV(w, sc.Events)
}

// ReadRepro parses a repro file back into a replayable form.
func ReadRepro(r io.Reader) (*Repro, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("repro: missing header: %w", err)
	}
	if strings.TrimRight(line, "\n") != reproMagic {
		return nil, fmt.Errorf("repro: bad magic %q (want %q)", strings.TrimSpace(line), reproMagic)
	}
	out := &Repro{Scenario: &Scenario{SnapshotAt: -1}}
	sc := out.Scenario
	var wantEvents = -1
	for {
		line, err = br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("repro: truncated before events section: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" || strings.HasPrefix(line, "# "), line == "#":
			// comments carry the captured mismatch; replay ignores them
		case strings.HasPrefix(line, "oracle "):
			out.Oracle = strings.TrimPrefix(line, "oracle ")
		case strings.HasPrefix(line, "template "):
			sc.Template = strings.TrimPrefix(line, "template ")
		case strings.HasPrefix(line, "seed "):
			v, perr := strconv.ParseUint(strings.TrimPrefix(line, "seed "), 0, 64)
			if perr != nil {
				return nil, fmt.Errorf("repro: bad seed line %q: %v", line, perr)
			}
			sc.Seed = v
		case strings.HasPrefix(line, "config "):
			if err := parseConfig(strings.TrimPrefix(line, "config "), sc); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "sub "):
			sub := SubSpec{}
			for _, f := range strings.Fields(strings.TrimPrefix(line, "sub ")) {
				k, v, ok := strings.Cut(f, "=")
				n, perr := strconv.Atoi(v)
				if !ok || perr != nil {
					return nil, fmt.Errorf("repro: bad sub field %q", f)
				}
				switch k {
				case "join":
					sub.Join = n
				case "leave":
					sub.Leave = n
				default:
					return nil, fmt.Errorf("repro: unknown sub field %q", k)
				}
			}
			var q []string
			for {
				line, err = br.ReadString('\n')
				if err != nil {
					return nil, fmt.Errorf("repro: unterminated sub block: %w", err)
				}
				line = strings.TrimRight(line, "\n")
				if line == "end" {
					break
				}
				if !strings.HasPrefix(line, "\t") {
					return nil, fmt.Errorf("repro: query lines must be tab-indented, got %q", line)
				}
				q = append(q, strings.TrimPrefix(line, "\t"))
			}
			sub.Src = strings.Join(q, "\n")
			sc.Subs = append(sc.Subs, sub)
		case strings.HasPrefix(line, "events "):
			n, perr := strconv.Atoi(strings.TrimPrefix(line, "events "))
			if perr != nil {
				return nil, fmt.Errorf("repro: bad events line %q: %v", line, perr)
			}
			wantEvents = n
		default:
			return nil, fmt.Errorf("repro: unknown directive %q", line)
		}
		if wantEvents >= 0 {
			break
		}
	}
	events, err := cogra.ReadCSV(br)
	if err != nil {
		return nil, fmt.Errorf("repro: events section: %w", err)
	}
	if len(events) != wantEvents {
		return nil, fmt.Errorf("repro: %d events in CSV section, header says %d", len(events), wantEvents)
	}
	sc.Events = events
	if out.Oracle == "" {
		return nil, fmt.Errorf("repro: missing oracle line")
	}
	if len(sc.Subs) == 0 {
		return nil, fmt.Errorf("repro: no subscriptions")
	}
	if err := validate(sc); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return out, nil
}

func parseConfig(s string, sc *Scenario) error {
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("repro: bad config field %q", f)
		}
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return fmt.Errorf("repro: bad config field %q: %v", f, perr)
		}
		switch k {
		case "workers":
			sc.Workers = int(n)
		case "groups":
			// The executor-group cap of files written before it was
			// removed; every session now runs at most one fallback worker.
		case "batch":
			sc.BatchSize = int(n)
		case "shuffleblock":
			sc.ShuffleBlock = int(n)
		case "shuffleseed":
			sc.ShuffleSeed = n
		case "snapat":
			sc.SnapshotAt = int(n)
		case "jitter":
			// Absent in v1 files written before the jitter oracles
			// existed; they replay with jitter 0 (those oracles skip).
			sc.Jitter = n
		default:
			return fmt.Errorf("repro: unknown config field %q", k)
		}
	}
	return nil
}

// validate checks the structural invariants replay and the shrinker
// both rely on: parseable queries, membership intervals inside the
// stream, and a compilable plan per query.
func validate(sc *Scenario) error {
	n := len(sc.Events)
	for si, sub := range sc.Subs {
		if sub.Join < 0 || sub.Join >= n && n > 0 || sub.Leave <= sub.Join || sub.Leave > n {
			return fmt.Errorf("sub %d: bad membership interval [%d,%d) over %d events", si, sub.Join, sub.Leave, n)
		}
		q, err := cogra.Parse(sub.Src)
		if err != nil {
			return fmt.Errorf("sub %d: %w", si, err)
		}
		if _, err := cogra.Compile(q); err != nil {
			return fmt.Errorf("sub %d: %w", si, err)
		}
	}
	return nil
}
