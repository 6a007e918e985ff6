// The repro codec: a scenario and the oracles that replay it,
// serialized as a self-contained text file that `cografuzz -repro
// <file>` and the root package's corpus tests replay — a failing
// (scenario, oracle) pair the shrinker wrote under testdata/repros, or
// a scenario of the corpus under testdata/scenarios. The format is
// line-oriented and fully deterministic — encoding the same scenario
// always produces the same bytes, which is what lets the shrinker's
// output be pinned in golden tests.
//
//	cografuzz-repro v1
//	# free-form comment lines (the mismatch at capture time)
//	oracle slack,solo
//	reach tie-runs results-every-sub
//	template transit
//	seed 0x1f2e3d4c
//	config workers=4 batch=64 shuffleblock=8 shuffleseed=97 snapat=-1 jitter=0 exact=1
//	sub join=0 leave=128 name=boarding
//		RETURN COUNT(*)
//		PATTERN SEQ(Board+, Ride)
//		SEMANTICS skip-till-any-match
//		WITHIN 10 SLIDE 10
//	end
//	events 128
//	time,type,passenger,station,wait:num
//	...one CSV row per event...
//
// The oracle line names one oracle, several separated by commas, or *
// for every oracle that applies. A reach line names properties of the
// reach table (reach.go) the base run must show. maxdepth=n caps the
// reorder buffer of the shuffled and jittered runs, which must then
// neither drop nor shed an event. exact=1 compares
// results with no float tolerance and the snapshot oracle's final
// Stats() in every field; a file without it keeps diff.FloatTol and
// leaves PeakBytes out. A sub line may name its subscription. Query
// lines are tab-indented inside sub/end blocks (the canonical
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

// Repro couples a scenario with the oracles that replay it, the
// properties its base run must reach and the mismatch observed at
// capture time.
type Repro struct {
	Oracles  []string // oracle names, or the one name "*"
	Reach    []string // reach table names
	Mismatch string   // informational; replay recomputes it
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
	fmt.Fprintf(bw, "oracle %s\n", strings.Join(r.Oracles, ","))
	if len(r.Reach) > 0 {
		fmt.Fprintf(bw, "reach %s\n", strings.Join(r.Reach, " "))
	}
	sc := r.Scenario
	if sc.Template != "" {
		fmt.Fprintf(bw, "template %s\n", sc.Template)
	}
	fmt.Fprintf(bw, "seed %#x\n", sc.Seed)
	fmt.Fprintf(bw, "config workers=%d batch=%d shuffleblock=%d shuffleseed=%d snapat=%d jitter=%d",
		sc.Workers, sc.BatchSize, sc.ShuffleBlock, sc.ShuffleSeed, sc.SnapshotAt, sc.Jitter)
	if sc.MaxDepth > 0 {
		fmt.Fprintf(bw, " maxdepth=%d", sc.MaxDepth)
	}
	if sc.Exact {
		fmt.Fprint(bw, " exact=1")
	}
	fmt.Fprintln(bw)
	for _, sub := range sc.Subs {
		fmt.Fprintf(bw, "sub join=%d leave=%d", sub.Join, sub.Leave)
		if sub.Name != "" {
			fmt.Fprintf(bw, " name=%s", sub.Name)
		}
		fmt.Fprintln(bw)
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
			out.Oracles = strings.Split(strings.TrimPrefix(line, "oracle "), ",")
			for _, name := range out.Oracles {
				if name != "*" && OracleByName(name) == nil || name == "*" && len(out.Oracles) > 1 {
					return nil, fmt.Errorf("repro: bad oracle line %q", line)
				}
			}
		case strings.HasPrefix(line, "reach "):
			for _, name := range strings.Fields(strings.TrimPrefix(line, "reach ")) {
				if reachByName(name) == nil {
					return nil, fmt.Errorf("repro: unknown reach property %q", name)
				}
				out.Reach = append(out.Reach, name)
			}
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
				if !ok {
					return nil, fmt.Errorf("repro: bad sub field %q", f)
				}
				if k == "name" {
					sub.Name = v
					continue
				}
				n, perr := strconv.Atoi(v)
				if perr != nil {
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
	if len(out.Oracles) == 0 {
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
		case "maxdepth":
			sc.MaxDepth = int(n)
		case "exact":
			sc.Exact = n != 0
		default:
			return fmt.Errorf("repro: unknown config field %q", k)
		}
	}
	return nil
}

// validate checks the structural invariants replay and the shrinker
// both rely on: parseable queries, membership intervals inside the
// stream, a compilable plan per query and no name given twice.
func validate(sc *Scenario) error {
	n := len(sc.Events)
	named := map[string]bool{}
	for si, sub := range sc.Subs {
		if sub.Name != "" && named[sub.Name] {
			return fmt.Errorf("sub %d: name %q given twice", si, sub.Name)
		}
		named[sub.Name] = true
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
