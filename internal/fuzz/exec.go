// The scenario executor: runs one Scenario under one execution Mode
// and returns per-subscription canonical results plus the invariant
// observations (watermark samples, final stats). A self-differential
// oracle is "Execute twice with one axis flipped, compare"; the solo
// oracle compares one Execute against plain engines.
package fuzz

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	cogra "repro"
	"repro/internal/fuzz/diff"
	"repro/internal/server"
)

// Mode selects the execution strategy for one run of a scenario. The
// zero value of each field means "as the scenario's base config says"
// is NOT the convention here — a Mode is absolute: Execute uses
// exactly the mode's knobs, and BaseMode(sc) builds the reference.
type Mode struct {
	Workers   int
	BatchSize int
	// Shuffled pushes the events in bounded-shuffle order (block and
	// seed from the scenario) on a WithSlack session sized to repair
	// the disorder exactly.
	Shuffled bool
	// Jittered pushes the events in ingest-jitter order (each event
	// delayed by an independent random amount up to Scenario.Jitter) on
	// a WithSlack session sized to repair the disorder exactly — the
	// genuinely-disordered sibling of Shuffled.
	Jittered bool
	// SnapshotAt > 0 snapshots the session after pushing that many
	// events, restores it from the bytes, and finishes the run on the
	// restored session.
	SnapshotAt int
	// Server runs the scenario through an in-process cograd server
	// (one tenant, one shard) instead of an embedded session.
	Server bool
}

// BaseMode is the scenario's reference execution mode.
func BaseMode(sc *Scenario) Mode {
	return Mode{Workers: sc.Workers, BatchSize: sc.BatchSize}
}

func (m Mode) String() string {
	s := fmt.Sprintf("workers=%d batch=%d", m.Workers, m.BatchSize)
	if m.Shuffled {
		s += " shuffled"
	}
	if m.Jittered {
		s += " jittered"
	}
	if m.SnapshotAt > 0 {
		s += fmt.Sprintf(" snapshot@%d", m.SnapshotAt)
	}
	if m.Server {
		s += " server"
	}
	return s
}

// StatsSample is one Stats() observation taken mid-run.
type StatsSample struct {
	AfterEvents int
	cogra.SessionStats
}

// RunOutput is what one Execute produces: the results of every
// subscription (indexed like Scenario.Subs, in the canonical window/
// group order) and the invariant observations.
type RunOutput struct {
	// Results are compared structurally (diff.Compare) so float
	// aggregates get a relative tolerance.
	Results [][]cogra.Result
	// Stats is the session's Stats() after the last event, before
	// Close, and Closed its Stats() after Close; HasStats is false for
	// server runs (the server owns the session).
	Stats, Closed cogra.SessionStats
	HasStats      bool
	// Samples are taken along the run, in push order; the last is
	// Stats.
	Samples []StatsSample
	// Drains holds, per subscription, the length of every drain in
	// order: two runs that push the same batches must hand out the same
	// rows in every drain, not only in all of them together.
	Drains [][]int
	// CutDrift describes how Stats() changed across a snapshot cut;
	// empty when it did not.
	CutDrift string
}

func (m Mode) options() []cogra.SessionOption {
	var opts []cogra.SessionOption
	if m.Workers > 0 {
		opts = append(opts, cogra.WithWorkers(m.Workers))
	}
	return opts
}

// Execute runs the scenario under the mode. It stamps canonical event
// IDs (1..n by slice position) before pushing so timestamp ties break
// identically in every mode and push order, and in the bare engines
// the solo oracle compares with.
func Execute(sc *Scenario, m Mode) (*RunOutput, error) {
	for i, e := range sc.Events {
		e.ID = int64(i + 1)
	}
	return execute(sc, m)
}

// slackOptions sizes the reorder buffer of a disordered run: the slack
// that repairs its disorder, capped at the scenario's MaxDepth.
func (sc *Scenario) slackOptions(slack int64) []cogra.SessionOption {
	if slack <= 0 {
		return nil
	}
	opts := []cogra.SessionOption{cogra.WithSlack(slack)}
	if sc.MaxDepth > 0 {
		opts = append(opts, cogra.WithMaxReorderDepth(sc.MaxDepth))
	}
	return opts
}

func execute(sc *Scenario, m Mode) (*RunOutput, error) {
	n := len(sc.Events)
	if (m.Shuffled || m.Jittered) && sc.HasChurn() {
		return nil, fmt.Errorf("fuzz: disordered mode with churn: join watermarks would differ")
	}
	if m.Server {
		return executeServer(sc, m)
	}

	pushOrder := sc.Events
	opts := m.options()
	if m.Shuffled {
		shuffled, slack := diff.ShuffleBounded(sc.Events, sc.ShuffleBlock, sc.ShuffleSeed)
		pushOrder = shuffled
		opts = append(opts, sc.slackOptions(slack)...)
	} else if m.Jittered {
		jittered, slack := diff.JitterOrder(sc.Events, sc.Jitter, sc.ShuffleSeed)
		pushOrder = jittered
		opts = append(opts, sc.slackOptions(slack)...)
	}

	out := &RunOutput{Drains: make([][]int, len(sc.Subs))}
	results := make([][]cogra.Result, len(sc.Subs))
	sess := cogra.NewSession(opts...)
	live := make(map[int]*cogra.Subscription) // scenario sub index → live sub

	subscribeAt := func(pos int) error {
		for si := range sc.Subs {
			if sc.Subs[si].Join != pos {
				continue
			}
			q, err := cogra.Parse(sc.Subs[si].Src)
			if err != nil {
				return fmt.Errorf("fuzz: sub %d: %w", si, err)
			}
			sub, err := sess.Subscribe(q)
			if err != nil {
				return fmt.Errorf("fuzz: sub %d: %w", si, err)
			}
			live[si] = sub
		}
		return nil
	}
	// Mid-stream leavers detach via Unsubscribe (which flushes their
	// open windows); subscriptions resident at end of stream are
	// flushed by Close and collected via Drain — the solo-run
	// convention, and the only correct one under slack, where
	// Close also drains the reorder buffer first. Results concatenate
	// every drain, one at each watermark sample included.
	unsubscribeAt := func(pos int) error {
		for si := range sc.Subs {
			if sc.Subs[si].Leave != pos || pos == n {
				continue
			}
			sub := live[si]
			if sub == nil {
				continue
			}
			rows := sub.Unsubscribe()
			if err := sub.Err(); err != nil {
				return fmt.Errorf("fuzz: sub %d unsubscribe: %w", si, err)
			}
			results[si] = append(results[si], rows...)
			out.Drains[si] = append(out.Drains[si], len(rows))
			delete(live, si)
		}
		return nil
	}

	sample := n / 16
	if sample < 1 {
		sample = 1
	}
	drainLive := func() error {
		for si, sub := range live {
			rows := sub.Drain()
			if err := sub.Err(); err != nil {
				return fmt.Errorf("fuzz: sub %d drain: %w", si, err)
			}
			results[si] = append(results[si], rows...)
			out.Drains[si] = append(out.Drains[si], len(rows))
		}
		return nil
	}
	takeSample := func(pushed int) error {
		st, err := sess.Stats()
		if err != nil {
			return fmt.Errorf("fuzz: stats after %d events: %w", pushed, err)
		}
		out.Stats, out.HasStats = st, true
		out.Samples = append(out.Samples, StatsSample{AfterEvents: pushed, SessionStats: st})
		return drainLive()
	}

	pos := 0
	for pos < n {
		if err := unsubscribeAt(pos); err != nil {
			return nil, err
		}
		if err := subscribeAt(pos); err != nil {
			return nil, err
		}
		// Push up to the next membership boundary (or snapshot point)
		// in mode-sized chunks.
		next := n
		for si := range sc.Subs {
			if j := sc.Subs[si].Join; j > pos && j < next {
				next = j
			}
			if l := sc.Subs[si].Leave; l > pos && l < next {
				next = l
			}
		}
		if m.SnapshotAt > pos && m.SnapshotAt < next {
			next = m.SnapshotAt
		}
		for pos < next {
			end := next
			if m.BatchSize > 0 {
				if c := pos + m.BatchSize; c < end {
					end = c
				}
				if err := sess.PushBatch(pushOrder[pos:end]); err != nil {
					return nil, fmt.Errorf("fuzz: push [%d,%d): %w", pos, end, err)
				}
			} else {
				end = pos + 1
				if err := sess.Push(pushOrder[pos]); err != nil {
					return nil, fmt.Errorf("fuzz: push %d: %w", pos, err)
				}
			}
			if end/sample != pos/sample {
				if err := takeSample(end); err != nil {
					return nil, err
				}
			}
			pos = end
		}
		if m.SnapshotAt == pos && pos > 0 && pos < n {
			var buf bytes.Buffer
			if err := sess.Snapshot(&buf); err != nil {
				return nil, fmt.Errorf("fuzz: snapshot at %d: %w", pos, err)
			}
			restored, err := cogra.Restore(&buf)
			if err != nil {
				return nil, fmt.Errorf("fuzz: restore at %d: %w", pos, err)
			}
			// Stats() counters are continuous across the cut.
			before, err := sess.Stats()
			if err != nil {
				return nil, fmt.Errorf("fuzz: stats at the cut: %w", err)
			}
			after, err := restored.Stats()
			if err != nil {
				return nil, fmt.Errorf("fuzz: stats after the restore: %w", err)
			}
			if b, a := fmt.Sprintf("%+v", before), fmt.Sprintf("%+v", after); b != a {
				out.CutDrift = fmt.Sprintf("Stats() not continuous across the restore at %d\nbefore: %s\nafter:  %s", pos, b, a)
			}
			// Re-home the live subscriptions onto the restored session;
			// ids survive the cut.
			byID := map[int]*cogra.Subscription{}
			for _, sub := range restored.Subscriptions() {
				byID[sub.ID()] = sub
			}
			for si, old := range live {
				ns := byID[old.ID()]
				if ns == nil {
					return nil, fmt.Errorf("fuzz: restore lost subscription %d (id %d)", si, old.ID())
				}
				live[si] = ns
			}
			if err := sess.Close(); err != nil {
				return nil, fmt.Errorf("fuzz: closing pre-snapshot session: %w", err)
			}
			sess = restored
		}
	}
	if err := takeSample(n); err != nil {
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, fmt.Errorf("fuzz: close: %w", err)
	}
	var err error
	if out.Closed, err = sess.Stats(); err != nil {
		return nil, fmt.Errorf("fuzz: stats after close: %w", err)
	}
	if err := drainLive(); err != nil {
		return nil, err
	}
	out.Results = results
	return out, nil
}

// executeServer replays the scenario against an in-process cograd
// server hosting one tenant on one shard, configured with the mode's
// session options — the "served == embedded" oracle body. The server
// checkpoints the tenant on a cadence drawn from the scenario (its
// snapshot position, else half the stream), so the run passes
// mid-stream checkpoints, each a read-only barrier; a checkpoint that
// fails fails the run.
func executeServer(sc *Scenario, m Mode) (*RunOutput, error) {
	n := len(sc.Events)
	every := sc.SnapshotAt
	if every <= 0 || every >= n {
		every = max(1, n/2)
	}
	dir, err := os.MkdirTemp("", "cografuzz-ck")
	if err != nil {
		return nil, fmt.Errorf("fuzz: server: %w", err)
	}
	defer os.RemoveAll(dir)
	var ckptErr error
	srv, err := server.New(server.Config{Shards: 1, SessionOptions: m.options(),
		CheckpointDir: dir, CheckpointEvery: every,
		Logf: func(format string, args ...any) {
			// Logf runs on the shard goroutine, inside the request the
			// caller waits for.
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "checkpoint failed") && ckptErr == nil {
				ckptErr = fmt.Errorf("fuzz: server %s", line)
			}
		}})
	if err != nil {
		return nil, fmt.Errorf("fuzz: server: %w", err)
	}
	defer srv.Drain()
	const tenant = "fuzz"

	out := &RunOutput{}
	results := make([][]cogra.Result, len(sc.Subs))
	ids := make(map[int]int) // scenario sub index → server subscription id

	boundary := func(pos int) error {
		for si := range sc.Subs {
			if sc.Subs[si].Leave == pos && pos < n {
				id, ok := ids[si]
				if !ok {
					continue
				}
				res, werr := srv.Unsubscribe(tenant, id)
				if werr != nil {
					return fmt.Errorf("fuzz: server unsubscribe sub %d: %s", si, werr.Message)
				}
				results[si] = res
				delete(ids, si)
			}
		}
		for si := range sc.Subs {
			if sc.Subs[si].Join == pos {
				id, werr := srv.Subscribe(tenant, sc.Subs[si].Src, false)
				if werr != nil {
					return fmt.Errorf("fuzz: server subscribe sub %d: %s", si, werr.Message)
				}
				ids[si] = id
			}
		}
		return nil
	}

	pos := 0
	for pos < n {
		if err := boundary(pos); err != nil {
			return nil, err
		}
		next := n
		for si := range sc.Subs {
			if j := sc.Subs[si].Join; j > pos && j < next {
				next = j
			}
			if l := sc.Subs[si].Leave; l > pos && l < next {
				next = l
			}
		}
		for pos < next {
			end := next
			if m.BatchSize > 0 {
				if c := pos + m.BatchSize; c < end {
					end = c
				}
			} else {
				end = pos + 1
			}
			if _, werr := srv.Ingest(tenant, sc.Events[pos:end]); werr != nil {
				return nil, fmt.Errorf("fuzz: server ingest [%d,%d): %s", pos, end, werr.Message)
			}
			if ckptErr != nil {
				return nil, ckptErr
			}
			pos = end
		}
	}
	// End of stream: CloseTenant flushes the resident subscriptions'
	// open windows into their buffers (the embedded path's Close), then
	// Results drains them.
	if werr := srv.CloseTenant(tenant); werr != nil {
		return nil, fmt.Errorf("fuzz: server close tenant: %s", werr.Message)
	}
	for si := range sc.Subs {
		id, ok := ids[si]
		if !ok {
			continue
		}
		res, _, werr := srv.Results(tenant, id)
		if werr != nil {
			return nil, fmt.Errorf("fuzz: server drain sub %d: %s", si, werr.Message)
		}
		results[si] = res
	}
	out.Results = results
	return out, nil
}
