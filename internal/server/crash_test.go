package server

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	cogra "repro"
	"repro/internal/snap"
)

// serveStream runs one tenant through srv: subscribe (unless the
// tenant was restored with subscription id), push events in batches,
// close, drain. It returns the drained result text.
func serveStream(t *testing.T, srv *Server, id int, subscribe bool, events []*cogra.Event, batch int) string {
	t.Helper()
	if subscribe {
		var werr *WireError
		if id, werr = srv.Subscribe("acme", testQuery, false); werr != nil {
			t.Fatal(werr)
		}
	}
	pushBatches(t, srv, events, batch)
	if werr := srv.CloseTenant("acme"); werr != nil {
		t.Fatal(werr)
	}
	rs, done, werr := srv.Results("acme", id)
	if werr != nil || !done {
		t.Fatalf("results: done=%v err=%v", done, werr)
	}
	return resultLines(rs)
}

func pushBatches(t *testing.T, srv *Server, events []*cogra.Event, batch int) {
	t.Helper()
	for i := 0; i < len(events); i += batch {
		if _, werr := srv.Ingest("acme", events[i:min(i+batch, len(events))]); werr != nil {
			t.Fatal(werr)
		}
	}
}

// logLines collects a server's log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

var checkpointedAt = regexp.MustCompile(`checkpointed to .* @ (\d+) events$`)

// positions lists the event counts of the logged checkpoints.
func (l *logLines) positions() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for _, line := range l.lines {
		if m := checkpointedAt.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			out = append(out, n)
		}
	}
	return out
}

// TestCadenceCheckpointSurvivesKill: a server with a checkpoint cadence
// checkpoints a tenant when an ingest request takes its event count
// across a multiple of CheckpointEvery, before it acknowledges that
// request. The checkpoint directory copied before any Drain is what a
// SIGKILL leaves; beside the frame lies a stale temp file, as a crash
// mid-write leaves one. A server booted on the copy resumes the tenant
// from the frame, and with the suffix from the frame's position pushed
// again its results equal an undisturbed server's. Events acknowledged
// after the frame are lost with the process, so the client re-sends
// them.
func TestCadenceCheckpointSurvivesKill(t *testing.T) {
	events := synthStream(900, 11)
	cases := []struct {
		name         string
		every, batch int
		pushed       int // events acknowledged before the kill
		at           int // the durable frame's position
		opts         []cogra.SessionOption
	}{
		// Batches end exactly on the multiples of the cadence.
		{name: "boundary", every: 300, batch: 100, pushed: 500, at: 300},
		// The batch [200,300) straddles 250: the frame holds the whole
		// request that crossed it.
		{name: "straddle", every: 250, batch: 100, pushed: 400, at: 300,
			opts: []cogra.SessionOption{cogra.WithWorkers(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			undisturbed, err := New(Config{Shards: 2, SessionOptions: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			defer undisturbed.Drain()
			want := serveStream(t, undisturbed, 0, true, events, tc.batch)
			if want == "" {
				t.Fatal("the undisturbed run emits nothing; the comparison is vacuous")
			}

			dir := t.TempDir()
			var log logLines
			srv, err := New(Config{Shards: 2, SessionOptions: tc.opts,
				CheckpointDir: dir, CheckpointEvery: tc.every, Logf: log.logf})
			if err != nil {
				t.Fatal(err)
			}
			id, werr := srv.Subscribe("acme", testQuery, false)
			if werr != nil {
				t.Fatal(werr)
			}
			pushBatches(t, srv, events[:tc.pushed], tc.batch)
			if got := log.positions(); len(got) != 1 || got[0] != tc.at {
				t.Fatalf("checkpoints logged at %v, want [%d]", got, tc.at)
			}

			// The kill: copy the directory, then leave the server behind.
			crashed := t.TempDir()
			frame := hex.EncodeToString([]byte("acme")) + ".snap"
			raw, err := os.ReadFile(filepath.Join(dir, frame))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashed, frame), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashed, frame+snap.TempSuffix), []byte("COGRASNP torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			srv.Drain()

			restarted, err := New(Config{Shards: 2, CheckpointDir: crashed})
			if err != nil {
				t.Fatalf("boot on the durable frame beside a stale temp file: %v", err)
			}
			defer restarted.Drain()
			if got := serveStream(t, restarted, id, false, events[tc.at:], tc.batch); got != want {
				t.Errorf("restore + suffix differs from the undisturbed run\nrecovered:\n%s\nundisturbed:\n%s", got, want)
			}
		})
	}
}

// TestCheckpointEveryNeedsDir: a cadence without a directory to write
// to, or a negative one, is refused at New.
func TestCheckpointEveryNeedsDir(t *testing.T) {
	for _, cfg := range []Config{
		{CheckpointEvery: 100},
		{CheckpointEvery: -1, CheckpointDir: t.TempDir()},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
			t.Errorf("New(%+v) = %v, want a refusal naming -checkpoint-dir", cfg, err)
		}
	}
}

// TestClosedTenantStaysClosed: a tenant closed after a cadence
// checkpoint is not brought back, open and at the checkpoint's
// position, by the next boot on the directory.
func TestClosedTenantStaysClosed(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{CheckpointDir: dir, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	serveStream(t, srv, 0, true, synthStream(300, 5), 100)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	restarted, err := New(Config{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Drain()
	if _, _, werr := restarted.Results("acme", 0); werr == nil || werr.Code != CodeNotHosted {
		t.Fatalf("closed tenant after a restart: %v, want %s", werr, CodeNotHosted)
	}
}

// TestCadenceCountsRefusedBatchPrefix: a batch refused part-way leaves
// the session holding the prefix before the offending event, and the
// cadence's count takes that prefix in, so later checkpoints log the
// number of events the session holds.
func TestCadenceCountsRefusedBatchPrefix(t *testing.T) {
	var log logLines
	srv, err := New(Config{CheckpointDir: t.TempDir(), CheckpointEvery: 10, Logf: log.logf,
		SessionOptions: []cogra.SessionOption{cogra.WithSlack(0), cogra.WithLatePolicy(cogra.RejectLate)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if _, werr := srv.Subscribe("acme", testQuery, false); werr != nil {
		t.Fatal(werr)
	}
	var batch []*cogra.Event
	for tm := int64(1); tm <= 8; tm++ {
		batch = append(batch, cogra.NewEvent("A", tm))
	}
	batch = append(batch, cogra.NewEvent("A", 0)) // late: the session holds 8
	if _, werr := srv.Ingest("acme", batch); werr == nil || werr.Code != CodeLateEvent || werr.Accepted != -1 {
		t.Fatalf("the late batch: %+v, want %s with Accepted -1", werr, CodeLateEvent)
	}
	var rest []*cogra.Event
	for tm := int64(9); tm <= 20; tm++ {
		rest = append(rest, cogra.NewEvent("A", tm))
	}
	if _, werr := srv.Ingest("acme", rest); werr != nil {
		t.Fatal(werr)
	}
	if got := log.positions(); len(got) != 1 || got[0] != 20 {
		t.Fatalf("checkpoints logged at %v, want [20]", got)
	}
}

// TestBootKeepsCheckpointConfig: a checkpoint restores the session it
// was taken from, whatever the booting server's session options. A
// tenant checkpointed on 2 workers boots on 2 under a server configured
// for 1 or for 4, and with the suffix pushed its results equal an
// undisturbed server's; a tenant created after the boot takes the
// server's options.
func TestBootKeepsCheckpointConfig(t *testing.T) {
	events := synthStream(800, 7)
	const cut, batch = 400, 100
	two := []cogra.SessionOption{cogra.WithWorkers(2)}
	undisturbed, err := New(Config{Shards: 2, SessionOptions: two})
	if err != nil {
		t.Fatal(err)
	}
	defer undisturbed.Drain()
	want := serveStream(t, undisturbed, 0, true, events, batch)
	if want == "" {
		t.Fatal("the undisturbed run emits nothing; the comparison is vacuous")
	}

	dir := t.TempDir()
	srv, err := New(Config{Shards: 2, SessionOptions: two, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, werr := srv.Subscribe("acme", testQuery, false)
	if werr != nil {
		t.Fatal(werr)
	}
	pushBatches(t, srv, events[:cut], batch)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	frame := hex.EncodeToString([]byte("acme")) + ".snap"
	raw, err := os.ReadFile(filepath.Join(dir, frame))
	if err != nil {
		t.Fatal(err)
	}

	workersOf := func(srv *Server, tenant string) int {
		t.Helper()
		st, ok := srv.tenant(tenant, false).statsSnapshot()
		if !ok {
			t.Fatalf("tenant %q has no session", tenant)
		}
		return st.Workers
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers %d", workers), func(t *testing.T) {
			boot := t.TempDir()
			if err := os.WriteFile(filepath.Join(boot, frame), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			restarted, err := New(Config{Shards: 2, CheckpointDir: boot,
				SessionOptions: []cogra.SessionOption{cogra.WithWorkers(workers)}})
			if err != nil {
				t.Fatalf("boot with %d workers on a 2-worker checkpoint: %v", workers, err)
			}
			defer restarted.Drain()
			if got := workersOf(restarted, "acme"); got != 2 {
				t.Errorf("restored tenant runs %d workers, its checkpoint 2", got)
			}
			if _, werr := restarted.Ingest("globex", events[:1]); werr != nil {
				t.Fatal(werr)
			}
			if got := workersOf(restarted, "globex"); got != workers {
				t.Errorf("new tenant runs %d workers, the server's options %d", got, workers)
			}
			if got := serveStream(t, restarted, id, false, events[cut:], batch); got != want {
				t.Errorf("restore + suffix differs from the undisturbed run\nrecovered:\n%s\nundisturbed:\n%s", got, want)
			}
		})
	}
}
