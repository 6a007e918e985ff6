package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cogra "repro"
	"repro/internal/snap"
)

// Config shapes a Server. The zero value serves: 4 shards, no quotas,
// no checkpointing.
type Config struct {
	// Shards is the session-shard pool size: tenants are
	// consistent-hashed across this many single-goroutine shard
	// domains (<= 0: 4). More shards means more ingest parallelism
	// across tenants; a tenant always stays on one shard.
	Shards int
	// SessionOptions configure every freshly created tenant session
	// (workers, slack, ... — typically from sessionflags). A tenant
	// restored from CheckpointDir keeps the configuration its
	// checkpoint was taken under.
	SessionOptions []cogra.SessionOption
	// CheckpointDir, when set, makes Drain snapshot every tenant
	// session into it (one file per tenant, written atomically), and
	// New restore every tenant found in it.
	CheckpointDir string
	// CheckpointEvery > 0 (with CheckpointDir) also snapshots a tenant
	// whenever an ingest request takes the count of events it has
	// accepted since its session was created or restored across a
	// multiple of CheckpointEvery — on the shard goroutine, before the
	// request is acknowledged. A SIGKILL then loses at most the events
	// acknowledged since the last such multiple.
	CheckpointEvery int
	// MaxBatch caps the events one ingest request may carry
	// (0: unlimited). Exceeding it is a backpressure rejection.
	MaxBatch int
	// MaxQueriesPerTenant caps the active subscriptions of one tenant
	// (0: unlimited). Exceeding it is a backpressure rejection.
	MaxQueriesPerTenant int
	// IngestRate caps each tenant's sustained ingest in events/second
	// via a token bucket (0: unlimited) that holds one second's worth
	// of events, at least 1024. Beyond the bucket, ingest is a
	// backpressure rejection — the client backs off and retries,
	// exactly like a depth-capped reorder buffer.
	IngestRate float64
	// Logf receives operational log lines (nil: silent).
	Logf func(format string, args ...any)
}

// Server hosts tenant sessions across a shard pool and implements the
// HTTP and framed-TCP surfaces. Create with New, serve with Handler /
// ServeTCP, stop with Drain.
type Server struct {
	cfg      Config
	shards   []*shard
	draining atomic.Bool

	tmu     sync.RWMutex
	tenants map[string]*tenant

	// Counters exported on /metrics.
	ingested    atomic.Int64 // events accepted across all tenants
	quotaDenied atomic.Int64 // requests refused by a server-side quota
	httpReqs    atomic.Int64
	tcpFrames   atomic.Int64
	started     time.Time
}

// New builds a server and, when cfg.CheckpointDir is set, restores
// every tenant checkpoint found there (written by a previous Drain).
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.CheckpointEvery < 0 || (cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "") {
		return nil, fmt.Errorf("-checkpoint-every %d needs a positive count and a -checkpoint-dir", cfg.CheckpointEvery)
	}
	s := &Server{cfg: cfg, tenants: make(map[string]*tenant), started: time.Now()}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{id: i, cmds: make(chan func(), 64), stopped: make(chan struct{})}
	}
	if cfg.CheckpointDir != "" {
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// shardFor consistent-hashes a tenant onto its shard: FNV-1a over the
// tenant name, so the mapping is stable across restarts as long as the
// pool size is.
func (s *Server) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// tenant returns the tenant record, creating it when create is set.
// The record is bookkeeping only (quota bucket, result pulse); the
// session inside it is created lazily on the shard goroutine.
func (s *Server) tenant(name string, create bool) *tenant {
	s.tmu.RLock()
	t := s.tenants[name]
	s.tmu.RUnlock()
	if t != nil || !create {
		return t
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if t = s.tenants[name]; t == nil {
		t = newTenant(name)
		s.tenants[name] = t
	}
	return t
}

// tenantNames returns a stable snapshot of the registry for metrics.
func (s *Server) tenantNames() []string {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		out = append(out, name)
	}
	return out
}

// shard is one goroutine domain of the pool. Every operation on the
// sessions it owns executes as a closure on its goroutine, making the
// shard the "feeding goroutine" the Session contract requires; the
// goroutine starts lazily with the shard's first operation.
type shard struct {
	id      int
	cmds    chan func()
	stopped chan struct{}
	start   sync.Once

	// lmu serialises senders against stop: do() sends holding the read
	// side, stop flips stopping under the write side — after which no
	// sender can be mid-send, so closing cmds is safe.
	lmu      sync.RWMutex
	stopping bool
}

func (sh *shard) run() {
	for fn := range sh.cmds {
		fn()
	}
	close(sh.stopped)
}

// errDraining is the operation-level rejection after Drain started.
var errDraining = fmt.Errorf("cograd: server is draining")

// enqueue submits fn to the shard goroutine without waiting. Closures
// enqueued by one goroutine run in submission order — the per-tenant
// ordering guarantee pipelined ingest relies on.
func (sh *shard) enqueue(fn func()) error {
	sh.start.Do(func() { go sh.run() })
	sh.lmu.RLock()
	if sh.stopping {
		sh.lmu.RUnlock()
		return errDraining
	}
	sh.cmds <- fn
	sh.lmu.RUnlock()
	return nil
}

// do executes fn on the shard goroutine and waits for it.
func (sh *shard) do(fn func()) error {
	done := make(chan struct{})
	if err := sh.enqueue(func() {
		defer close(done)
		fn()
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// stop runs final as the shard's last operation, after everything
// already queued, then stops the goroutine. Idempotent-unsafe: callers
// (Drain) invoke it once.
func (sh *shard) stop(final func()) {
	sh.start.Do(func() { go sh.run() })
	sh.lmu.Lock()
	sh.stopping = true
	sh.lmu.Unlock()
	sh.cmds <- final
	close(sh.cmds)
	<-sh.stopped
}

// tenant is one tenant's server-side state. The session and subs map
// are owned by the tenant's shard goroutine; sess is additionally
// readable under mu for metrics (Session.Stats is shard-safe by the
// session's own contract).
type tenant struct {
	name string

	mu     sync.RWMutex
	sess   *cogra.Session
	subs   map[int]*cogra.Subscription
	closed bool

	// accepted counts the events the session ingested since it was
	// created or restored — a refused batch's ingested prefix too: the
	// checkpoint cadence's clock. Shard goroutine only.
	accepted int64

	// pulse is closed and replaced whenever results may have become
	// available (ingest, unsubscribe, close), waking streaming result
	// watchers without polling.
	pmu   sync.Mutex
	pulse chan struct{}

	bucket tokenBucket

	// jsonDec decodes the tenant's HTTP ingest bodies. It holds only its
	// intern tables (built on first use), which persist across requests
	// the way a TCP connection's Decoder persists across frames.
	jsonMu  sync.Mutex
	jsonDec Decoder

	// Scrape-to-scrape ingest-rate scratch, owned by /metrics.
	rateMu     sync.Mutex
	rateEvents int64
	rateWhen   time.Time
}

func newTenant(name string) *tenant {
	return &tenant{name: name, subs: make(map[int]*cogra.Subscription), pulse: make(chan struct{})}
}

func (t *tenant) bump() {
	t.pmu.Lock()
	close(t.pulse)
	t.pulse = make(chan struct{})
	t.pmu.Unlock()
}

// wait returns the channel that closes at the next bump.
func (t *tenant) wait() <-chan struct{} {
	t.pmu.Lock()
	ch := t.pulse
	t.pmu.Unlock()
	return ch
}

// session returns the tenant's session, creating it on first use with
// the server's session options. Shard goroutine only.
func (t *tenant) session(s *Server) (*cogra.Session, error) {
	if t.closed {
		return nil, fmt.Errorf("cograd: tenant %q: session closed: %w", t.name, cogra.ErrClosed)
	}
	if t.sess == nil {
		sess := cogra.NewSession(s.cfg.SessionOptions...)
		t.mu.Lock()
		t.sess = sess
		t.mu.Unlock()
		s.cfg.Logf("cograd: tenant %q: session created on shard %d", t.name, s.shardFor(t.name).id)
	}
	return t.sess, nil
}

// statsSnapshot reads the session stats from any goroutine; ok is
// false while the tenant has no session yet.
func (t *tenant) statsSnapshot() (cogra.SessionStats, bool) {
	t.mu.RLock()
	sess := t.sess
	t.mu.RUnlock()
	if sess == nil {
		return cogra.SessionStats{}, false
	}
	st, err := sess.Stats()
	if err != nil {
		return cogra.SessionStats{}, false
	}
	return st, true
}

// tokenBucket is the per-tenant ingest-rate quota.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take refills by elapsed wall time and withdraws n tokens; false
// means the quota is exhausted and nothing was withdrawn. The bucket
// holds one second's worth of events, at least 1024.
func (b *tokenBucket) take(n int, rate float64, now time.Time) bool {
	if rate <= 0 {
		return true
	}
	burst := max(rate, 1024)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens = min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
	}
	b.last = now
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// Ingest pushes a batch of events into a tenant's session — the one
// ingest core behind both the HTTP and the framed-TCP path. It returns
// the number of accepted events and, on failure, the typed wire error
// (Accepted -1 on a partial batch failure: the session ingested the
// prefix before the offending event, but only the error text names it).
func (s *Server) Ingest(tenantName string, events []*cogra.Event) (int, *WireError) {
	r := <-s.IngestAsync(tenantName, events)
	return r.Accepted, r.Err
}

// IngestResult is the outcome of one IngestAsync batch.
type IngestResult struct {
	Accepted int
	Err      *WireError
}

// IngestAsync validates quotas, enqueues the push on the tenant's shard
// without waiting for it, and delivers the outcome on the returned
// channel (buffered; never blocks the shard). Batches enqueued by one
// goroutine keep their order per tenant — consecutive calls for the
// same tenant land on the same shard's FIFO — while batches for tenants
// on different shards run in parallel. This is what lets one pipelined
// TCP connection spread its load across the whole shard pool.
func (s *Server) IngestAsync(tenantName string, events []*cogra.Event) <-chan IngestResult {
	rc := make(chan IngestResult, 1)
	if s.draining.Load() {
		rc <- IngestResult{Err: &WireError{Code: CodeDraining, Message: "server is draining"}}
		return rc
	}
	if s.cfg.MaxBatch > 0 && len(events) > s.cfg.MaxBatch {
		s.quotaDenied.Add(1)
		rc <- IngestResult{Err: EncodeError(fmt.Errorf("cograd: batch of %d events exceeds the %d-event cap: %w",
			len(events), s.cfg.MaxBatch, cogra.ErrBackpressure))}
		return rc
	}
	t := s.tenant(tenantName, true)
	if !t.bucket.take(len(events), s.cfg.IngestRate, time.Now()) {
		s.quotaDenied.Add(1)
		rc <- IngestResult{Err: EncodeError(fmt.Errorf("cograd: tenant %q over its %g events/s ingest quota: %w",
			tenantName, s.cfg.IngestRate, cogra.ErrBackpressure))}
		return rc
	}
	err := s.shardFor(tenantName).enqueue(func() {
		sess, serr := t.session(s)
		if serr != nil {
			rc <- IngestResult{Err: EncodeError(serr)}
			return
		}
		// A batch refused part-way still leaves the session holding
		// its prefix, which the cadence's count must include.
		perr := sess.PushBatch(events)
		took := len(events)
		if perr != nil {
			took = 0
			var be *cogra.BatchError
			if errors.As(perr, &be) {
				took = be.Ingested
			}
		}
		s.ingested.Add(int64(took))
		before := t.accepted
		t.accepted += int64(took)
		if n := int64(s.cfg.CheckpointEvery); n > 0 && t.accepted/n != before/n {
			// The events stay accepted either way; a failed write only
			// leaves the previous frame as the durable one.
			if err := s.checkpointTenant(t); err != nil {
				s.cfg.Logf("cograd: checkpoint failed: %v", err)
			}
		}
		if took > 0 {
			t.bump()
		}
		if perr != nil {
			werr := EncodeError(perr)
			werr.Accepted = -1
			rc <- IngestResult{Err: werr}
			return
		}
		rc <- IngestResult{Accepted: len(events)}
	})
	if err != nil {
		rc <- IngestResult{Err: &WireError{Code: CodeDraining, Message: err.Error()}}
	}
	return rc
}

// Subscribe attaches a query to a tenant (creating its session on
// first contact) and returns the subscription id.
func (s *Server) Subscribe(tenantName, queryText string, strict bool) (int, *WireError) {
	if s.draining.Load() {
		return 0, &WireError{Code: CodeDraining, Message: "server is draining"}
	}
	q, err := cogra.Parse(queryText)
	if err != nil {
		return 0, &WireError{Code: CodeBadRequest, Message: err.Error()}
	}
	t := s.tenant(tenantName, true)
	var werr *WireError
	id := -1
	derr := s.shardFor(tenantName).do(func() {
		if s.cfg.MaxQueriesPerTenant > 0 && len(activeSubs(t)) >= s.cfg.MaxQueriesPerTenant {
			s.quotaDenied.Add(1)
			werr = EncodeError(fmt.Errorf("cograd: tenant %q at its %d-query cap: %w",
				tenantName, s.cfg.MaxQueriesPerTenant, cogra.ErrBackpressure))
			return
		}
		sess, serr := t.session(s)
		if serr != nil {
			werr = EncodeError(serr)
			return
		}
		var opts []cogra.SubscribeOption
		if strict {
			opts = append(opts, cogra.StrictRouting())
		}
		sub, serr := sess.Subscribe(q, opts...)
		if serr != nil {
			werr = EncodeError(serr)
			return
		}
		id = sub.ID()
		t.mu.Lock()
		t.subs[id] = sub
		t.mu.Unlock()
	})
	if derr != nil {
		return 0, &WireError{Code: CodeDraining, Message: derr.Error()}
	}
	if werr != nil {
		return 0, werr
	}
	return id, nil
}

// activeSubs snapshots a tenant's live subscriptions. Shard goroutine
// or metrics (read lock).
func activeSubs(t *tenant) []*cogra.Subscription {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*cogra.Subscription, 0, len(t.subs))
	for _, sub := range t.subs {
		out = append(out, sub)
	}
	return out
}

// Unsubscribe detaches a tenant's query and returns the results its
// window flush produced (plus anything still undelivered).
func (s *Server) Unsubscribe(tenantName string, id int) ([]cogra.Result, *WireError) {
	t := s.tenant(tenantName, false)
	if t == nil {
		return nil, &WireError{Code: CodeNotHosted, Message: fmt.Sprintf("unknown tenant %q", tenantName)}
	}
	var werr *WireError
	var out []cogra.Result
	derr := s.shardFor(tenantName).do(func() {
		t.mu.RLock()
		sub := t.subs[id]
		t.mu.RUnlock()
		if sub == nil {
			werr = &WireError{Code: CodeNotHosted, Message: fmt.Sprintf("tenant %q hosts no query %d", tenantName, id)}
			return
		}
		if !sub.Active() {
			// Already detached by a session Close: nothing to flush,
			// just hand over the buffered results and forget the id.
			out = sub.Drain()
		} else {
			out = sub.Unsubscribe()
			if sub.Active() {
				// The detach itself was rejected; the subscription stays.
				werr = EncodeError(sub.Err())
				return
			}
		}
		t.mu.Lock()
		delete(t.subs, id)
		t.mu.Unlock()
	})
	if derr != nil {
		return nil, &WireError{Code: CodeDraining, Message: derr.Error()}
	}
	if werr != nil {
		return nil, werr
	}
	t.bump()
	return out, nil
}

// Results drains the subscription's available results (windows closed
// by the advancing watermark; everything once the session is closed).
// done reports that no further results can ever arrive (unsubscribed
// or session closed) — the signal for a streaming watcher to end.
func (s *Server) Results(tenantName string, id int) (out []cogra.Result, done bool, werr *WireError) {
	t := s.tenant(tenantName, false)
	if t == nil {
		return nil, false, &WireError{Code: CodeNotHosted, Message: fmt.Sprintf("unknown tenant %q", tenantName)}
	}
	derr := s.shardFor(tenantName).do(func() {
		t.mu.RLock()
		sub := t.subs[id]
		closed := t.closed
		t.mu.RUnlock()
		if sub == nil {
			werr = &WireError{Code: CodeNotHosted, Message: fmt.Sprintf("tenant %q hosts no query %d", tenantName, id)}
			return
		}
		out = sub.Drain()
		if err := sub.Err(); err != nil && len(out) == 0 {
			werr = EncodeError(err)
			return
		}
		done = closed || !sub.Active()
	})
	if derr != nil {
		return nil, true, &WireError{Code: CodeDraining, Message: derr.Error()}
	}
	return out, done, werr
}

// CloseTenant ends a tenant's stream: the session flushes its open
// windows into the subscriptions' buffers (drainable via Results until
// the server stops) and refuses further events with CodeClosed. Its
// checkpoint, if any, is deleted: a restart does not bring it back.
func (s *Server) CloseTenant(tenantName string) *WireError {
	t := s.tenant(tenantName, false)
	if t == nil {
		return &WireError{Code: CodeNotHosted, Message: fmt.Sprintf("unknown tenant %q", tenantName)}
	}
	var werr *WireError
	derr := s.shardFor(tenantName).do(func() {
		if t.sess == nil || t.closed {
			werr = &WireError{Code: CodeClosed, Message: fmt.Sprintf("tenant %q has no open session", tenantName)}
			return
		}
		if err := t.sess.Close(); err != nil {
			werr = EncodeError(err)
			return
		}
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		if s.cfg.CheckpointDir != "" {
			// A closed stream has nothing to resume: its last frame
			// would bring it back open, at an older position, at boot.
			if err := os.Remove(s.checkpointFile(t.name)); err != nil && !os.IsNotExist(err) {
				s.cfg.Logf("cograd: tenant %q: %v", t.name, err)
			}
		}
	})
	if derr != nil {
		return &WireError{Code: CodeDraining, Message: derr.Error()}
	}
	if werr == nil {
		t.bump()
	}
	return werr
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: new work is refused with
// CodeDraining, every queued shard operation completes (the consistent
// cut — in-flight batches land fully before the cut), and, when a
// checkpoint directory is configured, every open tenant session is
// snapshotted into it atomically. Result watchers are woken so streams
// can end. Drain does not close un-checkpointed sessions' windows: a
// drain is a pause, not an end of stream, and a restore resumes
// mid-window byte-identically.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	var firstErr error
	for _, sh := range s.shards {
		sh.stop(func() {
			for _, name := range s.tenantNames() {
				t := s.tenant(name, false)
				if t == nil || s.shardFor(name) != sh || t.sess == nil || t.closed {
					continue
				}
				if s.cfg.CheckpointDir != "" {
					if err := s.checkpointTenant(t); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
		})
	}
	// Wake every streaming watcher so it observes the drain and ends.
	for _, name := range s.tenantNames() {
		if t := s.tenant(name, false); t != nil {
			t.bump()
		}
	}
	s.cfg.Logf("cograd: drained (%d tenants)", len(s.tenantNames()))
	return firstErr
}

// checkpointFile maps a tenant name to its snapshot path: hex keeps
// arbitrary tenant names filesystem-safe and decodable at boot.
func (s *Server) checkpointFile(tenant string) string {
	return filepath.Join(s.cfg.CheckpointDir, hex.EncodeToString([]byte(tenant))+".snap")
}

// checkpointTenant snapshots one session atomically: a crash mid-write
// leaves the previous checkpoint intact. Shard goroutine only.
func (s *Server) checkpointTenant(t *tenant) error {
	path := s.checkpointFile(t.name)
	if err := snap.WriteFileAtomic(path, t.sess.Snapshot); err != nil {
		return fmt.Errorf("checkpoint tenant %q: %w", t.name, err)
	}
	s.cfg.Logf("cograd: tenant %q checkpointed to %s @ %d events", t.name, path, t.accepted)
	return nil
}

// restoreAll resumes every tenant checkpoint in the configured
// directory, on each tenant's owning shard. Stale temp files from a
// crash mid-checkpoint are skipped (they are truncated by
// construction); a corrupt durable checkpoint fails the boot — serving
// with silently lost tenant state is worse than not starting.
func (s *Server) restoreAll() error {
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return os.MkdirAll(s.cfg.CheckpointDir, 0o755)
		}
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".snap"))
		if err != nil {
			return fmt.Errorf("checkpoint dir holds undecodable file %q: %w", name, err)
		}
		tenantName := string(raw)
		t := s.tenant(tenantName, true)
		var rerr error
		s.shardFor(tenantName).do(func() {
			f, err := os.Open(filepath.Join(s.cfg.CheckpointDir, name))
			if err != nil {
				rerr = err
				return
			}
			defer f.Close()
			sess, err := cogra.Restore(f)
			if err != nil {
				rerr = fmt.Errorf("restore tenant %q: %w", tenantName, err)
				return
			}
			t.mu.Lock()
			t.sess = sess
			for _, sub := range sess.Subscriptions() {
				if sub.Active() {
					t.subs[sub.ID()] = sub
				}
			}
			t.mu.Unlock()
		})
		if rerr != nil {
			return rerr
		}
		s.cfg.Logf("cograd: tenant %q restored from %s", tenantName, name)
	}
	return nil
}
