package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	cogra "repro"
)

// tenantScript is the deterministic op sequence one churn tenant
// drives: subscribe both queries, push the stream in batches with
// interleaved incremental drains, unsubscribe one query mid-stream,
// close, final drain. The SAME script replayed against a solo embedded
// Session defines the expected bytes — the server's concurrency (other
// tenants churning on the same shards, metrics scrapes in flight) must
// not leak into any tenant's results.
type tenantScript struct {
	events   []*cogra.Event
	batch    int
	drainAt  map[int]bool // batch indices followed by an incremental drain
	unsubAt  int          // batch index after which query 1 is unsubscribed
	queries  []string
	unsubbed int // which query id to unsubscribe
}

func makeScript(seed int64) tenantScript {
	rng := rand.New(rand.NewSource(seed))
	nBatches := 8 + rng.Intn(5)
	batch := 40 + rng.Intn(40)
	s := tenantScript{
		events:  synthStream(nBatches*batch, seed),
		batch:   batch,
		drainAt: map[int]bool{},
		queries: []string{
			testQuery,
			`RETURN COUNT(*), MAX(A.x) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 30 SLIDE 30`,
		},
		unsubAt:  2 + rng.Intn(nBatches-3),
		unsubbed: rng.Intn(2),
	}
	for i := 0; i < nBatches; i++ {
		if rng.Intn(3) == 0 {
			s.drainAt[i] = true
		}
	}
	return s
}

// runScriptServer drives the script against the shared server and
// returns the per-query concatenated result text in op order.
func runScriptServer(t *testing.T, c *testClient, tenant string, s tenantScript) []string {
	t.Helper()
	ids := make([]int, len(s.queries))
	for i, q := range s.queries {
		id, err := c.subscribe(tenant, q)
		if err != nil {
			t.Error(err)
			return nil
		}
		ids[i] = id
	}
	out := make([]strings.Builder, len(s.queries))
	for b := 0; b*s.batch < len(s.events); b++ {
		if _, err := c.push(tenant, s.events[b*s.batch:(b+1)*s.batch]); err != nil {
			t.Error(err)
			return nil
		}
		if s.drainAt[b] {
			for qi := range ids {
				if qi == s.unsubbed && b >= s.unsubAt {
					continue
				}
				rs, _, err := c.results(tenant, ids[qi])
				if err != nil {
					t.Error(err)
					return nil
				}
				out[qi].WriteString(wireLines(rs))
			}
		}
		if b == s.unsubAt {
			var reply struct {
				Results []WireResult `json:"results"`
			}
			if err := c.do("DELETE", "/v1/"+tenant+"/queries/"+itoa(ids[s.unsubbed]), nil, &reply); err != nil {
				t.Error(err)
				return nil
			}
			out[s.unsubbed].WriteString(wireLines(reply.Results))
		}
	}
	if err := c.closeTenant(tenant); err != nil {
		t.Error(err)
		return nil
	}
	for qi := range ids {
		if qi == s.unsubbed {
			continue
		}
		rs, done, err := c.results(tenant, ids[qi])
		if err != nil || !done {
			t.Errorf("final drain: done=%v err=%v", done, err)
			return nil
		}
		out[qi].WriteString(wireLines(rs))
	}
	lines := make([]string, len(out))
	for i := range out {
		lines[i] = out[i].String()
	}
	return lines
}

// runScriptSolo replays the same script on an embedded Session.
func runScriptSolo(t *testing.T, s tenantScript) []string {
	t.Helper()
	sess := cogra.NewSession()
	subs := make([]*cogra.Subscription, len(s.queries))
	for i, q := range s.queries {
		sub, err := sess.Subscribe(cogra.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	out := make([]strings.Builder, len(s.queries))
	for b := 0; b*s.batch < len(s.events); b++ {
		if err := sess.PushBatch(s.events[b*s.batch : (b+1)*s.batch]); err != nil {
			t.Fatal(err)
		}
		if s.drainAt[b] {
			for qi, sub := range subs {
				if qi == s.unsubbed && b >= s.unsubAt {
					continue
				}
				out[qi].WriteString(resultLines(sub.Drain()))
			}
		}
		if b == s.unsubAt {
			out[s.unsubbed].WriteString(resultLines(subs[s.unsubbed].Unsubscribe()))
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for qi, sub := range subs {
		if qi == s.unsubbed {
			continue
		}
		out[qi].WriteString(resultLines(sub.Drain()))
	}
	lines := make([]string, len(out))
	for i := range out {
		lines[i] = out[i].String()
	}
	return lines
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMultiTenantChurn: many tenants churn concurrently on a small
// shard pool — subscribing, pushing, draining incrementally,
// unsubscribing mid-stream, closing — while /metrics is scraped the
// whole time. Every tenant's result stream must be byte-identical to
// its solo embedded replay: tenants share shard goroutines and the
// process, but never state. Run under -race this is also the data-race
// proof for the shard/pulse/metrics synchronization.
func TestMultiTenantChurn(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{Shards: 3})
	_ = srv

	const nTenants = 8
	scripts := make([]tenantScript, nTenants)
	for i := range scripts {
		scripts[i] = makeScript(int64(1000 + i))
	}

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	served := make([][]string, nTenants)
	var wg sync.WaitGroup
	for i := 0; i < nTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &testClient{t: t, base: ts.URL}
			served[i] = runScriptServer(t, c, "tenant-"+itoa(i), scripts[i])
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if t.Failed() {
		return
	}

	for i := 0; i < nTenants; i++ {
		want := runScriptSolo(t, scripts[i])
		for qi := range want {
			if served[i][qi] != want[qi] {
				t.Errorf("tenant %d query %d: served results diverge from the solo replay\nserved:\n%s\nsolo:\n%s",
					i, qi, served[i][qi], want[qi])
			}
		}
	}
}

// TestChurnHandlerConcurrency is a compile-time-ish guard that the
// handler is safe to share: the churn test above drives it through a
// real httptest server; this one hits the raw handler from several
// goroutines without a network in between, which the race detector
// sees with less noise. Every goroutine also posts JSON batches to one
// shared tenant, whose Decoder interns what the others decode and whose
// shard reads the maps it hands out.
func TestChurnHandlerConcurrency(t *testing.T) {
	srv, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := srv.Subscribe("shared", testQuery, false); werr != nil {
		t.Fatal(werr)
	}
	h := srv.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-goroutine events: a WithSlack session stamps IDs in
			// place, so sharing one slice across tenants would race.
			events := synthStream(500, 5)
			tenant := "t" + itoa(i)
			if _, werr := srv.Subscribe(tenant, testQuery, false); werr != nil {
				t.Error(werr)
				return
			}
			for j := 0; j < 10; j++ {
				if _, werr := srv.Ingest(tenant, events[j*50:(j+1)*50]); werr != nil {
					t.Error(werr)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("metrics: %d", rec.Code)
					return
				}
				// One time stamp for every shared event, so the posts may
				// land in any order; the sections repeat across goroutines.
				body := fmt.Sprintf(`{"events":[{"time":1,"type":"A","sym":{"k":"g%d"},"num":{"x":%d}}]}`, j%3, i)
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shared/events", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("json ingest: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := srv.ingested.Load(); n != 4*(500+10) {
		t.Errorf("ingested %d events, want %d", n, 4*(500+10))
	}
}
