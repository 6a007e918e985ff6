package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	cogra "repro"
)

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

const testQuery = `RETURN COUNT(*) PATTERN SEQ(A+, B) WHERE [k] GROUP-BY k WITHIN 50 SLIDE 50`

// synthStream builds a deterministic per-seed stream: A/B/C events
// with a grouping symbol and a numeric attribute.
func synthStream(n int, seed int64) []*cogra.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]*cogra.Event, n)
	for i := range events {
		typ := [3]string{"A", "B", "C"}[rng.Intn(3)]
		e := cogra.NewEvent(typ, int64(i+1))
		e.ID = int64(i + 1)
		e.WithSym("k", [2]string{"g", "h"}[rng.Intn(2)])
		e.WithNum("x", float64(rng.Intn(100)))
		events[i] = e
	}
	return events
}

// soloLines is the embedded-Session reference: subscribe the queries,
// push the whole stream, close, drain — one text blob per query,
// rendered exactly the way the wire's "text" field is.
func soloLines(t *testing.T, queries []string, events []*cogra.Event, opts ...cogra.SessionOption) []string {
	t.Helper()
	sess := cogra.NewSession(opts...)
	subs := make([]*cogra.Subscription, len(queries))
	for i, q := range queries {
		sub, err := sess.Subscribe(cogra.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if err := sess.PushBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(subs))
	for i, sub := range subs {
		out[i] = resultLines(sub.Drain())
	}
	return out
}

func resultLines(rs []cogra.Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func wireLines(rs []WireResult) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

// --- HTTP client helpers against an httptest server ---

type testClient struct {
	t    *testing.T
	base string
}

// do sends a request and decodes the JSON reply into out; non-2xx
// replies come back as the decoded wire error (sentinel-matchable).
func (c *testClient) do(method, path string, body, out any) error {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		var werr WireError
		if json.Unmarshal(raw, &werr) != nil || werr.Code == "" {
			c.t.Fatalf("%s %s: http %d with unparseable body %q", method, path, resp.StatusCode, raw)
		}
		if got := HTTPStatus(werr.Code); got != resp.StatusCode {
			c.t.Fatalf("%s %s: code %q served under %d, mapped to %d", method, path, werr.Code, resp.StatusCode, got)
		}
		return DecodeWireError(&werr)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		c.t.Fatalf("%s %s: bad reply %q: %v", method, path, raw, err)
	}
	return nil
}

func (c *testClient) subscribe(tenant, query string) (int, error) {
	var reply struct {
		ID int `json:"id"`
	}
	err := c.do("POST", "/v1/"+tenant+"/queries", map[string]string{"query": query}, &reply)
	return reply.ID, err
}

func (c *testClient) push(tenant string, events []*cogra.Event) (int, error) {
	wire := make([]WireEvent, len(events))
	for i, e := range events {
		wire[i] = ToWireEvent(e)
	}
	var reply struct {
		Accepted int `json:"accepted"`
	}
	err := c.do("POST", "/v1/"+tenant+"/events", map[string]any{"events": wire}, &reply)
	return reply.Accepted, err
}

func (c *testClient) results(tenant string, id int) ([]WireResult, bool, error) {
	var reply struct {
		Results []WireResult `json:"results"`
		Done    bool         `json:"done"`
	}
	err := c.do("GET", fmt.Sprintf("/v1/%s/results?id=%d", tenant, id), nil, &reply)
	return reply.Results, reply.Done, err
}

func (c *testClient) closeTenant(tenant string) error {
	return c.do("POST", "/v1/"+tenant+"/close", nil, nil)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &testClient{t: t, base: ts.URL}, ts
}

// TestServerHTTPDifferential: results streamed over HTTP for several
// tenants are byte-identical to each tenant's embedded solo Session
// run — including with a mid-stream incremental fetch, which must not
// perturb the remainder.
func TestServerHTTPDifferential(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Shards: 2})
	tenants := []string{"acme", "globex", "initech"}
	for ti, tenant := range tenants {
		events := synthStream(600, int64(ti+1))
		want := soloLines(t, []string{testQuery}, events)[0]

		id, err := c.subscribe(tenant, testQuery)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for i := 0; i < len(events); i += 100 {
			if n, err := c.push(tenant, events[i:i+100]); err != nil || n != 100 {
				t.Fatalf("push: (%d, %v)", n, err)
			}
			if i == 200 {
				// Incremental mid-stream fetch: whatever is available now.
				rs, done, err := c.results(tenant, id)
				if err != nil || done {
					t.Fatalf("mid-stream results: done=%v err=%v", done, err)
				}
				got.WriteString(wireLines(rs))
			}
		}
		if err := c.closeTenant(tenant); err != nil {
			t.Fatal(err)
		}
		rs, done, err := c.results(tenant, id)
		if err != nil || !done {
			t.Fatalf("final results: done=%v err=%v", done, err)
		}
		got.WriteString(wireLines(rs))
		if got.String() != want {
			t.Errorf("tenant %q: served results differ from the solo session\nserved:\n%s\nsolo:\n%s", tenant, got.String(), want)
		}
	}
}

// TestServerDrainRestoreDifferential: part of the stream before a
// drain+checkpoint+restart, the rest after — the concatenation of the
// results fetched across both server lives is byte-identical to one
// solo run of the full stream. Results fetched before the drain are
// consumed (not replayed); results pending at the drain survive inside
// the checkpoint.
func TestServerDrainRestoreDifferential(t *testing.T) {
	dir := t.TempDir()
	events := synthStream(800, 42)
	want := soloLines(t, []string{testQuery}, events)[0]

	srv1, c1, ts1 := newTestServer(t, Config{Shards: 3, CheckpointDir: dir})
	id, err := c1.subscribe("acme", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	live := listQueries(t, c1, "acme")
	if len(live) != 1 {
		t.Fatalf("live listing: %+v, want query %d", live, id)
	}
	if _, err := c1.push("acme", events[:300]); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	rs, done, err := c1.results("acme", id)
	if err != nil || done {
		t.Fatalf("pre-drain results: done=%v err=%v", done, err)
	}
	got.WriteString(wireLines(rs))
	if len(rs) == 0 {
		t.Fatal("pre-drain fetch drained nothing; the consumed-results leg is vacuous")
	}
	// Push more WITHOUT fetching: these results must ride the
	// checkpoint into the next server life.
	if _, err := c1.push("acme", events[300:500]); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.push("acme", events[500:510]); !errors.As(err, new(*WireError)) {
		t.Fatalf("ingest after drain: %v, want a draining wire error", err)
	}
	ts1.Close()

	srv2, c2, _ := newTestServer(t, Config{Shards: 3, CheckpointDir: dir})
	defer srv2.Drain()
	// The listing renders the plan's query text, so a query lists the
	// same text in both server lives, and that text parses back to
	// itself.
	restored := listQueries(t, c2, "acme")
	if len(restored) != 1 || restored[0].ID != id {
		t.Fatalf("restored listing: %+v, want query %d", restored, id)
	}
	if restored[0] != live[0] {
		t.Errorf("query %d lists %q after the restart, %q before", id, restored[0].Query, live[0].Query)
	}
	text := restored[0].Query
	if q, err := cogra.Parse(text); err != nil {
		t.Fatalf("restored query lists unparseable text %q: %v", text, err)
	} else if q.String() != text {
		t.Errorf("restored query %q re-renders as %q", text, q.String())
	}
	if _, err := c2.push("acme", events[500:]); err != nil {
		t.Fatal(err)
	}
	if err := c2.closeTenant("acme"); err != nil {
		t.Fatal(err)
	}
	rs, done, err = c2.results("acme", id)
	if err != nil || !done {
		t.Fatalf("post-restore results: done=%v err=%v", done, err)
	}
	got.WriteString(wireLines(rs))
	if got.String() != want {
		t.Errorf("results across drain+restore differ from one solo run\nserved:\n%s\nsolo:\n%s", got.String(), want)
	}
}

// TestSubscribeRefusesDeepNesting: a query nested far past the
// parser's bound — a request body of parentheses, well under the body
// cap — is a 400, and the server keeps serving.
func TestSubscribeRefusesDeepNesting(t *testing.T) {
	_, c, ts := newTestServer(t, Config{})
	const levels = 1 << 20
	deep := "RETURN COUNT(*) PATTERN " + strings.Repeat("(", levels) + "A" + strings.Repeat(")", levels) + "+ WITHIN 10 SLIDE 10"
	var werr *WireError
	if _, err := c.subscribe("acme", deep); !errors.As(err, &werr) || werr.Code != CodeBadRequest {
		t.Fatalf("deeply nested query: %v, want a %s wire error", err, CodeBadRequest)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusal: http %d", resp.StatusCode)
	}
	if _, err := c.subscribe("acme", testQuery); err != nil {
		t.Fatalf("subscribe after the refusal: %v", err)
	}
}

// listedQuery is one entry of a tenant's query listing.
type listedQuery struct {
	ID    int    `json:"id"`
	Query string `json:"query"`
}

// listQueries fetches a tenant's query listing.
func listQueries(t *testing.T, c *testClient, tenant string) []listedQuery {
	t.Helper()
	var listed struct {
		Queries []listedQuery `json:"queries"`
	}
	if err := c.do("GET", "/v1/"+tenant+"/queries", nil, &listed); err != nil {
		t.Fatal(err)
	}
	return listed.Queries
}

// TestServerQuotas: every server-side quota rejects with the
// backpressure code — the same sentinel a depth-capped session uses.
func TestServerQuotas(t *testing.T) {
	t.Run("max batch", func(t *testing.T) {
		_, c, _ := newTestServer(t, Config{MaxBatch: 10})
		if _, err := c.push("acme", synthStream(11, 1)); !errors.Is(err, cogra.ErrBackpressure) {
			t.Fatalf("oversized batch: %v, want ErrBackpressure", err)
		}
		if _, err := c.push("acme", synthStream(10, 1)); err != nil {
			t.Fatalf("batch at the cap: %v", err)
		}
	})
	t.Run("ingest rate", func(t *testing.T) {
		// The bucket holds one second's worth, at least 1024 events.
		_, c, _ := newTestServer(t, Config{IngestRate: 1})
		events := synthStream(1025, 2)
		if _, err := c.push("acme", events[:1024]); err != nil {
			t.Fatalf("burst: %v", err)
		}
		if _, err := c.push("acme", events[1024:]); !errors.Is(err, cogra.ErrBackpressure) {
			t.Fatalf("over quota: %v, want ErrBackpressure", err)
		}
	})
	t.Run("max queries", func(t *testing.T) {
		_, c, _ := newTestServer(t, Config{MaxQueriesPerTenant: 1})
		if _, err := c.subscribe("acme", testQuery); err != nil {
			t.Fatal(err)
		}
		if _, err := c.subscribe("acme", testQuery); !errors.Is(err, cogra.ErrBackpressure) {
			t.Fatalf("over query cap: %v, want ErrBackpressure", err)
		}
		// Another tenant is unaffected.
		if _, err := c.subscribe("globex", testQuery); err != nil {
			t.Fatalf("other tenant hit acme's cap: %v", err)
		}
	})
}

// TestServerErrorCodes: the typed sentinels travel the wire — a client
// using errors.Is sees exactly what an embedded caller would.
func TestServerErrorCodes(t *testing.T) {
	_, c, _ := newTestServer(t, Config{
		SessionOptions: []cogra.SessionOption{cogra.WithSlack(0), cogra.WithLatePolicy(cogra.RejectLate)},
	})
	if _, err := c.subscribe("acme", "GARBAGE !!"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, _, err := c.results("nobody", 0); !errors.Is(err, cogra.ErrNotHosted) {
		t.Fatalf("unknown tenant: %v, want ErrNotHosted", err)
	}
	if _, err := c.subscribe("acme", testQuery); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.results("acme", 99); !errors.Is(err, cogra.ErrNotHosted) {
		t.Fatalf("unknown query id: %v, want ErrNotHosted", err)
	}
	// A late event under RejectLate is the session's own sentinel.
	if _, err := c.push("acme", []*cogra.Event{cogra.NewEvent("A", 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.push("acme", []*cogra.Event{cogra.NewEvent("A", 5)}); !errors.Is(err, cogra.ErrLateEvent) {
		t.Fatalf("late event: %v, want ErrLateEvent", err)
	}
	// A closed tenant refuses events with the closed sentinel.
	if err := c.closeTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.push("acme", []*cogra.Event{cogra.NewEvent("A", 101)}); !errors.Is(err, cogra.ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	if err := c.closeTenant("acme"); !errors.Is(err, cogra.ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

// TestHTTPIngestRejects: every malformed ingest body answers 400
// bad_request, ingests nothing and registers no tenant — including
// trailing bytes, which the encoding/json route silently dropped, and a
// body over the cap, which it truncated — and the tenant's next valid
// push still lands.
func TestHTTPIngestRejects(t *testing.T) {
	srv, c, ts := newTestServer(t, Config{})
	valid := `{"events":[{"time":1,"type":"A","sym":{"k":"g"}}]}`
	bodies := map[string]string{
		"bad syntax":         `{"events":[{"time":1,}]}`,
		"truncated":          `{"events":[{"time":1}`,
		"empty":              ``,
		"unknown field":      `{"events":[{"time":1,"tenant":"x"}]}`,
		"unknown top field":  `{"events":[],"more":1}`,
		"fractional time":    `{"events":[{"time":1.5}]}`,
		"exponent time":      `{"events":[{"time":1e3}]}`,
		"overflowing time":   `{"events":[{"time":9223372036854775808}]}`,
		"trailing bytes":     valid + ` garbage`,
		"two batches":        valid + valid,
		"events not array":   `{"events":{"time":1}}`,
		"event not object":   `{"events":[1]}`,
		"body not object":    `[` + valid + `]`,
		"sym value number":   `{"events":[{"sym":{"k":1}}]}`,
		"num value string":   `{"events":[{"num":{"x":"1"}}]}`,
		"invalid escape":     `{"events":[{"type":"\q"}]}`,
		"control in string":  "{\"events\":[{\"type\":\"a\nb\"}]}",
		"float out of range": `{"events":[{"num":{"x":1e999}}]}`,
	}
	wantBadRequest := func(name string, status int, raw []byte) {
		t.Helper()
		var werr WireError
		if status != http.StatusBadRequest || json.Unmarshal(raw, &werr) != nil || werr.Code != CodeBadRequest {
			t.Errorf("%s: http %d %s, want 400 %s", name, status, raw, CodeBadRequest)
		}
	}
	for name, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/acme/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantBadRequest(name, resp.StatusCode, raw)
	}
	// A declared length over the cap is refused before a byte is read,
	// on both routes that take a body, naming the cap.
	for _, path := range []string{"/v1/acme/events", "/v1/acme/queries"} {
		req := httptest.NewRequest("POST", path, strings.NewReader(valid))
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		wantBadRequest(path+" over the cap", rec.Code, rec.Body.Bytes())
		if !strings.Contains(rec.Body.String(), "64 MiB") {
			t.Errorf("%s over the cap: %s does not name the 64 MiB cap", path, rec.Body)
		}
	}
	if n := srv.ingested.Load(); n != 0 {
		t.Fatalf("rejected bodies ingested %d events", n)
	}
	if names := srv.tenantNames(); len(names) != 0 {
		t.Fatalf("rejected bodies registered tenants %q", names)
	}
	// The next valid push lands, with a length and without one.
	if n, err := c.push("acme", synthStream(3, 1)); err != nil || n != 3 {
		t.Fatalf("valid push after rejections: (%d, %v)", n, err)
	}
	resp, err := http.Post(ts.URL+"/v1/acme/events", "application/json", io.MultiReader(strings.NewReader(
		`{"events":[{"time":10,"type":"A"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(bytes.TrimSpace(raw)) != `{"accepted":1}` {
		t.Fatalf("chunked push: http %d %s", resp.StatusCode, raw)
	}
	if n := srv.ingested.Load(); n != 4 {
		t.Fatalf("ingested %d events, want 4", n)
	}
}

// allocatedBytes reports what f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIngestBodyAllocatesWhatArrives: a body declaring the whole 64 MiB
// cap but ending after a few bytes is rejected having reserved no more
// than bodyReserve — memory follows the bytes sent, not the header.
func TestIngestBodyAllocatesWhatArrives(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	rec := httptest.NewRecorder()
	got := allocatedBytes(func() {
		req := httptest.NewRequest("POST", "/v1/acme/events", io.MultiReader(
			strings.NewReader(`{"events":[`), iotest.ErrReader(io.ErrUnexpectedEOF)))
		req.ContentLength = maxBodyBytes
		h.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected EOF") {
		t.Fatalf("short body: http %d %s", rec.Code, rec.Body)
	}
	if got > 2*bodyReserve {
		t.Errorf("a short body declaring %d bytes allocated %d bytes, want at most %d", maxBodyBytes, got, 2*bodyReserve)
	}
}

// TestServerSSE: the streaming results endpoint delivers the same
// bytes as the solo run, ending with a done event once the tenant
// closes.
func TestServerSSE(t *testing.T) {
	_, c, ts := newTestServer(t, Config{})
	events := synthStream(400, 7)
	want := soloLines(t, []string{testQuery}, events)[0]

	id, err := c.subscribe("acme", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/acme/results?id=%d&follow=sse", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string, 1)
	go func() {
		defer close(lines)
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if event == "done" {
					lines <- b.String()
					return
				}
				var r WireResult
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &r); err != nil {
					lines <- "unmarshal error: " + err.Error()
					return
				}
				b.WriteString(r.Text)
				b.WriteByte('\n')
			}
		}
		lines <- "stream ended without a done event: " + sc.Err().Error()
	}()

	for i := 0; i < len(events); i += 50 {
		if _, err := c.push("acme", events[i:i+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.closeTenant("acme"); err != nil {
		t.Fatal(err)
	}
	got := <-lines
	if got != want {
		t.Errorf("SSE stream differs from the solo session\nserved:\n%s\nsolo:\n%s", got, want)
	}
}

// TestServerTCPIngestDifferential: the framed-TCP bulk path feeds the
// same sessions the HTTP path does; results are fetched over HTTP and
// must match the solo run. Typed rejections surface through the binary
// protocol sentinel-matchable.
func TestServerTCPIngestDifferential(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{MaxBatch: 256})
	ln := newLocalListener(t)
	go srv.ServeTCP(ln)
	defer ln.Close()

	events := synthStream(500, 9)
	want := soloLines(t, []string{testQuery}, events)[0]
	id, err := c.subscribe("acme", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < len(events); i += 100 {
		if n, err := conn.Push("acme", events[i:i+100]); err != nil || n != 100 {
			t.Fatalf("tcp push: (%d, %v)", n, err)
		}
	}
	// A quota rejection travels the binary protocol as its sentinel.
	if _, err := conn.Push("acme", synthStream(257, 1)); !errors.Is(err, cogra.ErrBackpressure) {
		t.Fatalf("oversized tcp batch: %v, want ErrBackpressure", err)
	}
	// ...and the connection survives it.
	if err := c.closeTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Push("acme", events[:1]); !errors.Is(err, cogra.ErrClosed) {
		t.Fatalf("tcp push after close: %v, want ErrClosed", err)
	}
	rs, done, err := c.results("acme", id)
	if err != nil || !done {
		t.Fatalf("results: done=%v err=%v", done, err)
	}
	if got := wireLines(rs); got != want {
		t.Errorf("tcp-fed results differ from the solo session\nserved:\n%s\nsolo:\n%s", got, want)
	}
}

// TestServerMetrics pins the whole Prometheus scrape for one tenant,
// line for line: the per-tenant gauges are formatted straight from
// cogra.SessionStats, and served_tenants (benchmarks/) reads
// peak_state_bytes out of this text. Only the uptime value varies.
func TestServerMetrics(t *testing.T) {
	_, c, ts := newTestServer(t, Config{})
	if _, err := c.subscribe("acme", testQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.push("acme", synthStream(100, 3)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	got := regexp.MustCompile(`(?m)^cograd_uptime_seconds .*$`).ReplaceAllString(string(raw), "cograd_uptime_seconds X")
	if got != wantMetrics {
		t.Errorf("metrics body moved\ngot:\n%s\nwant:\n%s", got, wantMetrics)
	}
}

const wantMetrics = `# HELP cograd_uptime_seconds Seconds since the server started.
# TYPE cograd_uptime_seconds gauge
cograd_uptime_seconds X
# HELP cograd_draining Whether the server is draining (1) or serving (0).
# TYPE cograd_draining gauge
cograd_draining 0
# HELP cograd_tenants Hosted tenants.
# TYPE cograd_tenants gauge
cograd_tenants 1
# HELP cograd_http_requests_total HTTP requests served.
# TYPE cograd_http_requests_total counter
cograd_http_requests_total 3
# HELP cograd_tcp_frames_total Framed-TCP ingest frames received.
# TYPE cograd_tcp_frames_total counter
cograd_tcp_frames_total 0
# HELP cograd_ingested_events_total Events accepted across all tenants.
# TYPE cograd_ingested_events_total counter
cograd_ingested_events_total 100
# HELP cograd_quota_rejections_total Requests refused by a server-side quota.
# TYPE cograd_quota_rejections_total counter
cograd_quota_rejections_total 0
# HELP cograd_tenant_events_total Events the tenant's session accepted.
# TYPE cograd_tenant_events_total gauge
cograd_tenant_events_total{tenant="acme"} 100
# HELP cograd_tenant_queries Active subscriptions.
# TYPE cograd_tenant_queries gauge
cograd_tenant_queries{tenant="acme"} 1
# HELP cograd_tenant_workers Session worker count.
# TYPE cograd_tenant_workers gauge
cograd_tenant_workers{tenant="acme"} 1
# HELP cograd_tenant_skipped_total Events the session could not route.
# TYPE cograd_tenant_skipped_total gauge
cograd_tenant_skipped_total{tenant="acme"} 0
# HELP cograd_tenant_late_dropped_total Late events dropped by the slack policy.
# TYPE cograd_tenant_late_dropped_total gauge
cograd_tenant_late_dropped_total{tenant="acme"} 0
# HELP cograd_tenant_reorder_shed_total Events shed by the reorder depth cap.
# TYPE cograd_tenant_reorder_shed_total gauge
cograd_tenant_reorder_shed_total{tenant="acme"} 0
# HELP cograd_tenant_peak_bytes Peak logical memory of the session.
# TYPE cograd_tenant_peak_bytes gauge
cograd_tenant_peak_bytes{tenant="acme"} 224
# HELP cograd_tenant_ingest_rate Events/s between the last two scrapes.
# TYPE cograd_tenant_ingest_rate gauge
cograd_tenant_ingest_rate{tenant="acme"} 0
# HELP cograd_tenant_shared_groups Sharing groups whose host engine serves more than one query.
# TYPE cograd_tenant_shared_groups gauge
cograd_tenant_shared_groups{tenant="acme"} 0
# HELP cograd_tenant_share_flips_total Sharing-group host handovers taken (a host replaced at a window boundary by one over a grown RETURN union).
# TYPE cograd_tenant_share_flips_total gauge
cograd_tenant_share_flips_total{tenant="acme"} 0
# HELP cograd_tenant_shared_saved_ops_total Estimated per-event aggregation passes saved by sharing.
# TYPE cograd_tenant_shared_saved_ops_total gauge
cograd_tenant_shared_saved_ops_total{tenant="acme"} 0
# HELP cograd_tenant_watermark Stream position: time stamp of the last dispatched event.
# TYPE cograd_tenant_watermark gauge
cograd_tenant_watermark{tenant="acme"} 100
`

// TestServerDrainRefusals: after Drain every mutating surface refuses
// with the draining code and Drain is idempotent.
func TestServerDrainRefusals(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{})
	if _, err := c.subscribe("acme", testQuery); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal("second drain errored")
	}
	if _, err := c.push("acme", synthStream(1, 1)); err == nil {
		t.Fatal("ingest accepted while draining")
	}
	if _, err := c.subscribe("globex", testQuery); err == nil {
		t.Fatal("subscribe accepted while draining")
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

// TestShardForStaysInRange: FNV-1a hashes of tenant names reach 2^31
// and above ("tenant-a" hashes to 2,469,604,731), where a hash
// converted to int before the modulo goes negative on a 32-bit build.
// Every such name must land on a shard of the pool, at the index the
// unsigned hash picks on any build.
func TestShardForStaysInRange(t *testing.T) {
	for _, shards := range []int{1, 3, 4, 7} {
		srv, err := New(Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		high := 0
		for i := range 256 {
			name := fmt.Sprintf("tenant-%c", 'a'+i%26) + strings.Repeat("x", i/26)
			h := fnv.New32a()
			h.Write([]byte(name))
			if h.Sum32() < 1<<31 {
				continue
			}
			high++
			if got, want := srv.shardFor(name).id, int(uint64(h.Sum32())%uint64(shards)); got != want {
				t.Errorf("%d shards: %q (hash %d) lands on shard %d, want %d", shards, name, h.Sum32(), got, want)
			}
		}
		if high == 0 {
			t.Fatal("no name hashes to 2^31 or above; the test is vacuous")
		}
	}
}
