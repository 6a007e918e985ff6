package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	cogra "repro"
)

// HTTP surface:
//
//	POST   /v1/{tenant}/events        body {"events":[...]}    → {"accepted":n}
//	POST   /v1/{tenant}/queries       body {"query":"RETURN …"} → {"id":n}
//	GET    /v1/{tenant}/queries                                 → {"queries":[...]}
//	DELETE /v1/{tenant}/queries/{id}                            → {"results":[...]}
//	GET    /v1/{tenant}/results?id=n                            → {"results":[...],"done":bool}
//	GET    /v1/{tenant}/results?id=n&follow=sse                 → SSE stream
//	POST   /v1/{tenant}/close                                   → {}
//	GET    /metrics                                             → Prometheus text
//	GET    /healthz                                             → ok | draining
//
// Every error is a WireError JSON body under its mapped HTTP status.

// maxBodyBytes bounds request bodies; a batch larger than this belongs
// on the framed-TCP path anyway.
const maxBodyBytes = 64 << 20

// subscribeRequest is the query-subscribe body.
type subscribeRequest struct {
	Query  string `json:"query"`
	Strict bool   `json:"strict,omitempty"`
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/events", s.handleIngest)
	mux.HandleFunc("POST /v1/{tenant}/queries", s.handleSubscribe)
	mux.HandleFunc("GET /v1/{tenant}/queries", s.handleListQueries)
	mux.HandleFunc("DELETE /v1/{tenant}/queries/{id}", s.handleUnsubscribe)
	mux.HandleFunc("GET /v1/{tenant}/results", s.handleResults)
	mux.HandleFunc("POST /v1/{tenant}/close", s.handleCloseTenant)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpReqs.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// writeJSON serves v as a JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeWireError serves a typed error body under its mapped status.
func writeWireError(w http.ResponseWriter, werr *WireError) {
	writeJSON(w, HTTPStatus(werr.Code), werr)
}

// tooLarge names the cap a refused request body exceeds.
var tooLarge = fmt.Sprintf("bad request body: larger than the %d MiB cap", maxBodyBytes>>20)

// bodyReserve is the most readBody sets aside before bytes arrive: a
// declared Content-Length is only a claim, so memory follows what the
// client actually sends.
const bodyReserve = 256 << 10

// readBody reads a whole request body into one buffer, which a body
// that keeps its Content-Length and fits in bodyReserve fills in one
// allocation. A body over maxBodyBytes is refused, never truncated.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *WireError) {
	if r.ContentLength > maxBodyBytes {
		return nil, &WireError{Code: CodeBadRequest, Message: tooLarge}
	}
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength+1, bodyReserve) // +1: room to read EOF
	}
	body := make([]byte, 0, size)
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if errors.As(err, new(*http.MaxBytesError)) {
			return nil, &WireError{Code: CodeBadRequest, Message: tooLarge}
		}
		if err != nil {
			return nil, &WireError{Code: CodeBadRequest, Message: "bad request body: " + err.Error()}
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)] // let append pick the growth
		}
	}
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *WireError {
	body, werr := readBody(w, r)
	if werr != nil {
		return werr
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &WireError{Code: CodeBadRequest, Message: "bad request body: " + err.Error()}
	}
	return nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, werr := readBody(w, r)
	if werr != nil {
		writeWireError(w, werr)
		return
	}
	name := r.PathValue("tenant")
	events, err := s.decodeJSONIngest(name, body)
	if err != nil {
		writeWireError(w, &WireError{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	accepted, werr := s.Ingest(name, events)
	if werr != nil {
		writeWireError(w, werr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// decodeJSONIngest decodes through the tenant's own Decoder: cograd and
// embedders each run their own http.Server, so the tenant, not the
// connection, is what a body's attribute maps repeat across. A tenant
// not yet registered borrows a fresh Decoder, so a body that fails to
// decode never registers one; Ingest does, once a batch is accepted.
func (s *Server) decodeJSONIngest(name string, body []byte) ([]*cogra.Event, error) {
	t := s.tenant(name, false)
	if t == nil {
		return new(Decoder).DecodeJSONIngest(body)
	}
	t.jsonMu.Lock()
	defer t.jsonMu.Unlock()
	return t.jsonDec.DecodeJSONIngest(body)
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	if werr := decodeBody(w, r, &req); werr != nil {
		writeWireError(w, werr)
		return
	}
	id, werr := s.Subscribe(r.PathValue("tenant"), req.Query, req.Strict)
	if werr != nil {
		writeWireError(w, werr)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r.PathValue("tenant"), false)
	type wireQuery struct {
		ID    int    `json:"id"`
		Query string `json:"query"`
	}
	queries := []wireQuery{}
	if t != nil {
		for _, sub := range activeSubs(t) {
			queries = append(queries, wireQuery{ID: sub.ID(), Query: sub.Plan().Text()})
		}
	}
	// Map iteration shuffled them; serve in id order.
	for i := 1; i < len(queries); i++ {
		for j := i; j > 0 && queries[j-1].ID > queries[j].ID; j-- {
			queries[j-1], queries[j] = queries[j], queries[j-1]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": queries})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		writeWireError(w, &WireError{Code: CodeBadRequest, Message: "bad query id"})
		return
	}
	results, werr := s.Unsubscribe(r.PathValue("tenant"), id)
	if werr != nil {
		writeWireError(w, werr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": toWireResults(results)})
}

func toWireResults(rs []cogra.Result) []WireResult {
	out := make([]WireResult, len(rs))
	for i, r := range rs {
		out[i] = ToWireResult(r)
	}
	return out
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	var id int
	if _, err := fmt.Sscanf(r.URL.Query().Get("id"), "%d", &id); err != nil {
		writeWireError(w, &WireError{Code: CodeBadRequest, Message: "results needs an ?id=<query id>"})
		return
	}
	tenant := r.PathValue("tenant")
	if r.URL.Query().Get("follow") == "sse" {
		s.streamResults(w, r, tenant, id)
		return
	}
	results, done, werr := s.Results(tenant, id)
	if werr != nil {
		writeWireError(w, werr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": toWireResults(results), "done": done})
}

// streamResults serves results as Server-Sent Events: one "result"
// event per result (data = the WireResult JSON), then one final "done"
// event when the subscription can produce no more — or when the server
// drains, so a restarted server can pick the stream back up. Waiting is
// pulse-driven, not polled: ingest, unsubscribe, close and drain all
// wake the watcher.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, tenant string, id int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeWireError(w, &WireError{Code: CodeInternal, Message: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: the client unblocks on them, and the
	// first result may be a long wait away.
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		// Grab the wait channel BEFORE draining: a pulse that fires
		// between the drain and the wait is then never lost.
		var wake <-chan struct{}
		if t := s.tenant(tenant, false); t != nil {
			wake = t.wait()
		}
		results, done, werr := s.Results(tenant, id)
		if werr != nil {
			fmt.Fprintf(w, "event: error\ndata: ")
			enc.Encode(werr)
			fmt.Fprint(w, "\n")
			fl.Flush()
			return
		}
		for i := range results {
			fmt.Fprint(w, "event: result\ndata: ")
			enc.Encode(ToWireResult(results[i]))
			fmt.Fprint(w, "\n")
		}
		if len(results) > 0 {
			fl.Flush()
		}
		if done || s.draining.Load() {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
			fl.Flush()
			return
		}
		if wake == nil {
			// Tenant vanished between Results and here — impossible
			// today (tenants are never deleted), but fail closed.
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCloseTenant(w http.ResponseWriter, r *http.Request) {
	if werr := s.CloseTenant(r.PathValue("tenant")); werr != nil {
		writeWireError(w, werr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
