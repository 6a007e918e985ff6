package server

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	cogra "repro"
)

// handleMetrics serves Prometheus text-format metrics: server-wide
// counters plus a per-tenant block scraped live from each session's
// Stats() — the shard-safe snapshot the Session contract guarantees,
// so scraping never touches a shard goroutine and never blocks ingest.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	now := time.Now()

	names := s.tenantNames()
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP cograd_uptime_seconds Seconds since the server started.\n# TYPE cograd_uptime_seconds gauge\ncograd_uptime_seconds %g\n",
		now.Sub(s.started).Seconds())
	fmt.Fprintf(w, "# HELP cograd_draining Whether the server is draining (1) or serving (0).\n# TYPE cograd_draining gauge\ncograd_draining %d\n",
		b2i(s.draining.Load()))
	fmt.Fprintf(w, "# HELP cograd_tenants Hosted tenants.\n# TYPE cograd_tenants gauge\ncograd_tenants %d\n", len(names))
	fmt.Fprintf(w, "# HELP cograd_http_requests_total HTTP requests served.\n# TYPE cograd_http_requests_total counter\ncograd_http_requests_total %d\n",
		s.httpReqs.Load())
	fmt.Fprintf(w, "# HELP cograd_tcp_frames_total Framed-TCP ingest frames received.\n# TYPE cograd_tcp_frames_total counter\ncograd_tcp_frames_total %d\n",
		s.tcpFrames.Load())
	fmt.Fprintf(w, "# HELP cograd_ingested_events_total Events accepted across all tenants.\n# TYPE cograd_ingested_events_total counter\ncograd_ingested_events_total %d\n",
		s.ingested.Load())
	fmt.Fprintf(w, "# HELP cograd_quota_rejections_total Requests refused by a server-side quota.\n# TYPE cograd_quota_rejections_total counter\ncograd_quota_rejections_total %d\n",
		s.quotaDenied.Load())

	// Per-tenant session stats. HELP/TYPE headers once, then one
	// sample per tenant.
	type row struct {
		name string
		rate float64 // events/s between the last two scrapes
		cogra.SessionStats
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		t := s.tenant(name, false)
		if t == nil {
			continue
		}
		st, ok := t.statsSnapshot()
		if !ok {
			continue
		}
		tr := row{name: name, SessionStats: st}
		// events/s from scrape-to-scrape deltas, owned by this handler.
		t.rateMu.Lock()
		if !t.rateWhen.IsZero() {
			if dt := now.Sub(t.rateWhen).Seconds(); dt > 0 {
				tr.rate = float64(st.Events-t.rateEvents) / dt
			}
		}
		t.rateEvents, t.rateWhen = st.Events, now
		t.rateMu.Unlock()
		rows = append(rows, tr)
	}
	gauges := []struct {
		name, help string
		val        func(r row) float64
	}{
		{"cograd_tenant_events_total", "Events the tenant's session accepted.", func(r row) float64 { return float64(r.Events) }},
		{"cograd_tenant_queries", "Active subscriptions.", func(r row) float64 { return float64(r.Queries) }},
		{"cograd_tenant_workers", "Session worker count.", func(r row) float64 { return float64(r.Workers) }},
		{"cograd_tenant_skipped_total", "Events the session could not route.", func(r row) float64 { return float64(r.Skipped) }},
		{"cograd_tenant_late_dropped_total", "Late events dropped by the slack policy.", func(r row) float64 { return float64(r.LateDropped) }},
		{"cograd_tenant_reorder_shed_total", "Events shed by the reorder depth cap.", func(r row) float64 { return float64(r.ReorderShed) }},
		{"cograd_tenant_peak_bytes", "Peak logical memory of the session.", func(r row) float64 { return float64(r.PeakBytes) }},
		{"cograd_tenant_ingest_rate", "Events/s between the last two scrapes.", func(r row) float64 { return r.rate }},
		{"cograd_tenant_shared_groups", "Sharing groups whose host engine serves more than one query.", func(r row) float64 { return float64(r.SharedGroups) }},
		{"cograd_tenant_share_flips_total", "Sharing-group host handovers taken (a host replaced at a window boundary by one over a grown RETURN union).", func(r row) float64 { return float64(r.ShareFlips) }},
		{"cograd_tenant_shared_saved_ops_total", "Estimated per-event aggregation passes saved by sharing.", func(r row) float64 { return float64(r.SharedSavedOps) }},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, tr := range rows {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", g.name, tr.name, g.val(tr))
		}
	}
	// Watermark only for tenants that have dispatched an event — a
	// zero would be indistinguishable from a real time stamp 0.
	fmt.Fprint(w, "# HELP cograd_tenant_watermark Stream position: time stamp of the last dispatched event.\n# TYPE cograd_tenant_watermark gauge\n")
	for _, tr := range rows {
		if tr.WatermarkValid {
			fmt.Fprintf(w, "cograd_tenant_watermark{tenant=%q} %d\n", tr.name, tr.Watermark)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
