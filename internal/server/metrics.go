package server

import (
	"fmt"
	"net/http"
	"sort"
	"time"
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
	type gauge struct {
		name, help string
		val        func(st sessionStatsRow) float64
	}
	rows := make([]sessionStatsRow, 0, len(names))
	for _, name := range names {
		t := s.tenant(name, false)
		if t == nil {
			continue
		}
		st, ok := t.statsSnapshot()
		if !ok {
			continue
		}
		row := sessionStatsRow{name: name, events: st.Events, queries: st.Queries,
			workers: st.Workers, skipped: st.Skipped, late: st.LateDropped,
			shed: st.ReorderShed, peak: st.PeakBytes, watermark: st.Watermark,
			wmValid: st.WatermarkValid, sharedGroups: st.SharedGroups,
			shareFlips: st.ShareFlips, sharedSaved: st.SharedSavedOps}
		// events/s from scrape-to-scrape deltas, owned by this handler.
		t.rateMu.Lock()
		if !t.rateWhen.IsZero() {
			if dt := now.Sub(t.rateWhen).Seconds(); dt > 0 {
				row.rate = float64(st.Events-t.rateEvents) / dt
			}
		}
		t.rateEvents, t.rateWhen = st.Events, now
		t.rateMu.Unlock()
		rows = append(rows, row)
	}
	gauges := []gauge{
		{"cograd_tenant_events_total", "Events the tenant's session accepted.", func(r sessionStatsRow) float64 { return float64(r.events) }},
		{"cograd_tenant_queries", "Active subscriptions.", func(r sessionStatsRow) float64 { return float64(r.queries) }},
		{"cograd_tenant_workers", "Session worker count.", func(r sessionStatsRow) float64 { return float64(r.workers) }},
		{"cograd_tenant_skipped_total", "Events the session could not route.", func(r sessionStatsRow) float64 { return float64(r.skipped) }},
		{"cograd_tenant_late_dropped_total", "Late events dropped by the slack policy.", func(r sessionStatsRow) float64 { return float64(r.late) }},
		{"cograd_tenant_reorder_shed_total", "Events shed by the reorder depth cap.", func(r sessionStatsRow) float64 { return float64(r.shed) }},
		{"cograd_tenant_peak_bytes", "Peak logical memory of the session.", func(r sessionStatsRow) float64 { return float64(r.peak) }},
		{"cograd_tenant_ingest_rate", "Events/s between the last two scrapes.", func(r sessionStatsRow) float64 { return r.rate }},
		{"cograd_tenant_shared_groups", "Sharing groups whose host engine serves more than one query.", func(r sessionStatsRow) float64 { return float64(r.sharedGroups) }},
		{"cograd_tenant_share_flips_total", "Sharing-group host handovers taken (a host replaced at a window boundary by one over a grown RETURN union).", func(r sessionStatsRow) float64 { return float64(r.shareFlips) }},
		{"cograd_tenant_shared_saved_ops_total", "Estimated per-event aggregation passes saved by sharing.", func(r sessionStatsRow) float64 { return float64(r.sharedSaved) }},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, row := range rows {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", g.name, row.name, g.val(row))
		}
	}
	// Watermark only for tenants that have dispatched an event — a
	// zero would be indistinguishable from a real time stamp 0.
	fmt.Fprint(w, "# HELP cograd_tenant_watermark Stream position: time stamp of the last dispatched event.\n# TYPE cograd_tenant_watermark gauge\n")
	for _, row := range rows {
		if row.wmValid {
			fmt.Fprintf(w, "cograd_tenant_watermark{tenant=%q} %d\n", row.name, row.watermark)
		}
	}
}

// sessionStatsRow is the per-tenant scrape snapshot metrics.go formats.
type sessionStatsRow struct {
	name         string
	events       int64
	queries      int
	workers      int
	skipped      int64
	late         int64
	shed         int64
	peak         int64
	watermark    int64
	wmValid      bool
	rate         float64
	sharedGroups int
	shareFlips   int64
	sharedSaved  int64
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
