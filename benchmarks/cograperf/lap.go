package main

// Laps. A lap builds a fresh fleet, feeds it the whole pre-built input
// through the workload's real ingest path, observes every result, and
// tears the fleet down. The same lap code runs closed loop (no pacer:
// the next batch goes in as soon as the previous one returned) and
// open loop (a pacer releases each batch at its due time).

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	cogra "repro"
	"repro/internal/server"
)

// observer receives every result of a lap: it digests them for the
// comparison with the reference and, in the open loop, records how
// long after the due time of the current batch each became available.
type observer struct {
	sums  [][]qsum // [stream][query]
	total int64

	record bool
	due    time.Time
	lat    []time.Duration
}

func newObserver(in *input) *observer {
	o := &observer{sums: make([][]qsum, len(in.streams))}
	for i := range o.sums {
		o.sums[i] = make([]qsum, len(in.queries))
	}
	return o
}

// see takes one result of query qi on stream si, available at time at
// (zero: now).
func (o *observer) see(si, qi int, r *cogra.Result, at time.Time) {
	o.sums[si][qi].add(r)
	o.total++
	if o.record {
		if at.IsZero() {
			at = time.Now()
		}
		o.lat = append(o.lat, at.Sub(o.due))
	}
}

// mismatches counts the queries whose results differ from the
// reference after laps complete laps.
func (o *observer) mismatches(in *input, laps int) int {
	bad := 0
	for si, ref := range in.ref {
		for qi, want := range ref {
			got := o.sums[si][qi]
			if got.n != want.n*int64(laps) || got.h != want.h*uint64(laps) {
				bad++
			}
		}
	}
	return bad
}

type sink struct {
	o      *observer
	si, qi int
}

func (s *sink) Emit(r cogra.Result) { s.o.see(s.si, s.qi, &r, time.Time{}) }

// pacer releases batches on a fixed schedule. It spins up to each due
// time: time.Sleep wakes up to a millisecond late, which is the size of
// the latencies being measured. The spin yields on every turn, so the
// program's own goroutines (workers, shards, the collector) get the
// processor whenever they can run.
type pacer struct {
	start  time.Time
	period time.Duration
	n      int
	lag    []time.Duration // how late each batch was released
}

func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.n) * p.period)
	p.n++
	for time.Until(due) > 0 {
		runtime.Gosched()
	}
	p.lag = append(p.lag, time.Since(due))
	return due
}

// lapOpts are a lap's hooks; the zero value is a closed-loop lap that
// only counts.
type lapOpts struct {
	obs   *observer
	pace  *pacer
	limit int    // stop after this many batches (0: the whole input)
	probe func() // runs after every wl.probeEvery-th ingest call
	// onCall, when set, runs after each ingest call with the number of
	// events the call carried.
	onCall func(events int)
}

// lapInfo is what a lap learned from the fleet's own counters.
type lapInfo struct {
	events       int
	failed       int // events refused, dropped, shed or not acknowledged
	peakState    int64
	internBytes  int64
	reorderPeak  int
	lateDropped  int64
	sharedGroups int
	shareFlips   int64
	savedOps     int64
	snapshot     []byte // durable: the midpoint checkpoint
	snapshots    int
}

func (li *lapInfo) fromStats(st cogra.SessionStats) {
	li.peakState += st.PeakBytes
	li.internBytes += st.BindingInternBytes
	li.reorderPeak = max(li.reorderPeak, st.ReorderPeakDepth)
	li.lateDropped += st.LateDropped
	li.sharedGroups += st.SharedGroups
	li.shareFlips += st.ShareFlips
	li.savedOps += st.SharedSavedOps
	li.failed += int(st.LateDropped + st.ReorderShed + st.Skipped)
}

func runLap(in *input, o lapOpts) (lapInfo, error) {
	if o.obs == nil {
		o.obs = newObserver(in)
	}
	if o.limit == 0 {
		o.limit = in.batches()
	}
	switch in.wl.kind {
	case durable:
		return lapDurable(in, o)
	case served:
		return lapServed(in, o)
	}
	return lapEmbedded(in, o)
}

// batches is the number of ingest calls in one lap.
func (in *input) batches() int {
	if in.events != nil {
		return (len(in.events) + in.wl.batch - 1) / in.wl.batch
	}
	return len(in.frames)
}

// call wraps ingest call b with the pacer, the hook and the probe.
func (o *lapOpts) call(in *input, b, events int, fn func() error) error {
	if o.pace != nil {
		o.obs.due = o.pace.next()
	}
	err := fn()
	if o.onCall != nil {
		o.onCall(events)
	}
	if o.probe != nil && (b+1)%in.wl.probeEvery == 0 {
		o.probe()
	}
	return err
}

func lapEmbedded(in *input, o lapOpts) (lapInfo, error) {
	var info lapInfo
	sess := cogra.NewSession(in.wl.options(false)...)
	for qi, q := range in.queries {
		if _, err := sess.Subscribe(q, cogra.WithSink(&sink{o.obs, 0, qi})); err != nil {
			return info, err
		}
	}
	var dec server.Decoder
	for b := 0; b < o.limit; b++ {
		var n int
		err := o.call(in, b, in.wl.batch, func() error {
			events := in.events
			if events != nil {
				events = events[b*in.wl.batch : min((b+1)*in.wl.batch, len(events))]
			} else {
				var err error
				if _, events, err = dec.DecodeIngest(in.frames[b].data); err != nil {
					return err
				}
			}
			n = len(events)
			return sess.PushBatch(events)
		})
		if err != nil {
			return info, err
		}
		info.events += n
	}
	st, err := sess.Stats()
	if err != nil {
		return info, err
	}
	info.fromStats(st)
	return info, sess.Close()
}

func lapDurable(in *input, o lapOpts) (lapInfo, error) {
	var info lapInfo
	sess := cogra.NewSession(in.wl.options(false)...)
	defer func() { sess.Close() }() // stops the workers on error paths; a second Close only errors
	var subs []*cogra.Subscription
	for _, q := range in.queries {
		sub, err := sess.Subscribe(q)
		if err != nil {
			return info, err
		}
		subs = append(subs, sub)
	}
	drain := func() error {
		for qi, sub := range subs {
			for _, r := range sub.Drain() {
				o.obs.see(0, qi, &r, time.Time{})
			}
			if err := sub.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	var dec server.Decoder
	var ckpt bytes.Buffer
	for b := 0; b < o.limit; b++ {
		var n int
		err := o.call(in, b, in.wl.batch, func() error {
			_, events, err := dec.DecodeIngest(in.frames[b].data)
			if err != nil {
				return err
			}
			n = len(events)
			for _, e := range events {
				if err := sess.Push(e); err != nil {
					return err
				}
			}
			return drain()
		})
		if err != nil {
			return info, err
		}
		info.events += n
		if info.events%snapshotEvery != 0 {
			continue
		}
		ckpt.Reset()
		if err := sess.Snapshot(&ckpt); err != nil {
			return info, err
		}
		info.snapshots++
		if info.events != in.nEvents/2 {
			continue
		}
		// Recovery drill: carry on from the checkpoint. Everything the
		// old session made available was drained above, and what its
		// Close flushes belongs to windows the restored session still
		// holds open.
		info.snapshot = bytes.Clone(ckpt.Bytes())
		restored, err := cogra.Restore(bytes.NewReader(info.snapshot))
		if err != nil {
			return info, err
		}
		sess.Close()
		sess, subs = restored, restored.Subscriptions()
	}
	st, err := sess.Stats()
	if err != nil {
		return info, err
	}
	info.fromStats(st)
	if err := sess.Close(); err != nil {
		return info, err
	}
	return info, drain()
}

// servedFleet is an in-process cograd with its listeners and the two
// client connections of the one client goroutine.
type servedFleet struct {
	srv      *server.Server
	tcpLn    net.Listener
	tcpDone  chan error
	httpSrv  *http.Server
	httpDone chan error
	baseURL  string
	client   *http.Client
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	reply    []byte
	subs     [][]int // [tenant][query] subscription ids
}

// startServed brings a server up from nothing to ready for traffic:
// listeners, every tenant's portfolio subscribed from query text, both
// client connections open.
func startServed(in *input) (*servedFleet, error) {
	srv, err := server.New(server.Config{Shards: servedShards, SessionOptions: in.wl.options(false)})
	if err != nil {
		return nil, err
	}
	f := &servedFleet{srv: srv, tcpDone: make(chan error, 1), httpDone: make(chan error, 1)}
	if f.tcpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { f.tcpDone <- srv.ServeTCP(f.tcpLn) }()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() { f.httpDone <- f.httpSrv.Serve(httpLn) }()
	f.baseURL = "http://" + httpLn.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for _, s := range in.streams {
		ids := make([]int, len(in.wl.queries))
		for qi, text := range in.wl.queries {
			id, werr := srv.Subscribe(s.tenant, text, false)
			if werr != nil {
				f.stop()
				return nil, werr
			}
			ids[qi] = id
		}
		f.subs = append(f.subs, ids)
	}
	if f.conn, err = net.Dial("tcp", f.tcpLn.Addr().String()); err != nil {
		f.stop()
		return nil, err
	}
	f.br, f.bw = bufio.NewReaderSize(f.conn, 1<<16), bufio.NewWriterSize(f.conn, 1<<16)
	return f, nil
}

// stop closes both connections and both listeners, drains the shard
// pool and waits for the accept loops to return.
func (f *servedFleet) stop() {
	if f.conn != nil {
		f.conn.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	f.tcpLn.Close()
	f.srv.Drain()
	<-f.tcpDone
	if f.httpSrv != nil {
		f.httpSrv.Close()
		<-f.httpDone
	}
}

// send puts one frame on its connection. A JSON frame is a complete
// request/response exchange; a wire frame is only written, its
// acknowledgement is read by collect.
func (f *servedFleet) send(in *input, fr frame) (acked bool, err error) {
	if !fr.http {
		if err := server.WriteFrame(f.bw, fr.data); err != nil {
			return false, err
		}
		return false, f.bw.Flush()
	}
	resp, err := f.client.Post(f.baseURL+"/v1/"+in.streams[fr.stream].tenant+"/events", "application/json", bytes.NewReader(fr.data))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK || string(bytes.TrimSpace(body)) != `{"accepted":`+strconv.Itoa(fr.n)+`}` {
		return false, fmt.Errorf("http ingest: status %d: %s", resp.StatusCode, body)
	}
	return true, nil
}

// collect reads the oldest outstanding wire acknowledgement.
func (f *servedFleet) collect(want int) error {
	var err error
	if f.reply, err = server.ReadFrame(f.br, f.reply); err != nil {
		return err
	}
	n, err := server.DecodeReply(f.reply)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("tcp ingest: %d of %d events accepted", n, want)
	}
	return nil
}

// pull reads what tenant si's subscriptions have made available.
func (f *servedFleet) pull(o *observer, si int, tenant string, at time.Time) error {
	for qi, id := range f.subs[si] {
		rs, _, werr := f.srv.Results(tenant, id)
		if werr != nil {
			return werr
		}
		for i := range rs {
			o.see(si, qi, &rs[i], at)
		}
	}
	return nil
}

// scrape sums the per-tenant gauges of GET /metrics.
func (f *servedFleet) scrape(info *lapInfo) error {
	resp, err := f.client.Get(f.baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), "{")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		_, val, _ := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		switch name {
		case "cograd_tenant_peak_bytes":
			info.peakState += int64(v)
		case "cograd_tenant_shared_groups":
			info.sharedGroups += int(v)
		case "cograd_tenant_share_flips_total":
			info.shareFlips += int64(v)
		case "cograd_tenant_shared_saved_ops_total":
			info.savedOps += int64(v)
		case "cograd_tenant_late_dropped_total", "cograd_tenant_reorder_shed_total", "cograd_tenant_skipped_total":
			info.failed += int(v)
		}
	}
	return sc.Err()
}

func lapServed(in *input, o lapOpts) (lapInfo, error) {
	var info lapInfo
	f, err := startServed(in)
	if err != nil {
		return info, err
	}
	defer f.stop()
	// Closed loop: up to pipelineDepth wire frames in flight, a tenant's
	// results pulled after every pullEvery-th of its frames. Open loop:
	// lock step, so that every frame's acknowledgement has a time, and
	// the results it made available are pulled right after it.
	const pullEvery = 8
	lockStep := o.pace != nil
	var inflight []int
	for b := 0; b < o.limit; b++ {
		fr := in.frames[b]
		err := o.call(in, b, fr.n, func() error {
			acked, err := f.send(in, fr)
			if err != nil {
				return err
			}
			if !acked {
				inflight = append(inflight, fr.n)
			}
			for len(inflight) > 0 && (lockStep || len(inflight) >= pipelineDepth) {
				if err := f.collect(inflight[0]); err != nil {
					return err
				}
				inflight = inflight[1:]
			}
			if o.probe != nil && (b+1)%in.wl.probeEvery == 0 {
				// A probe follows: let the pipeline run dry, so that it
				// reads the server's state, not the frames in flight.
				for ; len(inflight) > 0; inflight = inflight[1:] {
					if err := f.collect(inflight[0]); err != nil {
						return err
					}
				}
			}
			if !lockStep && b/len(in.streams)%pullEvery != pullEvery-1 {
				return nil
			}
			return f.pull(o.obs, fr.stream, in.streams[fr.stream].tenant, time.Now())
		})
		if err != nil {
			return info, err
		}
		info.events += fr.n
	}
	for _, want := range inflight {
		if err := f.collect(want); err != nil {
			return info, err
		}
	}
	if err := f.scrape(&info); err != nil {
		return info, err
	}
	for si, s := range in.streams {
		if werr := f.srv.CloseTenant(s.tenant); werr != nil {
			return info, werr
		}
		if err := f.pull(o.obs, si, s.tenant, time.Time{}); err != nil {
			return info, err
		}
	}
	return info, nil
}

// setUp takes a workload from nothing to ready for traffic once — the
// fleet built from query text, the first batch pushed so that lazy
// first-event work is inside — and returns how long that took. The
// tear-down is not timed. snapshot is the durable workload's midpoint
// checkpoint: its set-up is a recovery.
func setUp(in *input, snapshot []byte) (time.Duration, error) {
	obs := newObserver(in)
	t0 := time.Now()
	switch in.wl.kind {
	case served:
		f, err := startServed(in)
		if err != nil {
			return 0, err
		}
		defer f.stop()
		for _, fr := range in.frames[:len(in.streams)] {
			acked, err := f.send(in, fr)
			if err == nil && !acked {
				err = f.collect(fr.n)
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	case durable:
		sess, err := cogra.Restore(bytes.NewReader(snapshot))
		if err != nil {
			return 0, err
		}
		defer sess.Close()
		_, events, err := server.DecodeIngest(in.frames[in.nEvents/2/in.wl.batch].data)
		if err != nil {
			return 0, err
		}
		for _, e := range events {
			if err := sess.Push(e); err != nil {
				return 0, err
			}
		}
		for _, sub := range sess.Subscriptions() {
			sub.Drain()
		}
		return time.Since(t0), nil
	}
	sess := cogra.NewSession(in.wl.options(false)...)
	defer sess.Close()
	for qi, text := range in.wl.queries {
		q, err := cogra.Parse(text)
		if err != nil {
			return 0, err
		}
		if _, err := sess.Subscribe(q, cogra.WithSink(&sink{obs, 0, qi})); err != nil {
			return 0, err
		}
	}
	events := in.events
	if events != nil {
		events = events[:in.wl.batch]
	} else {
		var err error
		if _, events, err = server.DecodeIngest(in.frames[0].data); err != nil {
			return 0, err
		}
	}
	if err := sess.PushBatch(events); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
