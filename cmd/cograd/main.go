// Command cograd serves cogra sessions to many tenants over the
// network: HTTP+JSON for ingest, subscribe and streaming results, a
// framed-TCP path for bulk ingest, and Prometheus metrics on /metrics.
// It is the repository's one live server; cograql is the one-pass CSV
// evaluator.
//
// Usage:
//
//	cograd -addr :8080 -tcp-addr :8081 -shards 4 \
//	       -checkpoint-dir /var/lib/cograd -checkpoint-every 100000 \
//	       -slack 100
//
// Durability: with -checkpoint-dir, a SIGTERM drains — every tenant
// session is checkpointed there, atomically — and a restarted cograd
// restores every tenant it finds, resuming byte-identically mid-window.
// -checkpoint-every n also checkpoints a tenant whenever an ingest
// request takes its accepted-event count across a multiple of n,
// before the request is acknowledged, so a SIGKILL loses at most the
// events acknowledged since then; a client re-sends that suffix. Each
// checkpoint is logged as "tenant %q checkpointed to <file> @ <n>
// events", n counting from the session's creation or restore. A stale
// <file>.tmp left by a crash mid-write is never restored from. Results
// a client drained after the last checkpoint come back after a crash.
// The package comment of internal/server documents the wire surface.
//
// Session flags (-workers, -slack, ...) shape every new tenant session
// the daemon creates; they are the same flags cograql takes. A tenant
// restored from -checkpoint-dir keeps the configuration its checkpoint
// was taken under, whatever the flags of the restarted daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/sessionflags"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		tcpAddr    = flag.String("tcp-addr", "", "framed-TCP bulk-ingest listen address (empty: disabled)")
		shards     = flag.Int("shards", 4, "session-shard pool size (tenants hash across shards)")
		ckptDir    = flag.String("checkpoint-dir", "", "snapshot tenants here on drain, restore on boot (empty: disabled)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "also snapshot a tenant after every N accepted events (requires -checkpoint-dir; 0: on drain only)")
		maxBatch   = flag.Int("max-batch", 0, "max events per ingest request (0: unlimited)")
		maxQueries = flag.Int("max-queries", 0, "max active queries per tenant (0: unlimited)")
		ingestRate = flag.Float64("ingest-rate", 0, "per-tenant ingest quota in events/s (0: unlimited)")
	)
	sf := sessionflags.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, *tcpAddr, *shards, *ckptDir, *ckptEvery, *maxBatch, *maxQueries, *ingestRate, sf); err != nil {
		fmt.Fprintln(os.Stderr, "cograd:", err)
		os.Exit(1)
	}
}

func run(addr, tcpAddr string, shards int, ckptDir string, ckptEvery, maxBatch, maxQueries int, ingestRate float64, sf *sessionflags.Flags) error {
	opts, err := sf.Options()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Shards:              shards,
		SessionOptions:      opts,
		CheckpointDir:       ckptDir,
		CheckpointEvery:     ckptEvery,
		MaxBatch:            maxBatch,
		MaxQueriesPerTenant: maxQueries,
		IngestRate:          ingestRate,
		Logf:                log.Printf,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	httpLn, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 2)
	go func() { errc <- httpSrv.Serve(httpLn) }()
	log.Printf("cograd: http on %s", httpLn.Addr())

	var tcpLn net.Listener
	if tcpAddr != "" {
		tcpLn, err = net.Listen("tcp", tcpAddr)
		if err != nil {
			return err
		}
		go func() { errc <- srv.ServeTCP(tcpLn) }()
		log.Printf("cograd: tcp ingest on %s", tcpLn.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("cograd: %s: draining", sig)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	// Drain order: refuse new work and checkpoint sessions first (the
	// consistent cut), then stop the listeners — in-flight streaming
	// responses observe the drain via their pulse wake-up and finish.
	if err := srv.Drain(); err != nil {
		log.Printf("cograd: drain: %v", err)
	}
	if tcpLn != nil {
		tcpLn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	log.Printf("cograd: bye")
	return nil
}
