// Command cograd serves cogra sessions to many tenants over the
// network: HTTP+JSON for ingest, subscribe and streaming results, a
// framed-TCP path for bulk ingest, Prometheus metrics on /metrics, and
// graceful drain — SIGTERM checkpoints every tenant session into
// -checkpoint-dir (when set) and a restarted cograd resumes them
// byte-identically, mid-window.
//
// Usage:
//
//	cograd -addr :8080 -tcp-addr :8081 -shards 4 \
//	       -checkpoint-dir /var/lib/cograd \
//	       -slack 100
//
// Session flags (-workers, -slack, ...) apply to every tenant
// session the daemon creates; they are the same flags cograql takes.
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
		maxBatch   = flag.Int("max-batch", 0, "max events per ingest request (0: unlimited)")
		maxQueries = flag.Int("max-queries", 0, "max active queries per tenant (0: unlimited)")
		ingestRate = flag.Float64("ingest-rate", 0, "per-tenant ingest quota in events/s (0: unlimited)")
	)
	sf := sessionflags.Register(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, *tcpAddr, *shards, *ckptDir, *maxBatch, *maxQueries, *ingestRate, sf); err != nil {
		fmt.Fprintln(os.Stderr, "cograd:", err)
		os.Exit(1)
	}
}

func run(addr, tcpAddr string, shards int, ckptDir string, maxBatch, maxQueries int, ingestRate float64, sf *sessionflags.Flags) error {
	opts, err := sf.Options()
	if err != nil {
		return err
	}
	ropts, err := sf.RestoreOptions()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Shards:              shards,
		SessionOptions:      opts,
		RestoreOptions:      ropts,
		CheckpointDir:       ckptDir,
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
