// Command kumquatd is the KumQuat daemon: an HTTP service exposing
// combiner synthesis, pipeline planning and streamed execution over one
// long-lived engine, so the combiner caches stay warm across requests
// and users.
//
// Usage:
//
//	kumquatd -addr :9917 -synth-cache /var/cache/kumquat
//
// Endpoints (see internal/server):
//
//	POST /v1/synthesize   {"spec": "uniq -c"} → combiner verdict
//	POST /v1/parallelize  {"script": "...", "files": {...}} → plan summary
//	POST /v1/execute?script=...&k=8&mode=optimized
//	                      body streams in as input, stdout streams back,
//	                      run report arrives in the X-Kumquat-Report trailer
//	                      (the report names the fired optimizer rewrites);
//	                      cluster=on|off|auto picks the dispatch plane,
//	                      trace=on records the request
//	GET  /v1/version      build info + service limits
//	GET  /v1/traces/{id}  recorded trace as Chrome trace-event JSON
//	                      (?format=raw for span records); execute requests
//	                      opt in with ?trace=on, ring sized by -trace-buffer
//	GET  /healthz         liveness (200 even while draining)
//	GET  /readyz          readiness (503 once draining starts)
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/pprof/    runtime profiles, mounted only with -pprof
//
// Lifecycle and request logs are structured (log/slog, text to stderr);
// -log-level picks the floor and traced requests carry a trace_id key.
//
// With -workers, kumquatd runs as a cluster coordinator: execute
// requests split their input into line-aligned shards dispatched to the
// listed worker daemons (plain kumquatds), with retry/backoff,
// speculative straggler re-dispatch, worker health ejection, and local
// fallback when the worker set is exhausted. -shards, -shard-timeout and
// -speculate-after are the deployment's settings; the recovery policy
// itself is fixed (see internal/cluster).
//
// SIGINT/SIGTERM starts a graceful drain: readiness flips to 503, the
// listener closes, in-flight requests get -drain-timeout to finish, then
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/server"
)

// splitWorkers parses the -workers flag into a trimmed address list.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9917", "listen address")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently-served requests (0 = 2×GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max requests waiting for a slot before 429 (0 = 64)")
	defaultK := flag.Int("k", 0, "default execute parallelism (0 = GOMAXPROCS)")
	synthWorkers := flag.Int("synth-workers", 0, "synthesis worker pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("synth-cache", "", "directory for the on-disk combiner cache (empty = memory only)")
	seed := flag.Int64("seed", 1, "synthesis random seed")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	workers := flag.String("workers", "", "comma-separated worker base URLs enabling coordinator mode (e.g. http://127.0.0.1:9918,http://127.0.0.1:9919)")
	shards := flag.Int("shards", 0, "shards per parallel segment in coordinator mode (0 = worker count)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-attempt deadline of one remote shard (0 = 30s)")
	speculateAfter := flag.Duration("speculate-after", 0, "minimum shard age before speculative re-dispatch (0 = 2s, negative disables)")
	traceBuffer := flag.Int("trace-buffer", 64, "traces retained in the in-memory ring for GET /v1/traces/{id} (0 disables tracing)")
	logLevel := flag.String("log-level", "info", "structured-log level: debug, info, warn, error")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes runtime internals; keep off on untrusted networks)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		kumquat.Info().Fprint(os.Stdout, "kumquatd")
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "kumquatd: -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	// The server treats TraceBuffer 0 as "use the default", so the flag's
	// 0 ("disable") maps to the config's explicit negative sentinel.
	tb := *traceBuffer
	if tb <= 0 {
		tb = -1
	}

	srv := server.New(server.Config{
		SynthOptions: kumquat.Options{
			Seed:     *seed,
			Workers:  *synthWorkers,
			CacheDir: *cacheDir,
		},
		MaxInFlight:        *maxInFlight,
		QueueDepth:         *queueDepth,
		DefaultParallelism: *defaultK,
		TraceBuffer:        tb,
		TraceProc:          "kumquatd@" + *addr,
		Logger:             logger,
		EnablePprof:        *pprof,
		Cluster: cluster.Config{
			Workers:        splitWorkers(*workers),
			Shards:         *shards,
			ShardTimeout:   *shardTimeout,
			SpeculateAfter: *speculateAfter,
		},
	})
	if ws := srv.Coordinator(); ws != nil {
		logger.Info("coordinator mode", "workers", len(ws.Workers()), "shards", ws.Shards())
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until the first SIGINT/SIGTERM, then drain: stop accepting,
	// give in-flight requests the drain budget, exit. A second signal
	// during the drain kills the process via the restored default
	// disposition.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "trace_buffer", tb, "pprof", *pprof)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // re-arm default signal disposition for a hard second hit
		// Flip readiness before closing the listener so probes and
		// coordinators stop routing work here while streams finish.
		srv.SetDraining(true)
		logger.Info("draining", "budget", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("shutdown failed", "err", err)
			os.Exit(1)
		}
		logger.Info("drained")
	}
}
