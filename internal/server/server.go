// Package server implements kumquatd's service plane: an HTTP/JSON API
// over one shared kumquat.System, so the synthesis engine's LRU and
// on-disk combiner cache stay warm across requests and users.
//
// Endpoints:
//
//	POST /v1/synthesize   command spec → combiner verdict (+ cache tier)
//	POST /v1/parallelize  script → plan summary (per-stage verdicts)
//	POST /v1/execute      script; request body streams in as stdin,
//	                      stdout streams out, RunReport arrives as the
//	                      X-Kumquat-Report trailer
//	GET  /v1/version      build info + service limits
//	GET  /healthz         liveness (200 even while draining)
//	GET  /readyz          readiness (503 once draining starts)
//	GET  /metrics         Prometheus text exposition
//
// With Config.Cluster.Workers set, the server is additionally a cluster
// coordinator: execute requests shard their input across the worker
// daemons (internal/cluster) unless the request opts out with
// cluster=off.
//
// The server owns the production concerns the library leaves to its
// caller: bounded admission (at most MaxInFlight requests do work, at
// most QueueDepth wait, the rest get 429), per-request contexts wired
// into SynthesizeTier/ParallelizeInEnv/Execute so deadlines and client
// disconnects cancel work mid-round, and the /metrics surface.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/obs"
	"kumquat/internal/server/api"
)

// Config tunes a Server. The zero value serves with defaults.
type Config struct {
	// SynthOptions configures the shared synthesis engine (seed 0 selects
	// the default seed 1, matching the CLIs; CacheDir enables the on-disk
	// tier). Synthesize requests and the engine's observation runs use
	// the default corpus; parallelize and execute requests get a private
	// per-request environment.
	SynthOptions kumquat.Options
	// MaxInFlight caps concurrently-served work requests
	// (default 2×GOMAXPROCS).
	MaxInFlight int
	// QueueDepth caps requests waiting for a slot (default 64); beyond
	// it the server answers 429 immediately.
	QueueDepth int
	// DefaultParallelism is the execute endpoint's k when the request
	// does not set one (default GOMAXPROCS).
	DefaultParallelism int
	// MaxBodyBytes bounds request bodies (default 256 MiB; negative =
	// unlimited). Execute inputs stream, but scripts that bind the body
	// to a `cat FILE` source materialize it.
	MaxBodyBytes int64
	// Cluster configures coordinator mode: with a non-empty Workers list
	// the execute endpoint shards parallel stages across those worker
	// daemons (with retries, speculation and local fallback) instead of
	// running them in-process.
	Cluster cluster.Config
	// TraceBuffer sizes the in-memory ring of recent traces served at
	// GET /v1/traces/{id} (0 = default 64; negative disables tracing
	// entirely — ?trace=on and traceparent headers are then ignored).
	TraceBuffer int
	// TraceProc labels this process's spans in exported traces
	// (default "kumquatd").
	TraceProc string
	// Logger receives the server's structured request and lifecycle
	// logs; nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (the
	// kumquatd -pprof flag). Off by default: the profile endpoints
	// expose internals and cost CPU when scraped.
	EnablePprof bool
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultParallelism == 0 {
		c.DefaultParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 64
	}
	if c.TraceProc == "" {
		c.TraceProc = "kumquatd"
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the service plane over one shared kumquat.System.
type Server struct {
	cfg Config
	sys *kumquat.System
	adm *admission
	met *metrics
	// trc records request traces; nil when tracing is disabled.
	trc *obs.Tracer
	// log receives structured request and lifecycle logs.
	log *slog.Logger
	// clu is the cluster coordinator; nil when no workers are configured.
	clu *cluster.Coordinator
	// draining flips once shutdown starts: readiness goes 503 (stop
	// admitting new clients) while liveness stays 200 (still draining).
	draining atomic.Bool
}

// New builds a Server; its System (and therefore the warm synthesis
// caches) lives as long as the server does.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		sys: kumquat.NewWithOptions(kumquat.NewEnv(), cfg.SynthOptions),
		adm: newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		met: newMetrics(),
		log: cfg.Logger,
	}
	if cfg.TraceBuffer > 0 {
		s.trc = obs.NewTracer(cfg.TraceBuffer, cfg.TraceProc)
	}
	if len(cfg.Cluster.Workers) > 0 {
		cc := cfg.Cluster
		if cc.Logger == nil {
			cc.Logger = cfg.Logger
		}
		// Feed the coordinator's shard and backoff observations into the
		// /metrics histograms.
		cc.OnShardLatency = s.met.observeShard
		cc.OnRetryBackoff = s.met.observeBackoff
		s.clu = cluster.New(cc)
	}
	return s
}

// Coordinator returns the cluster coordinator, or nil when the server
// runs without workers.
func (s *Server) Coordinator() *cluster.Coordinator { return s.clu }

// SetDraining flips the readiness surface: once on, /readyz answers 503
// so load balancers and cluster coordinators stop sending new work,
// while /healthz keeps answering 200 for the duration of the drain.
func (s *Server) SetDraining(on bool) {
	if s.draining.Swap(on) != on {
		s.log.Info("drain transition", "draining", on)
	}
}

// System exposes the shared system, e.g. for pre-warming caches before
// serving.
func (s *Server) System() *kumquat.System { return s.sys }

// Handler returns the server's routed http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.instrument("synthesize", s.handleSynthesize))
	mux.HandleFunc("POST /v1/parallelize", s.instrument("parallelize", s.handleParallelize))
	mux.HandleFunc("POST /v1/execute", s.instrument("execute", s.handleExecute))
	mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	mux.HandleFunc("GET /v1/traces/{id}", s.instrument("traces", s.handleTrace))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.handleMetrics) // not self-instrumented
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with request metrics (count by status code,
// latency histogram) and structured request logs. Probe endpoints log at
// debug so a tight health-check loop doesn't drown the work log; traced
// requests carry their trace_id for correlation.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	probe := endpoint == "healthz" || endpoint == "readyz" || endpoint == "version"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.log.Debug("request start", "endpoint", endpoint, "remote", r.RemoteAddr)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		s.met.record(endpoint, rec.code, d)
		lvl := slog.LevelInfo
		if probe {
			lvl = slog.LevelDebug
		}
		args := []any{"endpoint", endpoint, "code", rec.code, "ms", ms(d)}
		if rec.traceID != "" {
			args = append(args, "trace_id", rec.traceID)
		}
		s.log.Log(r.Context(), lvl, "request finished", args...)
	}
}

// statusRecorder captures the response status for metrics while passing
// Flush through so execute responses still stream.
type statusRecorder struct {
	http.ResponseWriter
	code int
	// traceID is set by handlers that record a trace, so the finish log
	// can correlate.
	traceID string
}

// WriteHeader records the status code.
func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit claims an admission slot for one work request, translating
// saturation to 429 (with Retry-After) and a client that gave up while
// queued to a no-op. The returned release is nil when admission failed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	release, err := s.adm.acquire(r.Context())
	if err == ErrBusy {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at capacity: %d in flight, %d queued", s.adm.inFlight(), s.adm.queued())
		return nil
	}
	if err != nil { // client disconnected or deadline passed while queued
		return nil
	}
	return release
}

// handleHealthz is the liveness probe: 200 as long as the process
// serves, including the shutdown drain (a draining server is alive —
// killing it would sever the streams it is finishing).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 once the drain starts, so
// new work routes elsewhere while in-flight streams finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleVersion reports build info and service limits.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	resp := api.VersionResponse{
		BuildInfo:   kumquat.Info(),
		MaxInFlight: s.cfg.MaxInFlight,
		QueueDepth:  s.cfg.QueueDepth,
	}
	if s.clu != nil {
		resp.Workers = s.clu.Workers()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the Prometheus exposition, sampling the
// admission and cache gauges at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.sys.SynthCacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauges := []gauge{
		{"kumquatd_in_flight", "Requests currently holding an execution slot.", float64(s.adm.inFlight())},
		{"kumquatd_queued", "Requests waiting for an execution slot.", float64(s.adm.queued())},
		{"kumquatd_synth_cache_hits", "Cumulative synthesis memory-cache hits.", float64(st.Hits)},
		{"kumquatd_synth_cache_disk_hits", "Cumulative synthesis disk-cache hits.", float64(st.DiskHits)},
		{"kumquatd_synth_cache_misses", "Cumulative full synthesis runs.", float64(st.Misses)},
	}
	if s.clu != nil {
		cs := s.clu.TotalStats()
		gauges = append(gauges,
			gauge{"kumquatd_cluster_workers", "Configured cluster workers.", float64(cs.Workers)},
			gauge{"kumquatd_cluster_healthy", "Workers currently in the rotation.", float64(cs.Healthy)},
			gauge{"kumquatd_cluster_shards", "Cumulative shards dispatched.", float64(cs.Shards)},
			gauge{"kumquatd_cluster_remote_runs", "Cumulative shards resolved on workers.", float64(cs.RemoteRuns)},
			gauge{"kumquatd_cluster_local_runs", "Cumulative shards degraded to local execution.", float64(cs.LocalRuns)},
			gauge{"kumquatd_cluster_retries", "Cumulative shard re-dispatches after failures.", float64(cs.Retries)},
			gauge{"kumquatd_cluster_speculations", "Cumulative speculative straggler re-dispatches.", float64(cs.Speculations)},
			gauge{"kumquatd_cluster_speculation_wins", "Speculative duplicates whose result arrived first.", float64(cs.SpeculationWins)},
			gauge{"kumquatd_cluster_ejections", "Cumulative worker ejections from the rotation.", float64(cs.Ejections)},
			gauge{"kumquatd_cluster_readmissions", "Cumulative probe-gated worker re-admissions.", float64(cs.Readmissions)},
		)
	}
	s.met.write(w, gauges, s.clu != nil)
}

// handleTrace serves one recorded trace from the ring: Chrome
// trace-event JSON by default (openable in chrome://tracing/Perfetto),
// the raw obs.TraceData with ?format=raw.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.trc == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (TraceBuffer < 0)")
		return
	}
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: %v", err)
		return
	}
	td, ok := s.trc.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %s not found (evicted or never recorded)", id)
		return
	}
	if r.URL.Query().Get("format") == "raw" {
		writeJSON(w, http.StatusOK, td)
		return
	}
	data, err := td.ChromeTrace()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "exporting trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client disconnects surface elsewhere
}

// writeJSON writes a compact JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client disconnects surface elsewhere
}

// writeError writes the standard JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// ms converts a duration to milliseconds with microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
