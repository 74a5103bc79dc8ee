// Package api defines the wire types of kumquatd's HTTP/JSON API. The
// server (internal/server) and the typed client (internal/server/client)
// both build on this package, so the two ends of the protocol cannot
// drift — and the client stays importable from the cluster plane
// (internal/cluster) without pulling in the server implementation.
package api

import "kumquat"

// SynthesizeRequest is the POST /v1/synthesize body.
type SynthesizeRequest struct {
	// Spec is the command (or fragment, "sort | uniq") to synthesize for.
	Spec string `json:"spec"`
}

// SpaceBreakdown is a search space's per-class candidate counts (Table
// 10's third column).
type SpaceBreakdown struct {
	Total  int `json:"total"`
	Rec    int `json:"rec"`
	Struct int `json:"struct"`
	Run    int `json:"run"`
}

// SynthesizeResponse is the POST /v1/synthesize reply: one command's
// synthesis verdict plus the cache attribution of this call.
type SynthesizeResponse struct {
	Spec      string         `json:"spec"`
	Combiner  string         `json:"combiner,omitempty"`
	Plausible []string       `json:"plausible,omitempty"`
	Space     SpaceBreakdown `json:"space"`
	Rounds    int            `json:"rounds"`
	// Observations is the number of ⟨y1,y2,y12⟩ triples synthesis used.
	Observations int `json:"observations"`
	// Unsupported carries the negative verdict (no combiner exists, the
	// command is not a stream processor, …) when synthesis succeeded in
	// *deciding* but the command has no combiner. HTTP status stays 200:
	// the verdict is a first-class result, not a server failure.
	Unsupported string `json:"unsupported,omitempty"`
	// Cached is true when a cache tier served the call; CacheTier says
	// which ("memory", "disk", or "miss"). Exact under concurrency.
	Cached    bool   `json:"cached"`
	CacheTier string `json:"cache_tier"`
	// SynthDurationMS is the original synthesis wall time (the cached
	// result's cost, not this request's); DurationMS is this request's
	// server-side handling time.
	SynthDurationMS float64 `json:"synth_duration_ms"`
	DurationMS      float64 `json:"duration_ms"`
	// Cache is the engine's cumulative cache activity after this call.
	Cache kumquat.SynthCacheStats `json:"cache"`
}

// ParallelizeRequest is the POST /v1/parallelize body.
type ParallelizeRequest struct {
	// Script is the shell script to plan (one or more pipeline lines).
	Script string `json:"script"`
	// Files registers input files into the request's private
	// environment before planning, keyed by name.
	Files map[string]string `json:"files,omitempty"`
}

// StageVerdict is one stage's planning outcome: the planner's own
// verdict struct, which carries the wire's JSON tags.
type StageVerdict = kumquat.StageInfo

// ParallelizeResponse is the POST /v1/parallelize reply: the plan
// summary (the paper's Table 3 row for the script).
type ParallelizeResponse struct {
	Parallelized int            `json:"parallelized"`
	Total        int            `json:"total"`
	Eliminated   int            `json:"eliminated"`
	Stages       []StageVerdict `json:"stages"`
	// SynthCache is the combiner-cache activity of this compilation:
	// stages served warm versus synthesized from scratch.
	SynthCache kumquat.SynthCacheStats `json:"synth_cache"`
	DurationMS float64                 `json:"duration_ms"`
}

// ExecuteReport is the JSON payload of the X-Kumquat-Report trailer a
// successful POST /v1/execute response carries after the streamed
// output: the run record itself (kumquat.RunReport, its keys flattened
// into the top-level object) plus what only the service plane knows.
type ExecuteReport struct {
	kumquat.RunReport
	// Cluster carries the coordinator's shard-dispatch accounting when the
	// request was dispatched to the cluster; omitted otherwise.
	Cluster *ClusterReport `json:"cluster,omitempty"`
	// Trace summarizes the request's recorded trace when the request
	// asked for one (?trace=on); the full trace is retrievable at
	// GET /v1/traces/{trace_id} until the ring evicts it.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// TraceSummary is the ?trace=on trailer stub: enough to fetch the full
// trace without inflating every report with span records.
type TraceSummary struct {
	// TraceID is the recorded trace's identifier (32 hex digits).
	TraceID string `json:"trace_id"`
	// Spans is the number of spans recorded so far, stitched remote
	// spans included.
	Spans int `json:"spans"`
}

// ClusterReport is the coordinator's accounting of one cluster-mode
// execute: how the parallel-stage shards were dispatched across the
// worker set and what the failure-handling machinery had to do to keep
// the run byte-identical to a local one.
type ClusterReport struct {
	// Workers is the configured worker count; Healthy is how many were
	// healthy (not ejected) when the run finished.
	Workers int `json:"workers"`
	Healthy int `json:"healthy"`
	// Shards counts the logical shards of this run (per parallel segment,
	// summed); RemoteRuns counts shard executions that completed on a
	// worker, LocalRuns the shards that degraded to in-process execution
	// after the worker set was exhausted.
	Shards     int64 `json:"shards"`
	RemoteRuns int64 `json:"remote_runs"`
	LocalRuns  int64 `json:"local_runs"`
	// Retries counts re-dispatches after a failed attempt (backoff
	// applied); Speculations counts straggler duplicates launched past the
	// latency threshold, SpeculationWins how many of those beat the
	// original attempt.
	Retries         int64 `json:"retries"`
	Speculations    int64 `json:"speculations"`
	SpeculationWins int64 `json:"speculation_wins"`
	// Ejections and Readmissions count worker health transitions observed
	// during this run.
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// VersionResponse is the GET /v1/version reply: the build surface plus
// the server's effective service limits.
type VersionResponse struct {
	kumquat.BuildInfo
	// MaxInFlight and QueueDepth echo the admission configuration.
	MaxInFlight int `json:"max_in_flight"`
	QueueDepth  int `json:"queue_depth"`
	// Workers lists the configured cluster workers when the server runs
	// as a coordinator; empty otherwise.
	Workers []string `json:"workers,omitempty"`
}

// Trailer and header names of the execute endpoint.
const (
	// ReportTrailer carries the ExecuteReport JSON after a streamed
	// execute response.
	ReportTrailer = "X-Kumquat-Report"
	// ErrorTrailer carries an execution error that occurred after the
	// response status was already committed.
	ErrorTrailer = "X-Kumquat-Error"
	// TraceTrailer carries the worker's span records (a JSON array of
	// obs.SpanRecord) back to the coordinator on traced cluster
	// dispatches, so the coordinator can stitch them into one trace.
	TraceTrailer = "X-Kumquat-Trace"
)
