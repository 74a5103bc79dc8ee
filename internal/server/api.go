package server

import "kumquat/internal/server/api"

// The wire types of kumquatd's HTTP/JSON API live in the api subpackage
// (shared with the typed client, which must stay importable from the
// cluster plane without a dependency on the server implementation). The
// aliases below keep the historical server.* names valid for handlers,
// tests and external callers.

// SynthesizeRequest is the POST /v1/synthesize body.
type SynthesizeRequest = api.SynthesizeRequest

// SpaceBreakdown is a search space's per-class candidate counts.
type SpaceBreakdown = api.SpaceBreakdown

// SynthesizeResponse is the POST /v1/synthesize reply.
type SynthesizeResponse = api.SynthesizeResponse

// ParallelizeRequest is the POST /v1/parallelize body.
type ParallelizeRequest = api.ParallelizeRequest

// ParallelizeResponse is the POST /v1/parallelize reply.
type ParallelizeResponse = api.ParallelizeResponse

// ExecuteReport is the X-Kumquat-Report trailer payload of POST
// /v1/execute.
type ExecuteReport = api.ExecuteReport

// ExecuteStage is one stage's slice of an ExecuteReport.
type ExecuteStage = api.ExecuteStage

// ExecuteRegion is one optimizer region's slice of a fused run's
// ExecuteReport.
type ExecuteRegion = api.ExecuteRegion

// ClusterReport is the coordinator's shard-dispatch accounting of one
// cluster-mode execute.
type ClusterReport = api.ClusterReport

// TraceSummary is the ?trace=on report stub pointing at the full trace.
type TraceSummary = api.TraceSummary

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse = api.ErrorResponse

// VersionResponse is the GET /v1/version reply.
type VersionResponse = api.VersionResponse

// Trailer names of the execute endpoint.
const (
	// ReportTrailer carries the ExecuteReport JSON after a streamed
	// execute response.
	ReportTrailer = api.ReportTrailer
	// ErrorTrailer carries an execution error that occurred after the
	// response status was already committed.
	ErrorTrailer = api.ErrorTrailer
	// TraceTrailer carries a worker's span records back to the
	// coordinator on traced cluster dispatches.
	TraceTrailer = api.TraceTrailer
)
