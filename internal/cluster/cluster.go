// Package cluster is kumquatd's fault-tolerant cluster execution plane:
// a leaf runner for the one executor. Coordinator.Execute is
// kumquat.Plan.Execute over the Optimized program at k = Shards — the
// same script-run loop, walker, line-aligned splitter (textio.ChunkLines)
// and §3.5 k-way combine as a local Optimized run — with remote
// leaves: a parallel segment's shards go to worker daemons over the typed
// client. A segment is a chunk-parallel region plus every region its
// split exits feed (pipeline.Segment), so a shard crosses the wire once
// per barrier, not once per stage: the worker runs the segment's stages
// as one ordinary serial script over its shard, and only what must meet
// — a combine, a concat, a merge — comes back to the coordinator. The
// output and the RunReport are therefore those of the local Optimized
// execution, which the conformance plane holds to the serial oracle;
// what this package adds is dispatch.
//
// Failure handling is the design axis, not a bolt-on. Shards are
// idempotent — a shard's output is a pure function of (segment script,
// shard bytes) — so every recovery mechanism is a re-run:
//
//   - per-shard deadlines with exponential-backoff, full-jitter retries
//     across the worker set, floored at a 429's Retry-After — the only
//     retry loop in the program (the typed client makes one attempt per
//     call and surfaces every failure here);
//   - speculative re-dispatch of straggler shards past a latency
//     threshold derived from the run's completed-shard quantile
//     (first result wins, the duplicate is cancelled and discarded);
//   - worker health accounting with ejection after consecutive failures
//     and probe-gated re-admission after a cooldown;
//   - graceful degradation to local in-process execution when the worker
//     set is exhausted, so a dead cluster only costs speed, never
//     correctness.
//
// Because recovery never changes a run's bytes, its policy is not
// configuration: retry count and backoff bounds, the speculation quantile
// and factor, the ejection threshold, cooldown and probe deadline are
// fixed (defaultRecovery). A deployment sets what only it can know — the
// worker addresses, the shard count, the per-shard deadline and the
// speculation floor (Config).
//
// Every retry, speculation, ejection and fallback is counted per run
// (api.ClusterReport in the execute trailer) and cumulatively (the
// coordinator's /metrics gauges).
package cluster

import (
	"context"
	"log/slog"
	"slices"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/pipeline"
	"kumquat/internal/server/api"
)

// Runner executes a segment's script on one input shard — the remote
// leaf abstraction. The production implementation wraps the typed HTTP
// client (NewHTTPRunner); tests substitute scripted fakes.
type Runner interface {
	// Run executes script — stage specs joined by " | " — over input and
	// returns the output stream and every stage's output volume, in
	// stage order, as the worker's run report carries them.
	Run(ctx context.Context, script, input string) (out string, stageBytes []int64, err error)
	// Probe checks the worker's readiness (used to gate re-admission of
	// an ejected worker).
	Probe(ctx context.Context) error
}

// Config is what a deployment sets on a Coordinator. Workers is
// required; every other field has a serviceable default.
type Config struct {
	// Workers lists the worker daemons' base URLs (e.g.
	// "http://10.0.0.2:9917"). An empty list disables cluster dispatch.
	Workers []string
	// Shards is the number of shards a parallel segment's input splits
	// into (0 = len(Workers)).
	Shards int
	// ShardTimeout is the per-attempt deadline of one remote shard
	// execution (default 30s).
	ShardTimeout time.Duration
	// SpeculateAfter is the minimum age before a running shard may be
	// speculatively re-dispatched (default 2s; <0 disables speculation).
	// It is the floor of the straggler threshold, which rises with the
	// run's completed-shard latencies (see recovery).
	SpeculateAfter time.Duration
	// Logger receives structured dispatch-health logs (worker ejection
	// and readmission); nil discards them.
	Logger *slog.Logger
	// OnShardLatency, when non-nil, observes each shard's total
	// resolution time — dispatch through final success or failure,
	// including retries, speculation and local fallback. kumquatd wires
	// it to the /metrics shard-latency histogram.
	OnShardLatency func(time.Duration)
	// OnRetryBackoff, when non-nil, observes each computed retry backoff
	// delay before the coordinator sleeps it. kumquatd wires it to the
	// /metrics retry-backoff histogram.
	OnRetryBackoff func(time.Duration)

	// recovery is the dispatch recovery policy; the zero value selects
	// defaultRecovery. Only in-package tests set it, to run the policy at
	// test-scale timings.
	recovery recovery
	// newRunner builds the transport for one worker address; nil selects
	// the HTTP runner over the typed client. Only in-package tests set
	// it, to inject fakes.
	newRunner func(addr string) Runner
}

// recovery is the dispatch recovery policy. Shards are pure, so none of
// it changes what a run outputs — only how soon a failed or slow shard is
// run again, and where.
type recovery struct {
	// retryMax is the number of re-dispatches after a failed shard
	// attempt, each to a (preferably different) healthy worker.
	retryMax int
	// retryBase and retryCap bound the full-jitter backoff before each
	// re-dispatch (see backoff).
	retryBase, retryCap time.Duration
	// A running shard older than max(Config.SpeculateAfter,
	// speculateFactor × the speculateQuantile of the wave's completed
	// shard latencies) gets a speculative duplicate.
	speculateFactor, speculateQuantile float64
	// ejectAfter consecutive failures take a worker out of the rotation;
	// after ejectCooldown a probe bounded by probeTimeout may readmit it.
	ejectAfter    int
	ejectCooldown time.Duration
	probeTimeout  time.Duration
}

// defaultRecovery is the recovery policy every Coordinator runs.
var defaultRecovery = recovery{
	retryMax:          3,
	retryBase:         50 * time.Millisecond,
	retryCap:          time.Second,
	speculateFactor:   2,
	speculateQuantile: 0.75,
	ejectAfter:        3,
	ejectCooldown:     15 * time.Second,
	probeTimeout:      2 * time.Second,
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.newRunner == nil {
		c.newRunner = func(addr string) Runner { return NewHTTPRunner(addr) }
	}
	if c.Shards == 0 {
		c.Shards = len(c.Workers)
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 30 * time.Second
	}
	if c.SpeculateAfter == 0 {
		c.SpeculateAfter = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.recovery == (recovery{}) {
		c.recovery = defaultRecovery
	}
	return c
}

// Coordinator owns the worker pool and executes compiled plans across
// it. It is safe for concurrent use; cumulative counters feed /metrics
// while each Execute call gets its own Stats.
type Coordinator struct {
	cfg  Config
	pool *pool
	// total accumulates every run's stats for the /metrics surface.
	total *Stats
}

// New builds a Coordinator over the configured worker set.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{cfg: cfg, pool: newPool(cfg), total: &Stats{}}
}

// Workers returns the configured worker addresses.
func (co *Coordinator) Workers() []string {
	out := make([]string, len(co.cfg.Workers))
	copy(out, co.cfg.Workers)
	return out
}

// Shards reports the per-segment shard count dispatch splits into.
func (co *Coordinator) Shards() int { return co.cfg.Shards }

// TotalStats snapshots the coordinator's cumulative dispatch counters
// (every run since construction) for the /metrics surface.
func (co *Coordinator) TotalStats() api.ClusterReport { return co.report(co.total) }

// report snapshots st as the wire report, stamped with the pool's size
// and current health.
func (co *Coordinator) report(st *Stats) api.ClusterReport {
	cr := st.Snapshot()
	cr.Workers, cr.Healthy = len(co.cfg.Workers), co.pool.healthy()
	return cr
}

// Execute runs a compiled script over the cluster. It is plan.Execute —
// the one script-run loop: redirects, byte totals, the RunReport — with
// three things pinned after the caller's opts: the Optimized program, k
// = Shards, and the coordinator as the leaf runner, so a dispatchable
// segment's shards go to the workers and every other fan-out is handed
// back to the in-process runner. The caller hands stdin over in memory
// (the server materializes the body first), so the walk chunks it rather
// than streaming it. Remote partials combine at the executor's pool
// width, min(Shards, GOMAXPROCS), like any local run at k = Shards. The
// ClusterReport is this run's dispatch accounting, returned on error too.
func (co *Coordinator) Execute(ctx context.Context, plan *kumquat.Plan, opts ...kumquat.ExecOption) (*kumquat.RunReport, api.ClusterReport, error) {
	st := &Stats{}
	leaves := func(local pipeline.Leaves) pipeline.Leaves {
		return func(ctx context.Context, seg *pipeline.Segment, chunks []string) ([]string, [][]int64, error) {
			if !co.dispatchable(seg) {
				return local(ctx, seg, chunks)
			}
			return co.runShards(ctx, seg, chunks, st)
		}
	}
	// Clip opts so the pinned options never land in the caller's array.
	all := append(slices.Clip(opts),
		kumquat.WithMode(kumquat.Optimized),
		kumquat.WithParallelism(co.cfg.Shards),
		kumquat.WithLeaves(leaves))
	rep, err := plan.Execute(ctx, all...)
	co.total.AddAll(st)
	return rep, co.report(st), err
}

// dispatchable reports whether a segment's shards may run remotely (the
// walker only fans out regions the planner marked parallel): more than
// one shard must be configured, and the segment's script must round-trip
// on a worker.
func (co *Coordinator) dispatchable(seg *pipeline.Segment) bool {
	if co.cfg.Shards < 2 || len(co.cfg.Workers) == 0 {
		return false
	}
	return scriptRoundTrips(seg.Chain.Spec())
}

// scriptRoundTrips checks that script, parsed as a standalone script,
// is one pipeline reading standard input whose stages join back to
// script itself (a leading "cat FILE" would be re-interpreted as an
// input source there, not a stage).
func scriptRoundTrips(script string) bool {
	parsed, err := pipeline.ParseScript(script+"\n", nil)
	if err != nil || len(parsed.Pipelines) != 1 {
		return false
	}
	p := parsed.Pipelines[0]
	return p.InputFile == "" && p.OutputFile == "" && strings.Join(p.Stages, " | ") == script
}
