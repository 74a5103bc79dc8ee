package pipeline

import (
	"time"

	"kumquat/internal/dataflow"
	"kumquat/internal/unix"
)

// RegionMetrics records one program region's execution: which stages it
// covered, how it ran, and the region-level combine share — the
// per-region CombineWall reported instead of per-stage figures (inside a
// fused region there is no per-stage combine to measure; the rewrite
// removed it). Durations encode as integer nanoseconds under *_ns keys.
type RegionMetrics struct {
	// Stages holds the member stage indices, in pipeline order.
	Stages []int `json:"stages"`
	// Fused marks multi-stage regions run as one composed per-chunk pass.
	Fused bool `json:"fused"`
	// Exit names the region's output disposition (combine, split or
	// concat).
	Exit string `json:"exit"`
	// Rules names the optimizer rewrites that fired on this region.
	Rules []string `json:"rules,omitempty"`
	// Wall is the region's wall-clock activity time.
	Wall time.Duration `json:"wall_ns"`
	// CombineWall is the share of Wall spent recombining the region's
	// chunk outputs (zero when the exit elided the combine).
	CombineWall time.Duration `json:"combine_wall_ns"`
	// BytesIn and BytesOut measure the region's stream volume.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// Chunks is the number of parallel instances the region ran as.
	Chunks int `json:"chunks"`
	// Streamed marks regions that consumed a live stream (an external
	// stdin or an upstream streamed region) block by block instead of
	// running chunk-parallel.
	Streamed bool `json:"streamed,omitempty"`
}

// RunInfo is the rewritten program's run report, filled in when an
// Execute call carries a WithRunInfo option. The rewrites it applied are
// the plan's (Program.Fired), not a fact of the run.
type RunInfo struct {
	// Regions holds one entry per optimizer region, in order. It is
	// non-nil exactly when the rewritten program executed the plan —
	// Optimized mode with fusion on, whatever the source (file,
	// in-memory or live external stdin).
	Regions []RegionMetrics
}

// WithFuse chooses which program an Optimized-mode run walks (default
// on): the rewritten one (fuse-streamers and elide-combine applied), or
// — off — the same graph lowered with those two rewrites disabled,
// leaving only Theorem 5's split exits. It is the fuse-off
// ablation the benchmarks and the conformance plane compare against; the
// executor is the same either way.
func WithFuse(on bool) ExecOpt {
	return func(c *execConfig) { c.fuse = on }
}

// WithRunInfo directs the executor to fill info with the rewritten
// program's region metrics.
func WithRunInfo(info *RunInfo) ExecOpt {
	return func(c *execConfig) { c.runInfo = info }
}

// regionRun returns the region's executable: the composed fused mapper,
// or the single member stage's command.
func regionRun(p *Plan, r *dataflow.Region) unix.Command {
	if r.Fused {
		return r.Mapper
	}
	return p.Stages[r.Nodes[0]].Cmd
}

// ruleNames lists the rewrites that shaped a region, as reports and
// spans print them (nil when none fired).
func ruleNames(r *dataflow.Region) []string {
	var names []string
	for _, rule := range r.Rules {
		names = append(names, string(rule))
	}
	return names
}

// attribute maps region metrics onto the per-stage metrics slice: shared
// figures (chunks, streamed) go to every member, stream volumes to the
// boundary stages, and the region wall to the first member — per-stage
// walls inside a fused region do not exist, which is the point of the
// fusion.
func attribute(metrics []StageMetrics, r *dataflow.Region, rm *RegionMetrics) {
	for _, id := range r.Nodes {
		metrics[id].Chunks = rm.Chunks
		metrics[id].Streamed = rm.Streamed
	}
	first, last := r.Nodes[0], r.Nodes[len(r.Nodes)-1]
	metrics[first].Wall = rm.Wall
	metrics[first].BytesIn = rm.BytesIn
	metrics[last].BytesOut = rm.BytesOut
	metrics[last].CombineWall = rm.CombineWall
}
