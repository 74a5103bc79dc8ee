package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// Harness runs the benchmark suite and regenerates the paper's tables.
type Harness struct {
	// Scale is the approximate primary-input line count per script.
	Scale int
	// Ks are the parallelism degrees measured (the paper uses 1,2,4,8,16).
	Ks []int

	env *unix.Env
	syn *synth.Engine
}

// NewHarness builds a harness with a shared environment and synthesizer:
// combiners for repeated commands (sort, uniq -c, ...) are synthesized once
// and reused across scripts, like KumQuat's per-command cache.
func NewHarness(scale int, ks []int) *Harness {
	if scale <= 0 {
		scale = 4000
	}
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	env := unix.DefaultEnv()
	return &Harness{
		Scale: scale,
		Ks:    ks,
		env:   env,
		syn:   synth.New(env, synth.Options{Seed: 1}),
	}
}

// Env exposes the shared command environment.
func (h *Harness) Env() *unix.Env { return h.env }

// Synthesizer exposes the shared synthesizer (for Table 8/9/10 reporting).
func (h *Harness) Synthesizer() *synth.Engine { return h.syn }

// PipelineCounts records Table 3's per-pipeline "k/n" pairs.
type PipelineCounts struct {
	Parallelized, Total, Eliminated int
}

// ScriptResult is one script's measurements: planning counts (Table 3) and
// execution times for every mode (Tables 1, 4, 5, 6, 7).
type ScriptResult struct {
	Spec ScriptSpec

	Parallelized, Total, Eliminated int
	PerPipeline                     []PipelineCounts

	TOrig  time.Duration         // pipelined execution of the original script
	U      map[int]time.Duration // unoptimized parallel, per k (U[1] is serial)
	T      map[int]time.Duration // optimized parallel, per k
	Output string                // serial output (ground truth)
	Agree  bool                  // all modes reproduced the serial output
	Errors []string              // mode failures, if any
}

// Speedup returns d0/d as a ratio (the paper's "(N.N×)" annotations).
func Speedup(base, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(base) / float64(d)
}

// scriptPlans compiles every pipeline of a script, executing pipelines in
// serial order as it goes so that later pipelines' synthesis can observe
// the temp files earlier pipelines write (8.3_3's comm needs tmp.ex.types
// to exist when its combiner is synthesized).
func (h *Harness) scriptPlans(ctx context.Context, spec ScriptSpec) ([]*pipeline.Plan, *pipeline.Script, error) {
	script, err := pipeline.ParseScript(spec.Source, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", spec.Suite, spec.Name, err)
	}
	plans := make([]*pipeline.Plan, len(script.Pipelines))
	for i, p := range script.Pipelines {
		// Execute pipeline serially first so its outputs exist for the
		// compilation of subsequent pipelines.
		plan, err := pipeline.CompileContext(ctx, p, h.syn)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s pipeline %d: %w", spec.Suite, spec.Name, i, err)
		}
		plans[i] = plan
		var out strings.Builder
		if _, err := plan.Execute(ctx, h.env, nil, &out, pipeline.ModeSerial, 1); err != nil {
			return nil, nil, fmt.Errorf("%s/%s pipeline %d run: %w", spec.Suite, spec.Name, i, err)
		}
		if p.OutputFile != "" {
			h.env.FS.Register(p.OutputFile, out.String())
		}
	}
	return plans, script, nil
}

// planCounts tallies Table 3's planning counts over a script's compiled
// pipelines into a fresh result.
func planCounts(spec ScriptSpec, plans []*pipeline.Plan) *ScriptResult {
	res := &ScriptResult{Spec: spec}
	for _, plan := range plans {
		par, total, elim := plan.Counts()
		res.Parallelized += par
		res.Total += total
		res.Eliminated += elim
		res.PerPipeline = append(res.PerPipeline,
			PipelineCounts{Parallelized: par, Total: total, Eliminated: elim})
	}
	return res
}

// timedRuns is how many times RunScript runs a script in each mode; a
// table cell is the median of those runs, so one scheduling hiccup does
// not decide it.
const timedRuns = 5

// runMode executes a whole script in one execution mode through the
// streaming executor and returns the concatenated output of its
// non-redirected pipelines. Each call runs in an Env of its own over the
// harness's files, so a timed run is a first run: the Env's segment memo
// never answers a chunk the run before it computed.
func (h *Harness) runMode(ctx context.Context, script *pipeline.Script,
	plans []*pipeline.Plan, mode pipeline.Mode, k int) (string, error) {

	env := &unix.Env{FS: h.env.FS}
	var final strings.Builder
	for i, plan := range plans {
		var sink strings.Builder
		if _, err := plan.Execute(ctx, env, nil, &sink, mode, k); err != nil {
			return "", err
		}
		if of := script.Pipelines[i].OutputFile; of != "" {
			h.env.FS.Register(of, sink.String())
		} else {
			final.WriteString(sink.String())
		}
	}
	return final.String(), nil
}

// RunScript measures one script across all execution modes, each cell the
// median of timedRuns runs whose outputs must all match the serial one.
// The context bounds every timed execution; a cancellation aborts the run
// mid-mode.
func (h *Harness) RunScript(ctx context.Context, spec ScriptSpec) (*ScriptResult, error) {
	if err := RegisterInputs(h.env, spec.Input, h.Scale); err != nil {
		return nil, err
	}
	plans, script, err := h.scriptPlans(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := planCounts(spec, plans)
	res.U = map[int]time.Duration{}
	res.T = map[int]time.Duration{}

	// Serial baseline (u1 measured below with k=1; this fixes ground truth).
	res.Output, err = h.runMode(ctx, script, plans, pipeline.ModeSerial, 1)
	if err != nil {
		return nil, err
	}
	res.Agree = true
	timed := func(label string, mode pipeline.Mode, k int) time.Duration {
		walls := make([]time.Duration, timedRuns)
		for i := range walls {
			start := time.Now()
			out, err := h.runMode(ctx, script, plans, mode, k)
			walls[i] = time.Since(start)
			switch {
			case err != nil:
				res.Agree = false
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", label, err))
				return walls[i]
			case out != res.Output:
				res.Agree = false
				res.Errors = append(res.Errors, label+": output differs from serial")
				return walls[i]
			}
		}
		slices.Sort(walls)
		return walls[timedRuns/2]
	}

	// T_orig: pipelined execution of the original script.
	res.TOrig = timed("pipelined", pipeline.ModePipelined, 1)
	for _, k := range h.Ks {
		res.U[k] = timed(fmt.Sprintf("u%d", k), pipeline.ModeUnoptimized, k)
		res.T[k] = timed(fmt.Sprintf("T%d", k), pipeline.ModeOptimized, k)
	}
	return res, nil
}

// RunAll measures every catalog script under one context.
func (h *Harness) RunAll(ctx context.Context) ([]*ScriptResult, error) {
	var out []*ScriptResult
	for _, spec := range Catalog() {
		r, err := h.RunScript(ctx, spec)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// PlanOnly compiles every catalog script without timing runs (fast path for
// Table 3).
func (h *Harness) PlanOnly(ctx context.Context) ([]*ScriptResult, error) {
	var out []*ScriptResult
	for _, spec := range Catalog() {
		if err := RegisterInputs(h.env, spec.Input, h.Scale); err != nil {
			return nil, err
		}
		plans, _, err := h.scriptPlans(ctx, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, planCounts(spec, plans))
	}
	return out, nil
}

// UniqueCommands returns the distinct stage specs across the catalog, in
// first-appearance order, excluding the initial-cat input sources the
// parser already strips.
func UniqueCommands() []string {
	seen := map[string]bool{}
	var out []string
	for _, spec := range Catalog() {
		script, err := pipeline.ParseScript(spec.Source, nil)
		if err != nil {
			continue
		}
		for _, p := range script.Pipelines {
			for _, stage := range p.Stages {
				if !seen[stage] {
					seen[stage] = true
					out = append(out, stage)
				}
			}
		}
	}
	return out
}
