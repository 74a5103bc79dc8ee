package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"kumquat"
	"kumquat/internal/pipeline"
)

// Harness runs the benchmark suite and regenerates the paper's tables
// through the public API: every script is planned whole by
// System.ParallelizeInEnv and run by Plan.Execute, so its Table 3 counts
// are the plan `kumquat plan` prints.
type Harness struct {
	// Scale is the approximate primary-input line count per script.
	Scale int
	// Ks are the parallelism degrees measured (the paper uses 1,2,4,8,16).
	Ks []int
	// System plans every script and synthesizes Tables 8–10: combiners
	// for repeated commands (sort, uniq -c, ...) are synthesized once and
	// reused across scripts, like KumQuat's per-command cache. Its Env is
	// the synthesizer's environment and holds every script's inputs.
	System *kumquat.System
}

// NewHarness builds a harness around a fresh System.
func NewHarness(scale int, ks []int) *Harness {
	if scale <= 0 {
		scale = 4000
	}
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	return &Harness{Scale: scale, Ks: ks, System: kumquat.New(kumquat.NewEnv())}
}

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

func registerFiles(env *kumquat.Env, files map[string]string) {
	for name, data := range files {
		env.Register(name, data)
	}
}

// plan compiles spec's whole script, before any of it runs, into a Plan
// that executes in env.
func (h *Harness) plan(ctx context.Context, spec ScriptSpec, env *kumquat.Env) (*kumquat.Plan, error) {
	plan, err := h.System.ParallelizeInEnv(ctx, env, spec.Source)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", spec.Suite, spec.Name, err)
	}
	return plan, nil
}

// planScript generates spec's input files, registers them into the
// System's Env, where synthesis observes them, and tallies Table 3's
// counts from the script's plan.
func (h *Harness) planScript(ctx context.Context, spec ScriptSpec) (*ScriptResult, map[string]string, error) {
	files, err := Inputs(spec.Input, h.Scale)
	if err != nil {
		return nil, nil, err
	}
	registerFiles(h.System.Env(), files)
	plan, err := h.plan(ctx, spec, h.System.Env())
	if err != nil {
		return nil, nil, err
	}
	res := &ScriptResult{Spec: spec, PerPipeline: make([]PipelineCounts, len(plan.Inputs()))}
	res.Parallelized, res.Total, res.Eliminated = plan.Counts()
	for _, st := range plan.Stages() {
		c := &res.PerPipeline[st.Pipeline]
		c.Total++
		if st.Parallel {
			c.Parallelized++
		}
		if st.Eliminated {
			c.Eliminated++
		}
	}
	return res, files, nil
}

// timedRuns is how many times RunScript runs a script in each mode; a
// table cell is the median of those runs, so one scheduling hiccup does
// not decide it.
const timedRuns = 5

// run is one timed run of spec: a plan in a fresh Env holding files (a
// warm-cache lookup, outside the timed window), then one Plan.Execute,
// whose report's Wall is the run's time. The fresh Env makes every timed
// run a first run: its segment memo never answers a chunk an earlier run
// computed.
func (h *Harness) run(ctx context.Context, spec ScriptSpec, files map[string]string, mode kumquat.Mode, k int) (*kumquat.RunReport, error) {
	env := kumquat.NewEnv()
	registerFiles(env, files)
	plan, err := h.plan(ctx, spec, env)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, kumquat.WithMode(mode), kumquat.WithParallelism(k))
}

// RunScript measures one script across all execution modes, each cell the
// median of timedRuns runs whose outputs must all match the serial one.
// The context bounds every timed execution; a cancellation aborts the run
// mid-mode.
func (h *Harness) RunScript(ctx context.Context, spec ScriptSpec) (*ScriptResult, error) {
	res, files, err := h.planScript(ctx, spec)
	if err != nil {
		return nil, err
	}
	res.U = map[int]time.Duration{}
	res.T = map[int]time.Duration{}

	// Serial baseline (u1 measured below with k=1; this fixes ground truth).
	serial, err := h.run(ctx, spec, files, kumquat.Serial, 1)
	if err != nil {
		return nil, err
	}
	res.Output = serial.Output
	res.Agree = true
	timed := func(label string, mode kumquat.Mode, k int) time.Duration {
		walls := make([]time.Duration, timedRuns)
		for i := range walls {
			rep, err := h.run(ctx, spec, files, mode, k)
			switch {
			case err != nil:
				res.Agree = false
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", label, err))
				return 0
			case rep.Output != res.Output:
				res.Agree = false
				res.Errors = append(res.Errors, label+": output differs from serial")
				return rep.Wall
			}
			walls[i] = rep.Wall
		}
		slices.Sort(walls)
		return walls[timedRuns/2]
	}

	// T_orig: pipelined execution of the original script.
	res.TOrig = timed("pipelined", kumquat.Pipelined, 1)
	for _, k := range h.Ks {
		res.U[k] = timed(fmt.Sprintf("u%d", k), kumquat.Unoptimized, k)
		res.T[k] = timed(fmt.Sprintf("T%d", k), kumquat.Optimized, k)
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

// PlanOnly plans every catalog script without running any of it (the fast
// path for Table 3).
func (h *Harness) PlanOnly(ctx context.Context) ([]*ScriptResult, error) {
	var out []*ScriptResult
	for _, spec := range Catalog() {
		res, _, err := h.planScript(ctx, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
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
