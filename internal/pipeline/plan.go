package pipeline

import (
	"context"
	"fmt"

	"kumquat/internal/dataflow"
	"kumquat/internal/synth"
	"kumquat/internal/synth/cache"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// StagePlan is the planner's verdict for one command stage.
type StagePlan struct {
	Spec string
	Cmd  unix.Command
	// Synth is the synthesis result; Synth.Err != nil means no combiner.
	Synth *synth.Result
	// Parallel marks stages executed data-parallel with a combiner.
	Parallel bool
	// Sequential marks stages with only a rerun combiner and no
	// significant stream reduction: parallelizing them costs more than it
	// saves, so they run serially (§2's tr -cs decision).
	Sequential bool
	// Eliminated marks parallel stages whose combiner Theorem 5 removes:
	// their output substreams feed the next parallel stage directly. It is
	// read off the Theorem-5-only program (Table 3's count), not decided
	// here.
	Eliminated bool
	// StreamOutput records whether the command's outputs terminate with
	// newlines — Theorem 5's precondition (tr -d '\n' violates it).
	StreamOutput bool
}

// Plan is the compiled data-parallel pipeline.
type Plan struct {
	InputFile string
	Stages    []*StagePlan
	// SynthStats is the combiner-cache activity of this compilation,
	// attributed per stage-synthesis call (exact under concurrent use of
	// the shared engine, unlike a windowed Stats delta).
	SynthStats cache.Stats
	// Graph is the pipeline lowered into the order-aware dataflow IR, and
	// Program is the optimizer's rewritten region sequence over it — what
	// Optimized mode walks with fusion on.
	Graph   *dataflow.Graph
	Program *dataflow.Program
	// The other configurations' programs (see Execute): theorem5 is the
	// graph optimized with the three dataflow rewrites disabled, serial and
	// stagewise are the unrewritten one-region-per-stage lowerings.
	theorem5, serial, stagewise *dataflow.Program
}

// theorem5Only disables the three dataflow rewrites, leaving Optimize's
// Theorem 5 splits — the WithFuse(false) program.
var theorem5Only = dataflow.Options{Disable: map[dataflow.Rule]bool{
	dataflow.RuleFuseStreamers: true,
	dataflow.RuleElideCombine:  true,
	dataflow.RulePushSortMerge: true,
}}

// CompileContext synthesizes a combiner for every stage, applies the
// paper's planning decision to run non-reducing rerun stages sequentially,
// and lowers the result to the dataflow programs the executor walks
// (intermediate combiner elimination, §3.5, happens there). Repeated stages —
// within one pipeline or across pipelines compiled through the same
// engine — resolve from the engine's combiner cache instead of re-running
// synthesis. A cancelled ctx aborts the in-flight stage synthesis
// mid-round and returns ctx.Err().
func CompileContext(ctx context.Context, p *Pipeline, eng *synth.Engine) (*Plan, error) {
	plan := &Plan{InputFile: p.InputFile}
	for _, spec := range p.Stages {
		cmd, err := unix.Parse(spec, eng.Env)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %q: %w", spec, err)
		}
		sp := &StagePlan{Spec: spec, Cmd: cmd}
		res, tier, _ := eng.SynthesizeTier(ctx, spec)
		plan.SynthStats = plan.SynthStats.Add(tier.Count())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp.Synth = res
		if res != nil && res.Err == nil {
			sp.Parallel = true
			// Rerun-only stages execute sequentially: re-running the
			// command over the concatenated substreams re-does the whole
			// computation, so data parallelism buys nothing (§2's tr -cs
			// decision; Table 3 applies it to every rerun-only stage,
			// e.g. sed 100q in top-n.sh and head -n 3 in unix50 12.sh).
			if res.Combiner.IsRerunOnly() {
				sp.Parallel = false
				sp.Sequential = true
			}
		}
		sp.StreamOutput = probeStreamOutput(cmd)
		plan.Stages = append(plan.Stages, sp)
	}
	plan.lower(dataflow.Options{})
	return plan, nil
}

// lower builds the plan's dataflow IR and every configuration's program;
// opts shape only the rewritten Program. CompileContext runs it with default
// options; tests re-lower with ablation or deliberately-unsound options
// to pin the optimizer's behaviour.
func (p *Plan) lower(opts dataflow.Options) {
	stages := make([]dataflow.Stage, len(p.Stages))
	for i, sp := range p.Stages {
		stages[i] = dataflow.Stage{
			Spec:         sp.Spec,
			Cmd:          sp.Cmd,
			Synth:        sp.Synth,
			Parallel:     sp.Parallel,
			Sequential:   sp.Sequential,
			StreamOutput: sp.StreamOutput,
		}
	}
	p.Graph = dataflow.Build(p.InputFile, stages)
	p.Program = dataflow.Optimize(p.Graph, opts)
	p.theorem5 = dataflow.Optimize(p.Graph, theorem5Only)
	p.serial = dataflow.Stagewise(p.Graph, false)
	p.stagewise = dataflow.Stagewise(p.Graph, true)
	for _, r := range p.theorem5.Regions {
		if r.Exit == dataflow.ExitSplit {
			p.Stages[r.Nodes[len(r.Nodes)-1]].Eliminated = true
		}
	}
}

// Relower rebuilds the plan's optimized program under explicit optimizer
// options (ablating rules, or the deliberately-unsound legality knobs the
// conformance regression tests use).
func (p *Plan) Relower(opts dataflow.Options) { p.lower(opts) }

// probeStreamOutput checks Theorem 5's precondition on sample inputs: the
// command must produce newline-terminated (or empty) output.
func probeStreamOutput(cmd unix.Command) bool {
	for _, in := range []string{"xq zv\nqm\n", "ab\n\ncd ef\n"} {
		out, err := cmd.Run(in)
		if err != nil {
			continue
		}
		if out != "" && !textio.IsStream(out) {
			return false
		}
	}
	return true
}

// Counts summarizes the plan for Table 3: parallelized stages k, total
// stages n, and eliminated combiners.
func (p *Plan) Counts() (parallelized, total, eliminated int) {
	for _, sp := range p.Stages {
		total++
		if sp.Parallel {
			parallelized++
		}
		if sp.Eliminated {
			eliminated++
		}
	}
	return
}
