package pipeline

import (
	"context"
	"fmt"
	"strings"

	"kumquat/internal/dataflow"
	"kumquat/internal/synth"
	"kumquat/internal/synth/cache"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// StagePlan is the planner's verdict for one command stage: the
// dataflow.Stage it lowers as, and what the lowering read back.
type StagePlan struct {
	dataflow.Stage
	// Eliminated marks parallel stages whose combiner Theorem 5 removes:
	// their output substreams feed the next parallel stage directly. It is
	// read off the Theorem-5-only program (Table 3's count), not decided
	// here.
	Eliminated bool
}

// Plan is the compiled data-parallel pipeline.
type Plan struct {
	InputFile string
	Stages    []*StagePlan
	// SynthStats is the combiner-cache activity of this compilation,
	// attributed per stage-synthesis call (exact under concurrent use of
	// the shared engine, unlike a windowed Stats delta).
	SynthStats cache.Stats
	// Program is the optimizer's rewritten region sequence over the
	// pipeline's dataflow graph (Program.Graph) — what Optimized mode
	// walks with fusion on.
	Program *dataflow.Program
	// The other configurations' programs over the same graph (see
	// Execute): theorem5 keeps only Theorem 5's split exits, and
	// unrewritten is one region per stage, every exit a combine.
	theorem5, unrewritten *dataflow.Program
}

// script is the pipeline's text as the Env records its runs: the input
// file and the stage specs.
func (p *Plan) script() string {
	specs := make([]string, len(p.Stages))
	for i, sp := range p.Stages {
		specs[i] = sp.Spec
	}
	return p.InputFile + "\x00" + strings.Join(specs, " | ")
}

// disable is the Optimize options with the given rules turned off.
func disable(rules ...dataflow.Rule) dataflow.Options {
	o := dataflow.Options{Disable: map[dataflow.Rule]bool{}}
	for _, r := range rules {
		o.Disable[r] = true
	}
	return o
}

var (
	// theorem5Only disables every dataflow rewrite (dataflow.Rules),
	// leaving Theorem 5's splits — the WithFuse(false) program.
	theorem5Only = disable(dataflow.Rules...)
	// noRewrite disables Theorem 5 as well: the stage-at-a-time program.
	noRewrite = disable(append([]dataflow.Rule{dataflow.RuleTheorem5}, dataflow.Rules...)...)
)

// CompileContext synthesizes a combiner for every stage, applies the
// paper's planning decision to run non-reducing rerun stages sequentially,
// synthesizes the fragment `prod | cons` for every stage pair the
// fragment rule may join (dataflow.FragmentPair), and lowers the result
// to the dataflow programs the executor walks (intermediate combiner
// elimination, §3.5, happens there). Repeated stages and fragments —
// within one pipeline or across pipelines compiled through the same
// engine — resolve from the engine's combiner cache instead of re-running
// synthesis. A cancelled ctx aborts the in-flight synthesis mid-round
// and returns ctx.Err(). The stage commands are bound to the engine's own
// Env; CompileIn binds them to the Env the plan executes in.
func CompileContext(ctx context.Context, p *Pipeline, eng *synth.Engine) (*Plan, error) {
	return CompileIn(ctx, p, eng, eng.Env)
}

// CompileIn is CompileContext for a plan that executes in env: its stage
// commands are bound to env, so the files they read when they run (comm's
// and diff's operands, xargs's names, the redirects of the script's
// earlier pipelines) are env's, while synthesis observes the commands in
// the engine's own Env. Execute the plan in env.
func CompileIn(ctx context.Context, p *Pipeline, eng *synth.Engine, env *unix.Env) (*Plan, error) {
	plan := &Plan{InputFile: p.InputFile}
	for _, spec := range p.Stages {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %q: %w", spec, err)
		}
		sp := &StagePlan{Stage: dataflow.Stage{Spec: spec, Cmd: cmd}}
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
	for i := 0; i+1 < len(plan.Stages); i++ {
		prod, cons := plan.Stages[i], plan.Stages[i+1]
		if !dataflow.FragmentPair(prod.Stage, cons.Stage) {
			continue
		}
		res, tier, _ := eng.SynthesizeTier(ctx, prod.Spec+" | "+cons.Spec)
		plan.SynthStats = plan.SynthStats.Add(tier.Count())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prod.Fragment = res
	}
	plan.lower()
	return plan, nil
}

// lower builds the plan's dataflow graph and the three programs the
// configurations walk over it, each optimized with the rules its
// configuration allows.
func (p *Plan) lower() {
	stages := make([]dataflow.Stage, len(p.Stages))
	for i, sp := range p.Stages {
		stages[i] = sp.Stage
	}
	g := dataflow.Build(p.InputFile, stages)
	p.Program = dataflow.Optimize(g, dataflow.Options{})
	p.theorem5 = dataflow.Optimize(g, theorem5Only)
	p.unrewritten = dataflow.Optimize(g, noRewrite)
	for _, r := range p.theorem5.Regions {
		if r.Exit == dataflow.ExitSplit {
			p.Stages[r.Nodes[len(r.Nodes)-1]].Eliminated = true
		}
	}
}

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
