package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"kumquat/internal/dataflow"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// samples collects durations by name across traced ops.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }
func (s samples) med(name string) time.Duration    { return median(s[name]) }

// tracedOp is what one decomposed batch op produced.
type tracedOp struct {
	out    string
	plan   *pipeline.Plan
	stages []pipeline.StageMetrics
	info   pipeline.RunInfo
	wall   time.Duration // the whole op
	exec   time.Duration // its pipeline.execute span
}

// tracedBatchOp runs one batch op as the sequence of public module calls
// it is made of, each under a span:
//
//	op → bind (textio.map, textio.index) → kumquat.plan (pipeline.parse,
//	synth.lookup × stages, pipeline.compile, dataflow.optimize) →
//	pipeline.execute
//
// bind returns the op's environment with its input registered as in.txt,
// recording what that took under the given parent span. eng must already
// hold the script's combiners (plans are warm).
func tracedBatchOp(ctx context.Context, tr *tracer, sm samples, op int, eng *synth.Engine, script string, k int,
	bind func(parent int) (*unix.Env, error)) (*tracedOp, error) {
	res := &tracedOp{}
	var err error
	res.wall, err = tr.do(-1, op, "bench", "op", func(root int) error {
		env, err := bind(root)
		if err != nil {
			return err
		}
		d, err := tr.do(root, op, "textio", "textio.index", func(int) error {
			_, err := env.FS.ReadSeq("in.txt")
			return err
		})
		if err != nil {
			return err
		}
		sm.add("textio.index", d)

		_, err = tr.do(root, op, "kumquat", "kumquat.plan", func(planSpan int) error {
			var parsed *pipeline.Script
			d, err := tr.do(planSpan, op, "pipeline", "pipeline.parse", func(int) error {
				var err error
				parsed, err = pipeline.ParseScript(script, nil)
				return err
			})
			if err != nil {
				return err
			}
			sm.add("pipeline.parse", d)
			pl := parsed.Pipelines[0]
			for _, spec := range pl.Stages {
				d, err := tr.do(planSpan, op, "synth", "synth.lookup", func(int) error {
					_, tier, err := eng.SynthesizeTier(ctx, spec)
					if err == nil && !tier.Cached() {
						err = fmt.Errorf("stage %q was not warm (tier %s)", spec, tier)
					}
					return err
				})
				if err != nil {
					return err
				}
				sm.add("synth.lookup", d)
			}
			d, err = tr.do(planSpan, op, "pipeline", "pipeline.compile", func(int) error {
				var err error
				res.plan, err = pipeline.CompileContext(ctx, pl, eng)
				return err
			})
			if err != nil {
				return err
			}
			sm.add("pipeline.compile", d)
			d, _ = tr.do(planSpan, op, "dataflow", "dataflow.optimize", func(int) error {
				dataflow.Optimize(dataflow.Build(res.plan.InputFile, lowerStages(res.plan)), dataflow.Options{})
				return nil
			})
			sm.add("dataflow.optimize", d)
			return nil
		})
		if err != nil {
			return err
		}

		var out strings.Builder
		d, err = tr.do(root, op, "pipeline", "pipeline.execute", func(int) error {
			var err error
			res.stages, err = res.plan.Execute(ctx, env, nil, &out, pipeline.ModeOptimized, k, pipeline.WithRunInfo(&res.info))
			return err
		})
		if err != nil {
			return err
		}
		sm.add("pipeline.execute", d)
		res.exec = d
		res.out = out.String()
		return nil
	})
	return res, err
}

// lowerStages rebuilds the dataflow lowering input from a compiled plan.
func lowerStages(p *pipeline.Plan) []dataflow.Stage {
	stages := make([]dataflow.Stage, len(p.Stages))
	for i, sp := range p.Stages {
		stages[i] = dataflow.Stage{
			Spec: sp.Spec, Cmd: sp.Cmd, Synth: sp.Synth,
			Parallel: sp.Parallel, Sequential: sp.Sequential, StreamOutput: sp.StreamOutput,
		}
	}
	return stages
}

// execString runs one command single-threaded through unix.Exec.
func execString(ctx context.Context, cmd unix.Command, in string) (string, error) {
	var out strings.Builder
	err := unix.Exec(ctx, cmd, strings.NewReader(in), &out)
	return out.String(), err
}

// replay decomposes the execute from outside, stage by stage: the whole
// recorded stage input through unix.Exec (kernel throughput and
// allocations per line), then — for stages the planner parallelized —
// unix.Exec on each of the k line-aligned chunks and the synthesized
// Combiner.CombineKTree over the chunk outputs, which must reproduce the
// serial stage output byte for byte. It returns the final stream.
func replay(ctx context.Context, tr *tracer, op int, plan *pipeline.Plan, input string, k int, m map[string]float64) (string, error) {
	var final string
	_, err := tr.do(-1, op, "bench", "replay", func(root int) error {
		in := input
		for _, sp := range plan.Stages {
			slug := stageSlugs[sp.Spec]
			if slug == "" {
				return fmt.Errorf("replay: no slug for stage %q", sp.Spec)
			}
			var serial string
			before := readMem()
			d, err := tr.do(root, op, "unix", "unix.exec "+slug, func(int) error {
				var err error
				serial, err = execString(ctx, sp.Cmd, in)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay %q: %w", sp.Spec, err)
			}
			md := memSince(before)
			m["unix."+slug+".mb_s"] = mbPerS(int64(len(in)), d)
			if lines := strings.Count(in, "\n"); lines > 0 {
				m["unix."+slug+".allocs_per_line"] = float64(md.mallocs) / float64(lines)
			}

			if sp.Parallel && sp.Synth != nil && sp.Synth.Combiner != nil {
				chunks := textio.ChunkLines(in, k)
				outs := make([]string, len(chunks))
				for j, c := range chunks {
					if _, err := tr.do(root, op, "unix", fmt.Sprintf("unix.exec %s chunk %d", slug, j), func(int) error {
						var err error
						outs[j], err = execString(ctx, sp.Cmd, c)
						return err
					}); err != nil {
						return fmt.Errorf("replay %q chunk %d: %w", sp.Spec, j, err)
					}
				}
				var combined string
				d, err := tr.do(root, op, "dsl", "dsl.combine "+slug, func(int) error {
					var err error
					combined, err = sp.Synth.Combiner.CombineKTree(outs, k)
					return err
				})
				if err != nil {
					return fmt.Errorf("replay combine %q: %w", sp.Spec, err)
				}
				if err := mismatch("combine of "+sp.Spec, combined, serial); err != nil {
					return err
				}
				switch slug {
				case "sort", "uniq-c", "sort-rn":
					m["dsl.combine."+slug+".ms"] = ms(d)
				case "wc-l":
					m["dsl.combine.wc-l.us"] = us(d)
				}
				if slug == "sort" {
					d, err := combineK(ctx, tr, root, op, sp, in, 32)
					if err != nil {
						return err
					}
					m["dsl.combine.k32.ms"] = ms(d)
				}
			}
			in = serial
		}
		final = in
		return nil
	})
	return final, err
}

// combineK times the stage's combiner over n chunk outputs.
func combineK(ctx context.Context, tr *tracer, parent, op int, sp *pipeline.StagePlan, in string, n int) (time.Duration, error) {
	chunks := textio.ChunkLines(in, n)
	outs := make([]string, len(chunks))
	if _, err := tr.do(parent, op, "unix", fmt.Sprintf("unix.exec %s × %d chunks", sp.Spec, n), func(int) error {
		for j, c := range chunks {
			var err error
			if outs[j], err = execString(ctx, sp.Cmd, c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return tr.do(parent, op, "dsl", fmt.Sprintf("dsl.combine %s k=%d", sp.Spec, n), func(int) error {
		_, err := sp.Synth.Combiner.CombineKTree(outs, n)
		return err
	})
}

// runMode executes the plan in one mode and checks the output.
func runMode(ctx context.Context, plan *pipeline.Plan, env *unix.Env, mode pipeline.Mode, k int, want string, opts ...pipeline.ExecOpt) (time.Duration, error) {
	var out strings.Builder
	d, err := timeIt(func() error {
		_, err := plan.Execute(ctx, env, nil, &out, mode, k, opts...)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s run: %w", mode, err)
	}
	return d, mismatch(mode.String()+" output", out.String(), want)
}

// modeLayers runs the other executors over the same input: the
// single-threaded baseline (the base of pipeline.speedup_x, the paper's
// Table 5 number), unoptimized u_k and pipelined T_orig.
func modeLayers(ctx context.Context, res *layerResult, plan *pipeline.Plan, env *unix.Env, k int, want string) {
	for _, mode := range []struct {
		metric string
		mode   pipeline.Mode
	}{
		{"pipeline.serial_ms", pipeline.ModeSerial},
		{"pipeline.unoptimized_ms", pipeline.ModeUnoptimized},
		{"pipeline.pipelined_ms", pipeline.ModePipelined},
	} {
		d, err := runMode(ctx, plan, env, mode.mode, k, want)
		res.check(err)
		res.metrics[mode.metric] = ms(d)
	}
}

// pipelineLayers fills the pipeline.*, dataflow.* and plan-side
// metrics from the traced ops and the run report of the last one.
func pipelineLayers(m map[string]float64, sm samples, last *tracedOp) {
	m["pipeline.parse_us"] = us(sm.med("pipeline.parse"))
	m["pipeline.compile_warm_us"] = us(sm.med("pipeline.compile"))
	m["pipeline.exec_ms"] = ms(sm.med("pipeline.execute"))
	if exec := sm.med("pipeline.execute"); exec > 0 && m["pipeline.serial_ms"] > 0 {
		m["pipeline.speedup_x"] = m["pipeline.serial_ms"] / ms(exec)
	}
	m["dataflow.build_optimize_us"] = us(sm.med("dataflow.optimize"))
	m["synth.warm_hit_us"] = us(sm.med("synth.lookup"))

	var busy, combine time.Duration
	var between int64
	chunks := 0
	for i, st := range last.stages {
		busy += st.Wall
		combine += st.CombineWall
		chunks += st.Chunks
		if i < len(last.stages)-1 {
			between += st.BytesOut
		}
	}
	for _, rg := range last.info.Regions {
		combine += rg.CombineWall
	}
	m["pipeline.stage_busy_ms"] = ms(busy)
	m["pipeline.combine_ms"] = ms(combine)
	if last.exec > 0 {
		m["pipeline.combine_share"] = float64(combine) / float64(last.exec)
	}
	m["pipeline.bytes_between_mb"] = float64(between) / 1e6
	m["pipeline.chunks"] = float64(chunks)

	if p := last.plan.Program; p != nil {
		m["dataflow.regions"] = float64(len(p.Regions))
		for _, rule := range []dataflow.Rule{dataflow.RuleFuseStreamers, dataflow.RuleElideCombine, dataflow.RulePushSortMerge} {
			m["dataflow.fired."+string(rule)] = float64(p.Fired[rule])
		}
	}
}

// memLayers fills the allocator metrics from a profiled baseline window.
func memLayers(m map[string]float64, w *window) {
	if w.done == 0 {
		return
	}
	if w.lines > 0 {
		m["pipeline.allocs_per_line"] = float64(w.mem.mallocs) / float64(w.lines)
	}
	m["pipeline.alloc_mb_per_op"] = float64(w.mem.bytes) / 1e6 / float64(w.done)
	m["pipeline.gc_pause_ms_per_op"] = ms(w.mem.pause) / float64(w.done)
}
