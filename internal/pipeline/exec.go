package pipeline

import (
	"context"
	"strings"

	"kumquat/internal/unix"
)

// The four Run* entry points are compatibility wrappers over Plan.Execute:
// they accept and return whole strings, but run on the same region walker
// (walk.go), so their outputs are byte-identical to a streamed run.

// runString executes the plan in the given mode over string input/output.
func (p *Plan) runString(env *unix.Env, stdin string, mode Mode, k int) (string, error) {
	var out strings.Builder
	_, err := p.Execute(context.Background(), env, strings.NewReader(stdin), &out, mode, k)
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// RunSerial executes every stage to completion in order — the u1
// configuration of the paper's measurement infrastructure (each stage's
// output is materialized before the next stage starts).
func (p *Plan) RunSerial(env *unix.Env, stdin string) (string, error) {
	return p.runString(env, stdin, ModeSerial, 1)
}

// RunParallel executes the unoptimized data-parallel pipeline (u_k): every
// parallelizable stage splits its input k ways, runs k instances, and
// applies its combiner; stage boundaries are barriers.
func (p *Plan) RunParallel(env *unix.Env, stdin string, k int) (string, error) {
	return p.runString(env, stdin, ModeUnoptimized, k)
}

// RunOptimized executes the optimized data-parallel pipeline (T_k):
// eliminated combiners keep the stream split across consecutive parallel
// stages, so a run of stages with eliminated combiners executes as k
// independent sub-pipelines (Figure 5c); line-streaming stages overlap
// through pipes.
func (p *Plan) RunOptimized(env *unix.Env, stdin string, k int) (string, error) {
	return p.runString(env, stdin, ModeOptimized, k)
}

// RunPipelined executes the original pipeline with Unix-style pipelined
// parallelism (the T_orig configuration): stages run concurrently,
// connected by pipes; streaming-capable commands stream, everything else
// buffers its whole input before writing its output.
func (p *Plan) RunPipelined(env *unix.Env, stdin string) (string, error) {
	return p.runString(env, stdin, ModePipelined, 1)
}
