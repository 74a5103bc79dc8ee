package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// fuseScript is the fusion workload: a long run of concat-class line
// mappers — the shape the fuse-streamers rewrite collapses into one
// per-chunk pass — followed by a sort-class reduction so the program also
// exercises the merge boundary. Unfused, every streamer materializes its
// full intermediate stream per chunk; fused, the region makes one pass.
const fuseScript = `cat in/fuse.txt | tr a-z A-Z | tr -d '.' | grep 'O' | sed 's/THE/the/' | cut -c 1-48 | grep GOLD | sort | uniq -c` + "\n"

// FuseRun is one (k, fuse) configuration's measurement.
type FuseRun struct {
	K    int  `json:"k"`
	Fuse bool `json:"fuse"`
	// WallMS is the best-of-rounds wall time; Allocs and AllocBytes are
	// that round's heap allocation count and volume (runtime.MemStats
	// deltas — single-process, so deltas are attributable).
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// FusePair is the fused-vs-unfused comparison at one parallelism degree.
type FusePair struct {
	K       int     `json:"k"`
	Unfused FuseRun `json:"unfused"`
	Fused   FuseRun `json:"fused"`
	// Speedup is unfused wall over fused wall; AllocRatio is unfused
	// allocations over fused allocations (>1 = fusion allocates less).
	Speedup    float64 `json:"speedup"`
	AllocRatio float64 `json:"alloc_ratio"`
}

// FuseComparison is the BENCH_fuse.json payload: the streamer-chain
// workload run with the graph-walking fused executor on and off at each
// parallelism degree, with byte-agreement against the serial oracle and
// the optimizer's fire counters for the compiled program.
type FuseComparison struct {
	Pipeline string         `json:"pipeline"`
	Scale    int            `json:"scale_lines"`
	Rounds   int            `json:"rounds"`
	CPUs     int            `json:"cpus"`
	Rewrites map[string]int `json:"rewrites"`
	Pairs    []FusePair     `json:"pairs"`
	// Agree is true when every configuration reproduced the serial
	// oracle byte-for-byte.
	Agree bool `json:"agree"`
}

// CompareFusion measures the fused executor against the stage-at-a-time
// optimized path on the streamer-chain workload at k ∈ {4, 32}. Each
// configuration runs `rounds` times and reports the fastest round — the
// comparison targets executor overhead, not scheduler noise.
func CompareFusion(ctx context.Context, scale int) (*FuseComparison, error) {
	if scale <= 0 {
		scale = 20000
	}
	const rounds = 5
	env := unix.DefaultEnv()
	env.FS.Register("in/fuse.txt", genWordfreqInput(scale))
	syn := synth.New(env, synth.Options{Seed: 1})
	script, err := pipeline.ParseScript(fuseScript, nil)
	if err != nil {
		return nil, err
	}
	plan, err := pipeline.CompileContext(ctx, script.Pipelines[0], syn)
	if err != nil {
		return nil, err
	}
	cmp := &FuseComparison{
		Pipeline: "fuse-chain",
		Scale:    scale,
		Rounds:   rounds,
		CPUs:     runtime.NumCPU(),
		Rewrites: make(map[string]int, len(plan.Program.Fired)),
		Agree:    true,
	}
	for rule, n := range plan.Program.Fired {
		cmp.Rewrites[string(rule)] = n
	}

	var oracle strings.Builder
	if _, err := plan.Execute(ctx, env, nil, &oracle, pipeline.ModeSerial, 1); err != nil {
		return nil, fmt.Errorf("bench: fuse oracle: %w", err)
	}
	want := oracle.String()

	measure := func(k int, fuse bool) (FuseRun, error) {
		run := FuseRun{K: k, Fuse: fuse}
		for r := 0; r < rounds; r++ {
			var out strings.Builder
			out.Grow(len(want))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := plan.Execute(ctx, env, nil, &out,
				pipeline.ModeOptimized, k, pipeline.WithFuse(fuse))
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return run, fmt.Errorf("bench: fuse k=%d fuse=%v: %w", k, fuse, err)
			}
			if out.String() != want {
				cmp.Agree = false
			}
			if ms := float64(wall.Microseconds()) / 1000; run.WallMS == 0 || ms < run.WallMS {
				run.WallMS = ms
				run.Allocs = after.Mallocs - before.Mallocs
				run.AllocBytes = after.TotalAlloc - before.TotalAlloc
			}
		}
		return run, nil
	}

	for _, k := range []int{4, 32} {
		unfused, err := measure(k, false)
		if err != nil {
			return nil, err
		}
		fused, err := measure(k, true)
		if err != nil {
			return nil, err
		}
		pair := FusePair{K: k, Unfused: unfused, Fused: fused}
		if fused.WallMS > 0 {
			pair.Speedup = unfused.WallMS / fused.WallMS
		}
		if fused.Allocs > 0 {
			pair.AllocRatio = float64(unfused.Allocs) / float64(fused.Allocs)
		}
		cmp.Pairs = append(cmp.Pairs, pair)
	}
	return cmp, nil
}
