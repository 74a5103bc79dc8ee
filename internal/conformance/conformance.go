// Package conformance is the test plane of the reproduction: a
// differential-testing subsystem that generates random-but-valid pipelines
// and corpora from the unix command catalog, runs each through every
// execution mode × worker count × fuse setting × stdin kind, and diffs the
// result byte-for-byte against the serial oracle (the paper's u_1
// configuration — the semantics every parallel configuration must
// reproduce exactly).
//
// The plane has four parts, mirroring the four runtime planes it guards:
//
//   - gen.go: a seeded, deterministic generator of pipeline scripts and
//     input corpora (GenCase), so every failure is replayable from
//     (seed, index) alone;
//   - oracle.go: the differential harness (runCase) that executes one
//     case under every Config and reports Divergences;
//   - shrink.go: ddmin-style minimization (ShrinkCase, ShrinkLines) that
//     reduces a diverging case to a minimal reproducing corpus and stage
//     list;
//   - adversarial.go + serve.go: combiner stress validation on
//     adversarial corpora through the k-way combine at two merge widths,
//     and a replay of the generated suite through a live kumquatd over
//     the typed client, holding the HTTP plane to the same oracle.
//
// The kqconform command (cmd/kqconform) drives Run with CLI flags and
// emits the Report as JSON; CI runs it as a smoke alongside the fuzz
// targets FuzzParser (internal/pipeline) and FuzzCombiner (internal/dsl).
package conformance

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kumquat"
)

// Options configures one conformance run.
type Options struct {
	// Seed is the generator seed; the same (Seed, N) always produces the
	// same suite.
	Seed int64
	// N is the number of generated cases.
	N int
	// Shrink minimizes every diverging case before reporting it.
	Shrink bool
	// FailFast stops the run at the first diverging case, shrinking its
	// divergence immediately (even when Shrink is off) so the tightest
	// repro surfaces without waiting for the rest of the suite.
	FailFast bool
	// Serve replays the generated suite through a live loopback kumquatd
	// and holds the HTTP plane to the same serial oracle.
	Serve bool
	// Cluster replays the generated suite through a loopback 3-worker
	// cluster behind fault-injecting proxies (with mid-suite worker
	// kills) and holds the chaos plane to the same serial oracle.
	Cluster bool
	// Adversarial stress-validates the synthesized combiners of the
	// generator's command pool on the adversarial corpora.
	Adversarial bool
	// SynthWorkers bounds the synthesis engine's worker pool
	// (0 = GOMAXPROCS).
	SynthWorkers int
}

// Report is kqconform's JSON output: the run configuration, how much was
// executed, and every divergence that survived shrinking.
type Report struct {
	// Seed and Cases echo the generator configuration.
	Seed  int64 `json:"seed"`
	Cases int   `json:"cases"`
	// Configs is the number of execution configurations each case ran
	// under (in addition to the serial oracle run).
	Configs int `json:"configs"`
	// Executions counts every plan execution, oracle runs included.
	Executions int `json:"executions"`
	// MemoHits counts the chunks the second Optimized runs in a row took
	// from their Env's segment memo (see runCase): the proof that the
	// forced-memo runs, held to the oracle like every other, reused
	// chunks rather than re-running them.
	MemoHits int `json:"memo_hits"`
	// Rewrites counts, per rule, how often the dataflow optimizer's
	// rewrites fired across the suite's compiled plans — the proof that a
	// green run actually exercised each fusion rule rather than never
	// triggering it.
	Rewrites map[string]int `json:"rewrites"`
	// Divergences lists every case × configuration whose output differed
	// from the serial oracle (empty on a healthy tree).
	Divergences []Divergence `json:"divergences"`
	// Adversarial summarizes the combiner stress validation (nil when
	// disabled).
	Adversarial *StressReport `json:"adversarial,omitempty"`
	// Serve summarizes the kumquatd replay (nil when disabled).
	Serve *ServeReport `json:"serve,omitempty"`
	// Cluster summarizes the chaos cluster replay (nil when disabled).
	Cluster *ChaosReport `json:"cluster,omitempty"`
	// WallMS is the whole run's wall-clock time.
	WallMS float64 `json:"wall_ms"`
	// OK is true when no plane diverged from the oracle.
	OK bool `json:"ok"`
}

// Run executes the full conformance suite: N generated cases through
// every execution configuration, optional combiner stress validation,
// and an optional replay through a live kumquatd. All cases share one
// kumquat.System so the combiner caches warm across cases exactly as
// they do in production.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.N <= 0 {
		opts.N = 25
	}
	start := time.Now()
	sys := kumquat.NewWithOptions(kumquat.NewEnv(),
		kumquat.Options{Seed: 1, Workers: opts.SynthWorkers})
	configs := Configs()
	rep := &Report{Seed: opts.Seed, Cases: opts.N, Configs: len(configs),
		Divergences: []Divergence{}, Rewrites: map[string]int{}}
	cases := make([]*Case, 0, opts.N)
	oracles := make([]oracleResult, 0, opts.N)
	for i := 0; i < opts.N; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := GenCase(opts.Seed, i)
		cases = append(cases, c)
		run, err := runCase(ctx, sys, c, configs)
		if err != nil {
			return nil, fmt.Errorf("conformance: case %d: %w", i, err)
		}
		oracles = append(oracles, run.oracle)
		rep.Executions += run.execs
		rep.MemoHits += run.memoHits
		for rule, n := range run.plan.Rewrites() {
			rep.Rewrites[rule] += n
		}
		for _, d := range run.divs {
			if opts.Shrink || opts.FailFast {
				d.Shrunk = ShrinkCase(ctx, sys, c, d.Config)
			}
			rep.Divergences = append(rep.Divergences, d)
			if opts.FailFast {
				break
			}
		}
		if opts.FailFast && len(rep.Divergences) > 0 {
			rep.Cases = i + 1
			break
		}
	}
	if opts.Adversarial {
		sr, err := StressCombiners(ctx, sys, StressSpecs(), opts.Shrink)
		if err != nil {
			return nil, err
		}
		rep.Adversarial = sr
	}
	if opts.Serve {
		sr, err := replayServe(ctx, sys, cases,
			replayOptions{K: replayParallelism(), SynthWorkers: opts.SynthWorkers}, oracles)
		if err != nil {
			return nil, err
		}
		rep.Serve = sr
	}
	if opts.Cluster {
		cr, err := ReplayCluster(ctx, cases,
			ClusterOptions{Seed: opts.Seed, SynthWorkers: opts.SynthWorkers}, oracles)
		if err != nil {
			return nil, err
		}
		rep.Cluster = cr
	}
	rep.WallMS = float64(time.Since(start).Microseconds()) / 1000
	rep.OK = len(rep.Divergences) == 0 &&
		(rep.Adversarial == nil || len(rep.Adversarial.Failures) == 0) &&
		(rep.Serve == nil || len(rep.Serve.Divergences) == 0) &&
		(rep.Cluster == nil || len(rep.Cluster.Divergences) == 0)
	return rep, nil
}

// replayParallelism is the data-parallelism degree the serve replay asks
// the daemon for: wide enough to chunk, independent of the host's CPUs so
// the suite is reproducible across machines.
func replayParallelism() int { return 4 }

// workerCounts is the deduplicated worker-count sweep {1, 4, GOMAXPROCS}.
func workerCounts() []int {
	ks := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := ks[:0]
	for _, k := range ks {
		if k >= 1 && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
