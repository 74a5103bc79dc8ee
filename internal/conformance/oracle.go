package conformance

import (
	"context"
	"fmt"
	"io"
	"strings"

	"kumquat"
	"kumquat/internal/pipeline"
	"kumquat/internal/unix"
)

// Config is one execution configuration of the differential sweep: an
// execution mode, a data-parallelism degree, the program optimized mode
// walks, and the kind of stdin.
type Config struct {
	// Mode is the execution mode name ("optimized", "unoptimized",
	// "serial", "pipelined") — the JSON-friendly form of kumquat.Mode.
	Mode string `json:"mode"`
	// K is the data-parallelism degree.
	K int `json:"k"`
	// NoFuse makes optimized-mode rows walk the Theorem-5-only program
	// instead of the rewritten one. Fusion is on by default, so the plain
	// optimized rows exercise the rewritten program and these are the
	// explicit fuse-off ablation.
	NoFuse bool `json:"no_fuse,omitempty"`
	// ExternalStdin feeds a stdin-sourced case's corpus through a reader
	// the executor cannot see through, so it takes the live-stream path a
	// socket or terminal would (file-sourced cases are unaffected).
	ExternalStdin bool `json:"external_stdin,omitempty"`
}

// Configs enumerates the sweep every case runs under: optimized and
// unoptimized at every worker count in {1, 4, GOMAXPROCS} (a merge
// combine splits into the chunk pool's width, min(k, GOMAXPROCS), of key
// ranges, every other combiner folds left, and the synth package's
// combine tests hold every width to the same bytes),
// optimized fuse-off ablation rows at every worker count (the plain
// optimized rows run the rewritten dataflow program, so both programs are
// held to the oracle), the serial (u_1) and pipelined (T_orig)
// configurations, and external-stdin rows for every configuration that
// treats a live source differently. Every mode runs on the one region
// walker, so the oracle is the independent reference below, not a mode.
func Configs() []Config {
	ks := workerCounts()
	var out []Config
	for _, mode := range []kumquat.Mode{kumquat.Optimized, kumquat.Unoptimized} {
		for _, k := range ks {
			out = append(out, Config{Mode: mode.String(), K: k})
		}
	}
	for _, k := range ks {
		out = append(out, Config{Mode: kumquat.Optimized.String(), K: k, NoFuse: true})
	}
	out = append(out,
		Config{Mode: kumquat.Serial.String(), K: 1},
		Config{Mode: kumquat.Pipelined.String(), K: 1})
	for _, k := range ks {
		out = append(out,
			Config{Mode: kumquat.Optimized.String(), K: k, ExternalStdin: true},
			Config{Mode: kumquat.Optimized.String(), K: k, NoFuse: true, ExternalStdin: true})
	}
	out = append(out,
		Config{Mode: kumquat.Serial.String(), K: 1, ExternalStdin: true},
		Config{Mode: kumquat.Pipelined.String(), K: 1, ExternalStdin: true})
	return out
}

// reference is the oracle every configuration is diffed against: the
// case's script parsed here, each stage's command run to completion over
// the previous stage's output, in order — no planner, no Program, no
// worker pool, no executor. It is deliberately a second path: the region
// walker runs every mode, Serial included, and must not be its own
// reference.
func reference(c *Case) (string, error) {
	script, err := pipeline.ParseScript(c.Script, nil)
	if err != nil {
		return "", err
	}
	env := unix.DefaultEnv()
	data := c.Corpus
	for _, spec := range script.Pipelines[0].Stages {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			return "", err
		}
		if data, err = cmd.Run(data); err != nil {
			return "", err
		}
	}
	return data, nil
}

// Divergence records one case × configuration whose result differed from
// the reference oracle.
type Divergence struct {
	// Case replays the failure (Corpus truncated for the report when
	// large; Seed+Index regenerate it exactly).
	Case *Case `json:"case"`
	// Config is the diverging execution configuration.
	Config Config `json:"config"`
	// Detail is a human-readable summary of the first difference.
	Detail string `json:"detail"`
	// Shrunk is the minimized reproducing case — possibly identical to
	// Case when no reduction preserved the failure. It is nil when
	// shrinking was disabled or the divergence did not reproduce on the
	// shrinker's re-run (a flaky failure).
	Shrunk *Case `json:"shrunk,omitempty"`
}

// oracleResult is one case's reference outcome, computed once and reused
// by every plane that diffs against it.
type oracleResult struct {
	out string
	err error
}

// caseRun is what runCase did with one case.
type caseRun struct {
	divs  []Divergence
	execs int
	// memoHits counts the chunks the second Optimized runs took from the
	// Env's segment memo.
	memoHits int
	oracle   oracleResult
	plan     *kumquat.Plan
}

// runCase compiles one case and executes it under every config,
// byte-diffing each result against the reference oracle. Every
// Optimized config that chunks (fuse on, an in-memory source, k > 1)
// runs twice in a row on the case's Env: the first run is a re-run of
// the Env's script (the k = 1 row ran it before), so it fills the Env's
// segment memo, and the second must take every chunk from it —
// the forced-memo run, held to the same oracle. It returns the
// divergences, the number of executions performed (oracle included),
// the memo hits, the oracle outcome and the compiled plan, so callers
// that diff further planes against the same case (the serve replay)
// reuse the oracle instead of re-running the reference, and Run
// aggregates the plan's optimizer fire counters into the report. A
// compile error is a generator bug and is returned as err.
func runCase(ctx context.Context, sys *kumquat.System, c *Case, configs []Config) (caseRun, error) {
	plan, err := compileCase(ctx, sys, c)
	if err != nil {
		return caseRun{}, err
	}
	want, wantErr := reference(c)
	run := caseRun{execs: 1, oracle: oracleResult{out: want, err: wantErr}, plan: plan}
	diverged := func(cfg Config, detail string) {
		run.divs = append(run.divs, Divergence{Case: c.forReport(), Config: cfg, Detail: detail})
	}
	for _, cfg := range configs {
		got, first, gotErr := execCase(ctx, plan, c, cfg)
		run.execs++
		if err := ctx.Err(); err != nil {
			return run, err
		}
		if detail, ok := diverges(want, wantErr, got, gotErr); !ok {
			diverged(cfg, detail)
			continue
		}
		if !memoized(cfg) || gotErr != nil {
			continue
		}
		got, second, gotErr := execCase(ctx, plan, c, cfg)
		run.execs++
		if err := ctx.Err(); err != nil {
			return run, err
		}
		if detail, ok := diverges(want, wantErr, got, gotErr); !ok {
			diverged(cfg, "second run on the same Env: "+detail)
			continue
		}
		h1, m1 := memoCounts(first)
		h2, m2 := memoCounts(second)
		if m2 > 0 || h2 != h1+m1 {
			diverged(cfg, fmt.Sprintf("second run on the same Env: the memo answered %d of %d chunks, want all %d",
				h2, h2+m2, h1+m1))
		}
		run.memoHits += h2
	}
	return run, nil
}

// memoCounts sums a run's segment-memo hits and misses over its stages.
func memoCounts(rep *kumquat.RunReport) (hits, misses int) {
	for _, st := range rep.Stages {
		hits += st.MemoHits
		misses += st.MemoMisses
	}
	return hits, misses
}

// memoized reports whether cfg's second run in a row must be answered by
// the Env's segment memo: an Optimized run of the rewritten program over
// an in-memory source at k > 1.
func memoized(cfg Config) bool {
	return cfg.Mode == kumquat.Optimized.String() && !cfg.NoFuse && !cfg.ExternalStdin && cfg.K > 1
}

// compileCase parallelizes the case's script in a private environment
// (its corpus registered when file-sourced) through the shared system, so
// combiner caches stay warm across cases.
func compileCase(ctx context.Context, sys *kumquat.System, c *Case) (*kumquat.Plan, error) {
	env := kumquat.NewEnv()
	if c.Source != "" {
		env.Register(c.Source, c.Corpus)
	}
	return sys.ParallelizeInEnv(ctx, env, c.Script)
}

// execCase runs the compiled plan under one configuration and returns
// the output stream and the run's report (the corpus streams in as stdin
// for stdin-sourced cases).
func execCase(ctx context.Context, plan *kumquat.Plan, c *Case, cfg Config) (string, *kumquat.RunReport, error) {
	mode, err := kumquat.ParseMode(cfg.Mode)
	if err != nil {
		return "", nil, err
	}
	opts := []kumquat.ExecOption{
		kumquat.WithMode(mode),
		kumquat.WithParallelism(cfg.K),
	}
	if cfg.NoFuse {
		opts = append(opts, kumquat.WithFuse(false))
	}
	if c.Source == "" {
		var stdin io.Reader = strings.NewReader(c.Corpus)
		if cfg.ExternalStdin {
			stdin = struct{ io.Reader }{stdin} // hides the in-memory type
		}
		opts = append(opts, kumquat.WithStdin(stdin))
	}
	rep, err := plan.Execute(ctx, opts...)
	if err != nil {
		return "", nil, err
	}
	return rep.Output, rep, nil
}

// diverges compares a configuration's result to the oracle's. Errors
// must agree in presence; outputs must agree byte-for-byte. ok is false
// on divergence, with detail describing the first difference.
func diverges(want string, wantErr error, got string, gotErr error) (detail string, ok bool) {
	switch {
	case wantErr != nil && gotErr != nil:
		return "", true
	case wantErr != nil:
		return fmt.Sprintf("oracle failed (%v) but configuration succeeded", wantErr), false
	case gotErr != nil:
		return fmt.Sprintf("oracle succeeded but configuration failed: %v", gotErr), false
	case want == got:
		return "", true
	}
	return diffSummary(want, got), false
}

// diffSummary pinpoints the first differing byte and shows a short
// window of both streams around it.
func diffSummary(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Sprintf("first difference at byte %d: oracle %q vs got %q (lengths %d vs %d)",
		i, window(want, i), window(got, i), len(want), len(got))
}

// window extracts a short context slice of s around offset i.
func window(s string, i int) string {
	lo := i - 12
	if lo < 0 {
		lo = 0
	}
	hi := i + 24
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// reportCorpusCap bounds the corpus bytes embedded in a report entry;
// Seed+Index regenerate the full corpus when it is larger.
const reportCorpusCap = 2048

// forReport returns the case with its corpus truncated for JSON output.
// The cut backs off to a rune boundary so a multi-byte corpus never
// turns into invalid UTF-8 in the report.
func (c *Case) forReport() *Case {
	if len(c.Corpus) <= reportCorpusCap {
		return c
	}
	cut := reportCorpusCap
	for cut > 0 && c.Corpus[cut]&0xC0 == 0x80 {
		cut--
	}
	cc := *c
	cc.Corpus = cc.Corpus[:cut] + "…(truncated)"
	return &cc
}
