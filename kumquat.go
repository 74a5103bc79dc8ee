// Package kumquat is the public API of the KumQuat reproduction: automatic
// synthesis of combiners for data-parallel execution of Unix commands and
// pipelines (Shen, Rinard, Vasilakis; PPoPP 2022).
//
// The typical workflow mirrors Figure 2 of the paper:
//
//	env := kumquat.NewEnv()
//	env.Register("in.txt", data)
//	sys := kumquat.New(env)
//
//	// Synthesize a combiner for one command:
//	res, err := sys.Synthesize(ctx, "uniq -c")
//	fmt.Println(res.Combiner) // (stitch2 ' ' add first a b), ...
//
//	// Or parallelize a whole pipeline and run it 16 ways:
//	plan, err := sys.Parallelize(ctx, "cat in.txt | tr -cs A-Za-z '\n' | sort | uniq -c\n")
//	rep, err := plan.Execute(ctx, kumquat.WithParallelism(16))
//	fmt.Print(rep.Output)
//
// Plan.Execute is the one script-run loop: the CLI's four modes,
// kumquatd, the cluster coordinator (which passes itself in as the leaf
// runner through WithLeaves), the conformance plane and kqbench's timed
// runs all go through it, and all of them plan a script whole with
// Parallelize or ParallelizeInEnv before any of it runs.
//
// Plan.Execute's RunReport is the executor's own record: StageReport and
// RegionReport embed the walker's metrics structs beside the planning
// verdict rather than re-declaring their fields, and Mode is the
// executor's enum. kumquatd's execute trailer is this record encoded as
// is.
//
// Commands are the pure-Go substrate in internal/unix; they behave like
// their GNU counterparts for the flag combinations the paper's benchmarks
// use and are exercised strictly as black boxes by the synthesizer.
package kumquat

import (
	"context"
	"io"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/obs"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/synth/cache"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// Env is the execution environment: the simulated file system commands
// read (xargs, comm, cat with file operands) and pipelines use for input
// files and intermediate redirects. An Env that runs a pipeline script
// again answers the chunks that run has already run from its segment
// memo: owned copies of at most unix.MemoBytes (64 MiB), kept as long as
// the Env, Close included.
type Env struct {
	u *unix.Env
}

// NewEnv creates an environment with the default synthetic file corpus
// (used as the legal-file-name dictionary during synthesis).
func NewEnv() *Env { return &Env{u: unix.DefaultEnv()} }

// Register adds or replaces a file's contents.
func (e *Env) Register(name, content string) { e.u.FS.Register(name, content) }

// RegisterFile maps a host file into the environment without copying it:
// the file is mmap'd where the platform supports it (read into a buffer
// otherwise) and registered under name, so chunking it is pointer
// arithmetic over the mapping. The file must not be modified while the
// environment is alive (see textio.Mapping's safety contract); Close
// releases every mapping.
func (e *Env) RegisterFile(name, path string) error {
	m, err := textio.MapFile(path)
	if err != nil {
		return err
	}
	e.u.FS.RegisterMapping(name, m)
	return nil
}

// Read returns a registered file's contents.
func (e *Env) Read(name string) (string, error) { return e.u.FS.Read(name) }

// Close releases resources the environment owns — today, the memory
// mappings behind RegisterFile. Call only once no output or view derived
// from a mapped file will be used again.
func (e *Env) Close() error { return e.u.FS.Close() }

// Options re-exports what a deployment sets on the synthesis engine: Seed
// (0 selects the default seed 1), Workers (parallel filtering pool) and
// CacheDir (on-disk combiner store). The algorithm's budget — candidate
// size, input pairs per shape, gradient steps, rounds and the in-memory
// combiner LRU's capacity — is fixed (the synth package's defaultBudget).
type Options = synth.Options

// Result is a command's synthesis outcome (search space, plausible
// combiners, timing) — one row of the paper's Table 10.
type Result = synth.Result

// SynthCacheStats re-exports the engine's cache counters: memory hits,
// disk hits, and misses (full synthesis runs).
type SynthCacheStats = cache.Stats

// CacheTier re-exports the engine's per-call cache-tier verdict
// (TierMiss, TierMemory, TierDisk); see SynthesizeTier.
type CacheTier = cache.Tier

// The cache-tier values a SynthesizeTier call can report.
const (
	// TierMiss means a full synthesis ran.
	TierMiss = cache.TierMiss
	// TierMemory means the in-memory LRU served the call.
	TierMemory = cache.TierMemory
	// TierDisk means the on-disk combiner store served the call.
	TierDisk = cache.TierDisk
)

// System owns a shared synthesis engine with its combiner caches.
type System struct {
	env *Env
	syn *synth.Engine
}

// New creates a System with default options.
func New(env *Env) *System { return NewWithOptions(env, Options{}) }

// NewWithOptions creates a System with explicit synthesis options.
func NewWithOptions(env *Env, opts Options) *System {
	if env == nil {
		env = NewEnv()
	}
	return &System{env: env, syn: synth.New(env.u, opts)}
}

// Env returns the system's environment.
func (s *System) Env() *Env { return s.env }

// Combine applies a combiner, written in the DSL's textual form (e.g.
// "(stitch2 ' ' add first a b)" or "merge('-rn')"), to two parallel outputs
// of the given command. The command binds rerun's f and merge's comparator.
func (s *System) Combine(combiner, cmdSpec, y1, y2 string) (string, error) {
	cand, err := dsl.ParseCandidate(combiner)
	if err != nil {
		return "", err
	}
	cmd, err := unix.Parse(cmdSpec, s.env.u)
	if err != nil {
		return "", err
	}
	return cand.Eval(synth.EvalEnv(cmd, s.env.u), y1, y2)
}

// Synthesize infers a combiner for one command (Algorithm 1 + Algorithm 2).
// The returned Result reports the search space, surviving candidates and
// the composite combiner; err is non-nil when no combiner exists for the
// command (the paper's Table 9 cases). A cancelled ctx aborts synthesis
// mid-round and returns the best-so-far Result with its Err set to
// ctx.Err().
func (s *System) Synthesize(ctx context.Context, spec string) (*Result, error) {
	return s.syn.Synthesize(ctx, spec)
}

// SynthesizeTier is Synthesize plus an exact attribution of the cache
// tier that served the call (TierMemory, TierDisk or TierMiss). The
// verdict is decided at the engine's lookup site, so it stays exact when
// other Synthesize/Parallelize calls run concurrently — the property
// kumquatd's per-request "cached" field relies on.
func (s *System) SynthesizeTier(ctx context.Context, spec string) (*Result, CacheTier, error) {
	return s.syn.SynthesizeTier(ctx, spec)
}

// SynthCacheStats reports the system's cumulative combiner-cache
// activity across all Synthesize and Parallelize calls.
func (s *System) SynthCacheStats() SynthCacheStats { return s.syn.Stats() }

// Plan is a compiled data-parallel pipeline with its executors.
type Plan struct {
	env   *Env
	plans []*pipeline.Plan
	outs  []string // output redirect targets per pipeline ("" = stdout)
	// synthStats is the combiner-cache activity attributable to this
	// plan's compilation, surfaced in RunReport. Each stage-synthesis
	// call is attributed at the engine's lookup site, so the numbers are
	// exact even when other Synthesize/Parallelize calls on the same
	// System overlap the compilation.
	synthStats SynthCacheStats
}

// Parallelize parses a shell script (one or more pipelines, VAR=${VAR:-..}
// assignments, comments), synthesizes combiners for every stage, and
// applies the §3.5 optimizations (combiner elimination, sequential rerun
// stages). Combiners for repeated stages are resolved from the system's
// cache; the per-compilation hit/miss counts are carried into the
// RunReport of every Execute call on the returned Plan. A cancelled ctx
// aborts the in-flight stage synthesis mid-round.
func (s *System) Parallelize(ctx context.Context, script string) (*Plan, error) {
	return s.ParallelizeInEnv(ctx, s.env, script)
}

// ParallelizeInEnv compiles a script against a caller-owned environment
// while synthesizing through the system's shared engine, so its warm
// combiner caches serve every compilation. This is the multi-user entry
// point kumquatd uses: each request gets a private Env (its input files
// and `> FILE` redirects stay isolated), yet repeated stages across
// requests still resolve in O(lookup).
//
// Stage synthesis itself observes commands in the engine's own
// environment, so commands that read registered files *during synthesis*
// (xargs-style file-name probes) see the system env, not env. Execution
// — input files, the files a command reads as it runs (comm's and
// diff's operands, earlier pipelines' redirects), redirect writes — uses
// env alone.
// A nil env compiles against a fresh default environment.
func (s *System) ParallelizeInEnv(ctx context.Context, env *Env, script string) (*Plan, error) {
	if env == nil {
		env = NewEnv()
	}
	ctx, span := obs.StartSpan(ctx, "plan")
	defer span.End()
	parsed, err := pipeline.ParseScript(script, nil)
	if err != nil {
		return nil, err
	}
	span.AttrInt("pipelines", int64(len(parsed.Pipelines)))
	p := &Plan{env: env}
	for _, pl := range parsed.Pipelines {
		plan, err := pipeline.CompileIn(ctx, pl, s.syn, env.u)
		if err != nil {
			return nil, err
		}
		p.plans = append(p.plans, plan)
		p.outs = append(p.outs, pl.OutputFile)
		p.synthStats = p.synthStats.Add(plan.SynthStats)
	}
	return p, nil
}

// Counts reports the planning outcome across the script: parallelized
// stages, total stages, and eliminated combiners (the paper's Table 3 row).
func (p *Plan) Counts() (parallelized, total, eliminated int) {
	for _, plan := range p.plans {
		par, tot, elim := plan.Counts()
		parallelized += par
		total += tot
		eliminated += elim
	}
	return
}

// SynthCache reports the combiner-cache activity recorded while the plan
// was compiled (the same figures RunReport.SynthCache carries).
func (p *Plan) SynthCache() SynthCacheStats { return p.synthStats }

// Rewrites counts, per rule name, the dataflow-optimizer rewrites baked
// into the compiled plan across all its pipelines (fragment,
// fuse-streamers, dead-mappers, elide-combine). They apply when the plan executes in
// Optimized mode with fusion on, and such a run reports them as
// RunReport.Rewrites; the conformance plane aggregates these counters to
// prove each rewrite rule is exercised.
func (p *Plan) Rewrites() map[string]int {
	fired := map[string]int{}
	for _, plan := range p.plans {
		if plan.Program == nil {
			continue
		}
		for rule, n := range plan.Program.Fired {
			fired[string(rule)] += n
		}
	}
	return fired
}

// Inputs returns each pipeline's input source, in script order: the
// `cat FILE` / `< FILE` file name, or "" for a pipeline that reads
// standard input. kumquatd uses this to decide whether a streamed
// request body binds to stdin or to the first pipeline's file source.
func (p *Plan) Inputs() []string {
	inputs := make([]string, len(p.plans))
	for i, plan := range p.plans {
		inputs[i] = plan.InputFile
	}
	return inputs
}

// Stages describes each stage's planning verdict, in order.
func (p *Plan) Stages() []StageInfo {
	var out []StageInfo
	for i, plan := range p.plans {
		for _, sp := range plan.Stages {
			out = append(out, stageInfo(sp, i))
		}
	}
	return out
}

// stageInfo converts a compiled stage's planning verdict, in the script's
// pipeline i, to its public form.
func stageInfo(sp *pipeline.StagePlan, i int) StageInfo {
	info := StageInfo{
		Spec:       sp.Spec,
		Pipeline:   i,
		Parallel:   sp.Parallel,
		Sequential: sp.Sequential,
		Eliminated: sp.Eliminated,
	}
	if sp.Synth != nil && sp.Synth.Err == nil {
		info.Combiner = sp.Synth.Combiner.String()
	}
	return info
}

// StageInfo is one stage's planning verdict. It is also the wire form
// kumquatd's /v1/parallelize reply carries per stage (api.StageVerdict),
// hence the JSON tags.
type StageInfo struct {
	Spec string `json:"spec"`
	// Combiner is the composite combiner's display ("" when none).
	Combiner string `json:"combiner,omitempty"`
	// Parallel stages run k instances and recombine; Sequential marks
	// rerun-only stages the planner keeps serial; Eliminated marks
	// parallel stages whose combiner Theorem 5 removed.
	Parallel   bool `json:"parallel"`
	Sequential bool `json:"sequential"`
	Eliminated bool `json:"eliminated"`
	// Pipeline is the index of the script pipeline the stage belongs to.
	Pipeline int `json:"pipeline"`
}

// Mode selects an execution configuration for Plan.Execute; the four
// values mirror the paper's measurement setups. It is the executor's own
// enum, re-exported.
type Mode = pipeline.Mode

const (
	// Optimized is T_k: the optimized data-parallel pipeline with combiner
	// elimination and streaming stage overlap.
	Optimized = pipeline.ModeOptimized
	// Unoptimized is u_k: a combiner after every parallel stage, with a
	// barrier at every stage boundary.
	Unoptimized = pipeline.ModeUnoptimized
	// Serial is u_1: every stage runs to completion in order.
	Serial = pipeline.ModeSerial
	// Pipelined is T_orig: the original pipeline with Unix-style stage
	// overlap and no data parallelism.
	Pipelined = pipeline.ModePipelined
)

// ParseMode parses a mode name ("optimized", "unoptimized", "serial",
// "pipelined") — the inverse of Mode.String, for CLI flags. It is the
// executor's own parser, re-exported.
func ParseMode(s string) (Mode, error) { return pipeline.ParseMode(s) }

// ExecOption configures Plan.Execute.
type ExecOption func(*execConfig)

type execConfig struct {
	k      int
	mode   Mode
	stdin  io.Reader
	out    io.Writer
	fuse   bool
	leaves func(local pipeline.Leaves) pipeline.Leaves
}

// WithParallelism sets the data-parallelism degree k (default:
// runtime.GOMAXPROCS(0)). Chunks run on a pool of min(k, GOMAXPROCS)
// workers; a parallel stage's k substreams combine in one k-way pass.
func WithParallelism(k int) ExecOption {
	return func(c *execConfig) { c.k = k }
}

// WithMode selects the execution configuration (default: Optimized).
func WithMode(m Mode) ExecOption {
	return func(c *execConfig) { c.mode = m }
}

// WithFuse chooses which dataflow program an Optimized run walks (default:
// on). On, it is the rewritten program — a sort and the collapsing
// consumer it feeds run as one fragment combined once, adjacent
// line-streaming stages execute as one per-chunk pass, the line-preserving
// mappers in front of a wc -l are dropped, and combines are elided into
// order-insensitive consumers; RunReport.Rewrites names what fired. Off,
// the same executor walks the program lowered with those four rewrites
// disabled (Theorem 5 splits only) — the fuse-off ablation the
// conformance sweep and the benchmark's fusion-gain probe compare
// against. The other modes ignore it.
func WithFuse(on bool) ExecOption {
	return func(c *execConfig) { c.fuse = on }
}

// WithStdin supplies the standard-input stream for pipelines that read
// standard input (no `cat FILE` source). The reader is consumed
// incrementally: streaming stages pull from it on demand rather than
// materializing it. A *bytes.Buffer may be read in place, without a copy:
// leave it unmodified until Execute returns. Default: empty input.
func WithStdin(r io.Reader) ExecOption {
	return func(c *execConfig) { c.stdin = r }
}

// WithOutput directs the final output stream to w instead of buffering it
// into RunReport.Output. Streaming stages write to w incrementally, so a
// pipeline of line-streaming stages runs in bounded memory end to end.
func WithOutput(w io.Writer) ExecOption {
	return func(c *execConfig) { c.out = w }
}

// WithLeaves forwards the executor's leaf seam (pipeline.WithLeaves): every
// chunk fan-out of the run goes through wrap(local), where local is the
// pooled in-process runner. Its parameter type lives in an internal
// package, so the option is usable only by execution planes inside this
// module — cluster.Coordinator dispatches shards to worker daemons through
// it — and is not plumbed to the CLI or the HTTP API.
func WithLeaves(wrap func(local pipeline.Leaves) pipeline.Leaves) ExecOption {
	return func(c *execConfig) { c.leaves = wrap }
}

// StageReport is one stage's planning verdict together with its execution
// measurements from a single Execute call. It is also the per-stage wire
// form of kumquatd's execute report trailer, hence the JSON tags (the
// embedded structs' keys flatten into the stage object).
type StageReport struct {
	StageInfo
	// StageMetrics is the walker's record of how the stage ran: Wall
	// (streamed stages overlap, so stage walls can sum to more than the
	// report's), CombineWall, BytesIn/BytesOut, Chunks, Streamed.
	pipeline.StageMetrics
}

// RegionReport describes one optimizer region of a fused run: the stages
// it covered, the rewrites that shaped it, and region-level metrics. In a
// fused region the per-stage combine no longer exists — CombineWall is
// reported here, per region, instead.
type RegionReport struct {
	// RegionMetrics is the walker's record of the region: member Stages
	// (indices within the pipeline), Fused, Exit, Rules, and the Wall,
	// CombineWall, BytesIn/BytesOut, Chunks and Streamed measurements.
	pipeline.RegionMetrics
	// Pipeline is the index of the script pipeline the region belongs to.
	Pipeline int `json:"pipeline"`
}

// RunReport describes one Execute call: total wall time, bytes read from
// the sources and written to the sink, and per-stage verdicts and metrics.
// It is the run record kumquatd sends as its execute trailer, as is:
// Mode travels as its name, durations as integer nanoseconds under *_ns
// keys, and Output not at all (the response body is the output).
type RunReport struct {
	// Mode and Parallelism echo the execution configuration.
	Mode        Mode `json:"mode"`
	Parallelism int  `json:"parallelism"`
	// Wall is the end-to-end wall-clock time of the run.
	Wall time.Duration `json:"wall_ns"`
	// BytesIn is the total stream volume entering the first stage of each
	// pipeline; BytesOut is the total written to the output sink
	// (redirected pipelines count toward neither).
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// Stages holds one entry per stage across all pipelines, in order.
	Stages []StageReport `json:"stages"`
	// SynthCache is the combiner-cache activity recorded while this
	// plan was compiled: how many stage combiners were served from the
	// cache (memory or disk) versus synthesized from scratch. Each call
	// is attributed at the engine's lookup site, so the counts stay
	// exact under concurrent use of the same System.
	SynthCache SynthCacheStats `json:"synth_cache"`
	// Fused reports that the rewritten dataflow program ran: Optimized
	// mode with fusion on, over any source (file, in-memory or live
	// stdin).
	Fused bool `json:"fused,omitempty"`
	// Rewrites counts, per rule name, the dataflow rewrites the run's
	// program applied (fragment, fuse-streamers, dead-mappers,
	// elide-combine); nil when Fused is false.
	Rewrites map[string]int `json:"rewrites,omitempty"`
	// Regions holds one entry per region of the rewritten program, in
	// order across pipelines; nil when Fused is false.
	Regions []RegionReport `json:"regions,omitempty"`
	// Output is the captured output stream when no WithOutput sink was
	// given; empty otherwise.
	Output string `json:"-"`
}

// Execute runs the compiled plan. It is the primary execution entry point:
// input and output are streams (WithStdin/WithOutput), ctx cancels the run
// promptly in every mode, and the returned RunReport carries per-stage
// wall times, byte counts, chunk counts and planning verdicts.
//
//	rep, err := plan.Execute(ctx,
//	    kumquat.WithParallelism(16),
//	    kumquat.WithStdin(os.Stdin),
//	    kumquat.WithOutput(os.Stdout))
func (p *Plan) Execute(ctx context.Context, opts ...ExecOption) (*RunReport, error) {
	cfg := execConfig{k: runtime.GOMAXPROCS(0), mode: Optimized, fuse: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.k < 1 {
		cfg.k = 1
	}
	// Serial and pipelined modes run one instance per stage; reporting
	// the requested k would overstate what ran.
	if cfg.mode.Unchunked() {
		cfg.k = 1
	}
	var captured *strings.Builder
	sink := cfg.out
	if sink == nil {
		captured = &strings.Builder{}
		sink = captured
	}
	ctx, span := obs.StartSpan(ctx, "run")
	if span.Enabled() {
		span.Attr("mode", cfg.mode.String())
		span.AttrInt("k", int64(cfg.k))
	}
	defer span.End()
	rep := &RunReport{Mode: cfg.mode, Parallelism: cfg.k, SynthCache: p.synthStats}
	counted := &countingWriter{w: sink}
	start := time.Now()
	for i, plan := range p.plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pctx, psp := obs.StartSpan(ctx, "pipeline")
		psp.AttrInt("index", int64(i))
		var target io.Writer = counted
		var redirect *strings.Builder
		if p.outs[i] != "" {
			redirect = &strings.Builder{}
			target = redirect
		}
		var info pipeline.RunInfo
		ms, err := plan.Execute(pctx, p.env.u, cfg.stdin, target, cfg.mode, cfg.k,
			pipeline.WithFuse(cfg.fuse),
			pipeline.WithRunInfo(&info),
			pipeline.WithLeaves(cfg.leaves))
		psp.End()
		if err != nil {
			return nil, err
		}
		if info.Regions != nil {
			rep.Fused = true
			for _, rm := range info.Regions {
				rep.Regions = append(rep.Regions, RegionReport{RegionMetrics: rm, Pipeline: i})
			}
		}
		for j, m := range ms {
			rep.Stages = append(rep.Stages, StageReport{
				StageInfo: stageInfo(plan.Stages[j], i), StageMetrics: m,
			})
		}
		// Redirected pipelines count toward neither total (their output
		// never reaches the sink either).
		if redirect != nil {
			p.env.Register(p.outs[i], redirect.String())
		} else if len(ms) > 0 {
			rep.BytesIn += ms[0].BytesIn
		}
	}
	rep.Wall = time.Since(start)
	rep.BytesOut = counted.n
	if rep.Fused {
		rep.Rewrites = p.Rewrites()
	}
	if captured != nil {
		rep.Output = captured.String()
	}
	return rep, nil
}

// countingWriter tallies bytes written to the final sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
