// Command kumquat synthesizes combiners for Unix commands and compiles
// shell pipelines into data-parallel pipelines, reproducing the KumQuat
// system (PPoPP 2022).
//
// Usage:
//
//	kumquat synth 'uniq -c'
//	    Synthesize and print the combiner for one command.
//
//	kumquat plan "cat in.txt | tr -cs A-Za-z '\n' | sort | uniq -c"
//	    Show the parallelization plan for a pipeline.
//
//	kumquat run -k 8 -input FILE "cat FILE | sort | uniq -c"
//	    Execute a pipeline with k-way data parallelism (reads the named
//	    input file from the host file system into the in-memory
//	    environment first). Pipelines without a `cat FILE` source stream
//	    the process's standard input; output streams to standard output.
//	    -mode selects the execution configuration, -report prints
//	    per-stage wall times, byte counts, chunk counts and the fired
//	    optimizer rewrites to stderr, and -trace FILE writes a Chrome
//	    trace-event JSON timeline of the run (synthesis, planning, stages,
//	    chunk batches, combines and fused regions) for chrome://tracing or
//	    Perfetto.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"kumquat"
	"kumquat/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "synth":
		err = runSynth(os.Args[2:])
	case "plan":
		err = runPlan(os.Args[2:])
	case "run":
		err = runRun(os.Args[2:])
	case "combine":
		err = runCombine(os.Args[2:])
	case "version", "-version", "--version":
		runVersion()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kumquat:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  kumquat synth [-synth-workers N] [-synth-cache DIR] '<command>'
  kumquat plan [-synth-workers N] [-synth-cache DIR] '<pipeline>'
  kumquat run [-k N] [-mode MODE] [-report] [-trace FILE] [-synth-workers N] [-synth-cache DIR] [-input FILE]... '<pipeline>'
  kumquat combine -g '<combiner>' -cmd '<command>' FILE1 FILE2
  kumquat version`)
}

// runVersion prints the build surface: module version, toolchain, and
// the effective parallelism/cache defaults.
func runVersion() {
	kumquat.Info().Fprint(os.Stdout, "kumquat")
}

// synthFlags registers the synthesis-engine flags shared by the synth,
// plan and run subcommands; the returned closure folds them into opts.
func synthFlags(fs *flag.FlagSet) func(kumquat.Options) kumquat.Options {
	workers := fs.Int("synth-workers", 0,
		"synthesis worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	cacheDir := fs.String("synth-cache", "",
		"directory for the on-disk combiner cache (empty = memory only)")
	return func(o kumquat.Options) kumquat.Options {
		o.Workers = *workers
		o.CacheDir = *cacheDir
		return o
	}
}

// runCombine applies a DSL combiner to two partial-output files — handy for
// inspecting synthesized combiners by hand.
func runCombine(args []string) error {
	fs := flag.NewFlagSet("combine", flag.ExitOnError)
	g := fs.String("g", "", "combiner in DSL form, e.g. \"(stitch2 ' ' add first a b)\"")
	cmdSpec := fs.String("cmd", "cat", "command binding rerun/merge semantics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *g == "" || fs.NArg() != 2 {
		return fmt.Errorf("combine needs -g and two file operands")
	}
	y1, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	y2, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	sys := kumquat.New(nil)
	out, err := sys.Combine(*g, *cmdSpec, string(y1), string(y2))
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func runSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "synthesis random seed")
	withSynth := synthFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("synth needs exactly one command argument")
	}
	sys := kumquat.NewWithOptions(nil, withSynth(kumquat.Options{Seed: *seed}))
	start := time.Now()
	res, err := sys.Synthesize(context.Background(), fs.Arg(0))
	if res == nil {
		return err
	}
	fmt.Printf("command:      %s\n", res.Spec)
	fmt.Printf("search space: %d (= %d RecOp + %d StructOp + %d RunOp)\n",
		res.Space.Total(), res.Space.Rec, res.Space.Struct, res.Space.Run)
	fmt.Printf("rounds:       %d (%d observations, %v)\n",
		res.Rounds, res.Observations, time.Since(start).Round(time.Millisecond))
	if res.Err != nil {
		fmt.Printf("unsupported:  %v\n", res.Err)
		return nil
	}
	fmt.Printf("plausible:    %s\n", strings.Join(res.DisplayPlausible(), ", "))
	fmt.Printf("combiner:     %s\n", res.Combiner)
	return nil
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	withSynth := synthFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("plan needs exactly one pipeline argument")
	}
	sys := kumquat.NewWithOptions(nil, withSynth(kumquat.Options{Seed: 1}))
	plan, err := sys.Parallelize(context.Background(), fs.Arg(0)+"\n")
	if err != nil {
		return err
	}
	par, total, elim := plan.Counts()
	fmt.Printf("parallelized %d/%d stages, %d combiners eliminated\n\n", par, total, elim)
	for _, st := range plan.Stages() {
		mode := "serial (no combiner)"
		switch {
		case st.Eliminated:
			mode = "parallel, combiner eliminated (Theorem 5)"
		case st.Parallel:
			mode = "parallel"
		case st.Sequential:
			mode = "sequential (rerun-only combiner)"
		}
		fmt.Printf("  %-36s %s\n", st.Spec, mode)
		if st.Combiner != "" {
			fmt.Printf("  %-36s   combiner: %s\n", "", st.Combiner)
		}
	}
	return nil
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	k := fs.Int("k", 8, "parallelism degree")
	mode := fs.String("mode", "optimized", "execution mode: optimized, unoptimized, serial, pipelined")
	report := fs.Bool("report", false, "print the per-stage execution report to stderr")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file for this run (open in chrome://tracing or Perfetto)")
	withSynth := synthFlags(fs)
	var inputs multiFlag
	fs.Var(&inputs, "input", "host file to load into the environment (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs exactly one pipeline argument")
	}
	m, err := kumquat.ParseMode(*mode)
	if err != nil {
		return err
	}
	env := kumquat.NewEnv()
	// Host files are memory-mapped (falling back to a buffered read for
	// pipes and platforms without mmap), so the environment holds
	// zero-copy views and chunking never duplicates the corpus.
	defer env.Close()
	for _, path := range inputs {
		if err := env.RegisterFile(path, path); err != nil {
			return err
		}
	}
	sys := kumquat.NewWithOptions(env, withSynth(kumquat.Options{Seed: 1}))
	// First interrupt cancels the run; stop() re-arms the default SIGINT
	// disposition as soon as the context fires, so a second Ctrl-C kills
	// the process even if a stage is blocked reading a silent stdin.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	// With -trace, planning and execution run under a root span; every
	// layer below (plan, synth, stages, chunk batches, combines, fused
	// regions) attaches children via the context, and the finished trace
	// exports as Chrome trace-event JSON.
	var rootSpan *obs.Span
	if *traceOut != "" {
		trc := obs.NewTracer(1, "kumquat")
		// The library's Execute records its own "run" span; the CLI root
		// wraps it together with planning under one tree.
		ctx, rootSpan = trc.StartTrace(ctx, "cli")
	}
	plan, err := sys.Parallelize(ctx, fs.Arg(0)+"\n")
	if err != nil {
		return err
	}
	rep, err := plan.Execute(ctx,
		kumquat.WithParallelism(*k),
		kumquat.WithMode(m),
		kumquat.WithStdin(os.Stdin),
		kumquat.WithOutput(os.Stdout))
	if errors.Is(err, context.Canceled) {
		// The user interrupted the run; exit with the conventional
		// SIGINT status instead of reporting an internal error.
		os.Exit(130)
	}
	if err != nil {
		return err
	}
	if rootSpan != nil {
		rootSpan.End()
		td, ok := rootSpan.Tracer().Trace(rootSpan.SpanContext().TraceID)
		if !ok {
			return fmt.Errorf("run: trace %s not recorded", rootSpan.SpanContext().TraceID)
		}
		data, merr := td.ChromeTrace()
		if merr != nil {
			return fmt.Errorf("run: encoding trace: %w", merr)
		}
		if werr := os.WriteFile(*traceOut, data, 0o644); werr != nil {
			return fmt.Errorf("run: writing trace: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "kumquat: wrote %d spans to %s (open in chrome://tracing)\n",
			len(td.Spans), *traceOut)
	}
	if *report {
		writeReport(rep)
	}
	return nil
}

func writeReport(rep *kumquat.RunReport) {
	w := os.Stderr
	fmt.Fprintf(w, "mode=%s k=%d fused=%v wall=%v in=%dB out=%dB\n",
		rep.Mode, rep.Parallelism, rep.Fused, rep.Wall.Round(time.Microsecond), rep.BytesIn, rep.BytesOut)
	fmt.Fprintf(w, "synth cache: %d hits, %d disk hits, %d misses\n",
		rep.SynthCache.Hits, rep.SynthCache.DiskHits, rep.SynthCache.Misses)
	if rep.Fused {
		rules := make([]string, 0, len(rep.Rewrites))
		for r := range rep.Rewrites {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		fired := make([]string, len(rules))
		for i, r := range rules {
			fired[i] = fmt.Sprintf("%s=%d", r, rep.Rewrites[r])
		}
		fmt.Fprintf(w, "rewrites: %s\n", strings.Join(fired, " "))
		for i, rg := range rep.Regions {
			kind := "single"
			if rg.Fused {
				kind = "fused"
			}
			detail := ""
			if len(rg.Rules) > 0 {
				detail = " rules=" + strings.Join(rg.Rules, ",")
			}
			fmt.Fprintf(w, "  region %d: %s stages=%v exit=%s%s\n", i, kind, rg.Stages, rg.Exit, detail)
		}
	}
	for _, st := range rep.Stages {
		how := "buffered"
		switch {
		case st.Streamed:
			how = "streamed"
		case st.Chunks > 1:
			how = fmt.Sprintf("%d chunks", st.Chunks)
		}
		combine := ""
		if st.CombineWall > 0 {
			combine = fmt.Sprintf(" combine=%v", st.CombineWall.Round(time.Microsecond))
		}
		fmt.Fprintf(w, "  %-36s %-10s wall=%-10v in=%-10d out=%d%s\n",
			st.Spec, how, st.Wall.Round(time.Microsecond), st.BytesIn, st.BytesOut, combine)
	}
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
