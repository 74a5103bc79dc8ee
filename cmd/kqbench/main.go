// Command kqbench regenerates the paper's evaluation tables (Tables 1 and
// 3–10) over the reconstructed 70-script benchmark catalog with synthetic
// inputs.
//
// Usage:
//
//	kqbench -table all            # everything (default)
//	kqbench -table 3              # planning counts only (fast)
//	kqbench -table 10 -scale 500  # synthesis results, smaller inputs
//	kqbench -bench-exec OUT.json  # buffered-vs-streaming executor smoke
//	                              # run on the wordfreq pipeline
//	kqbench -bench-synth OUT.json # sequential-vs-parallel synthesis and
//	                              # cold-vs-warm combiner cache comparison
//	kqbench -bench-combine OUT.json
//	                              # fold-vs-tree combine and scan-vs-heap
//	                              # k-way merge sweep over k
//	kqbench -bench-serve OUT.json # loopback kumquatd serving comparison:
//	                              # cold-vs-warm request latency and
//	                              # 1-vs-N concurrent-client throughput
//	kqbench -bench-fuse OUT.json  # fused-vs-unfused executor comparison
//	                              # (wall and allocations at k in {4,32})
//	kqbench -bench-io OUT.json    # zero-copy data-plane measurement:
//	                              # mmap ingest, per-stage streaming
//	                              # throughput and allocations/line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"kumquat/internal/bench"
	"kumquat/internal/bench/serve"
)

func main() {
	table := flag.String("table", "all", "table to print: 1,3,4,5,6,7,8,9,10,summary,all")
	scale := flag.Int("scale", 4000, "approximate input lines per script")
	benchExec := flag.String("bench-exec", "", "write a buffered-vs-streaming executor comparison (wordfreq pipeline) to this JSON file and exit")
	benchSynth := flag.String("bench-synth", "", "write a sequential-vs-parallel synthesis and cold-vs-warm cache comparison to this JSON file and exit")
	benchCombine := flag.String("bench-combine", "", "write a fold-vs-tree combine and scan-vs-heap merge comparison to this JSON file and exit")
	benchServe := flag.String("bench-serve", "", "write a loopback-daemon serving comparison (cold-vs-warm latency, concurrent-client throughput) to this JSON file and exit")
	benchFuse := flag.String("bench-fuse", "", "write a fused-vs-unfused optimized-executor comparison (streamer-chain pipeline) to this JSON file and exit")
	benchIO := flag.String("bench-io", "", "write a zero-copy data-plane measurement (mmap ingest, per-stage streaming throughput and allocations/line) to this JSON file and exit")
	combineWorkers := flag.Int("combine-workers", 0, "combine-plane workers for -bench-combine (0 = GOMAXPROCS)")
	k := flag.Int("k", 8, "parallelism degree for -bench-exec")
	synthWorkers := flag.Int("synth-workers", 0, "synthesis worker pool for -bench-synth (0 = GOMAXPROCS)")
	flag.Parse()

	// One interrupt-bound root context feeds every benchmark run, so ^C
	// aborts mid-measurement instead of hanging until the sweep finishes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *benchExec != "" {
		if err := writeBenchExec(ctx, *benchExec, *scale, *k); err != nil {
			fatal(err)
		}
		return
	}
	if *benchSynth != "" {
		if err := writeBenchSynth(ctx, *benchSynth, *synthWorkers); err != nil {
			fatal(err)
		}
		return
	}
	if *benchCombine != "" {
		if err := writeBenchCombine(ctx, *benchCombine, *scale, *combineWorkers); err != nil {
			fatal(err)
		}
		return
	}
	if *benchServe != "" {
		if err := writeBenchServe(ctx, *benchServe, *synthWorkers); err != nil {
			fatal(err)
		}
		return
	}
	if *benchFuse != "" {
		if err := writeBenchFuse(ctx, *benchFuse, *scale); err != nil {
			fatal(err)
		}
		return
	}
	if *benchIO != "" {
		if err := writeBenchIO(ctx, *benchIO, *scale); err != nil {
			fatal(err)
		}
		return
	}

	ks := []int{1, 2, 4, 8, 16}
	h := bench.NewHarness(*scale, ks)
	w := os.Stdout

	fmt.Fprintf(w, "kqbench: %d CPUs, scale=%d lines, k=%v\n\n", runtime.NumCPU(), *scale, ks)

	needRuns := map[string]bool{"1": true, "4": true, "5": true, "6": true, "7": true, "all": true}
	needPlans := map[string]bool{"3": true}
	needSynth := map[string]bool{"8": true, "9": true, "10": true, "summary": true}

	var results []*bench.ScriptResult
	var err error
	switch {
	case needRuns[*table]:
		start := time.Now()
		results, err = h.RunAll(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "ran %d scripts in %v\n\n", len(results), time.Since(start).Round(time.Millisecond))
	case needPlans[*table]:
		results, err = h.PlanOnly(ctx)
		if err != nil {
			fatal(err)
		}
	}

	printTable := func(name string) {
		switch name {
		case "1":
			bench.WriteTable1(w, results, ks[len(ks)-1])
		case "3":
			bench.WriteTable3(w, results)
		case "4":
			bench.WriteTable4(w, results, ks[len(ks)-1])
		case "5":
			bench.WriteSweep(w, results, ks, false)
		case "6":
			bench.WriteSweep(w, results, ks, true)
		case "7":
			bench.WriteTable7(w, results, ks, medianU1(results))
		case "8":
			bench.WriteTable8(ctx, w, h.Synthesizer())
		case "9":
			bench.WriteTable9(ctx, w, h.Synthesizer())
		case "10":
			bench.WriteTable10(ctx, w, h.Synthesizer())
		case "summary":
			writeSummary(ctx, h)
		}
		fmt.Fprintln(w)
	}

	if *table == "all" {
		for _, name := range []string{"3", "1", "4", "5", "6", "7", "8", "9", "10", "summary"} {
			printTable(name)
		}
		return
	}
	_ = needSynth
	printTable(*table)
}

func medianU1(results []*bench.ScriptResult) time.Duration {
	if len(results) == 0 {
		return 0
	}
	ds := make([]time.Duration, 0, len(results))
	for _, r := range results {
		ds = append(ds, r.U[1])
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

func writeSummary(ctx context.Context, h *bench.Harness) {
	syn := h.Synthesizer()
	supported, unsupported := 0, 0
	var minD, maxD, sum time.Duration
	var durations []time.Duration
	for _, spec := range bench.UniqueCommands() {
		res, _ := syn.Synthesize(ctx, spec)
		if res == nil {
			continue
		}
		if res.Err != nil {
			unsupported++
			continue
		}
		supported++
		d := res.Duration
		durations = append(durations, d)
		sum += d
		if minD == 0 || d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	for i := 1; i < len(durations); i++ {
		for j := i; j > 0 && durations[j] < durations[j-1]; j-- {
			durations[j], durations[j-1] = durations[j-1], durations[j]
		}
	}
	var med time.Duration
	if len(durations) > 0 {
		med = durations[len(durations)/2]
	}
	fmt.Printf("Synthesis summary: %d commands with combiners, %d unsupported\n", supported, unsupported)
	fmt.Printf("  (paper: 113 of 121 stream-processing commands, 8 unsupported)\n")
	fmt.Printf("Synthesis times: min %v, median %v, max %v\n",
		minD.Round(time.Millisecond), med.Round(time.Millisecond), maxD.Round(time.Millisecond))
	fmt.Printf("  (paper: 39 s – 331 s, median 60 s, on real process execution)\n")
}

// writeBenchExec runs the wordfreq executor comparison and writes the
// JSON report, echoing a one-line summary per mode to stdout.
func writeBenchExec(ctx context.Context, path string, scale, k int) error {
	cmp, err := bench.CompareExecutors(ctx, scale, k)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, m := range cmp.Modes {
		fmt.Printf("%-22s k=%-3d %8.1f ms  %d bytes\n", m.Name, m.K, m.WallMS, m.BytesOut)
	}
	fmt.Printf("agree=%v -> %s\n", cmp.Agree, path)
	if !cmp.Agree {
		return fmt.Errorf("executor outputs disagree")
	}
	return nil
}

// writeBenchSynth runs the synthesis engine comparison and writes the
// JSON report, echoing one line per measurement to stdout.
func writeBenchSynth(ctx context.Context, path string, workers int) error {
	cmp, err := bench.CompareSynth(ctx, workers)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, s := range cmp.Specs {
		fmt.Printf("%-22s space=%-7d seq=%8.1f ms  par=%8.1f ms  speedup=%.2fx\n",
			s.Spec, s.Space, s.SeqMS, s.ParMS, s.Speedup)
	}
	for _, ex := range cmp.Examples {
		fmt.Printf("%-22s stages=%-2d cold=%8.1f ms  warm=%8.3f ms  hits=%d misses=%d\n",
			ex.Name, ex.Stages, ex.ColdMS, ex.WarmMS, ex.Hits, ex.Misses)
	}
	fmt.Printf("workers=%d cpus=%d agree=%v -> %s\n", cmp.Workers, cmp.CPUs, cmp.Agree, path)
	if !cmp.Agree {
		return fmt.Errorf("parallel synthesis disagrees with sequential")
	}
	return nil
}

// writeBenchCombine runs the combine-plane comparison and writes the
// JSON report, echoing one line per measurement to stdout.
func writeBenchCombine(ctx context.Context, path string, scale, workers int) error {
	cmp, err := bench.CompareCombine(ctx, scale, workers)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, c := range cmp.FoldVsTree {
		fmt.Printf("%-10s k=%-4d lines=%-7d fold=%8.3f ms  tree=%8.3f ms  speedup=%.2fx\n",
			c.Spec, c.K, c.Lines, c.FoldMS, c.TreeMS, c.Speedup)
	}
	for _, m := range cmp.ScanVsHeap {
		fmt.Printf("%-10s k=%-4d lines=%-7d scan=%8.3f ms  heap=%8.3f ms  speedup=%.2fx\n",
			"merge", m.K, m.Lines, m.ScanMS, m.HeapMS, m.Speedup)
	}
	fmt.Printf("workers=%d cpus=%d agree=%v -> %s\n", cmp.Workers, cmp.CPUs, cmp.Agree, path)
	if !cmp.Agree {
		return fmt.Errorf("combine plane disagrees with its serial baseline")
	}
	return nil
}

// writeBenchServe runs the service-plane comparison against a loopback
// daemon and writes the JSON report, echoing one line per measurement.
func writeBenchServe(ctx context.Context, path string, workers int) error {
	cmp, err := serve.Compare(ctx, workers)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, s := range cmp.Specs {
		fmt.Printf("%-22s space=%-7d cold=%8.1f ms  warm=%8.3f ms  speedup=%7.1fx tier=%s\n",
			s.Spec, s.Space, s.ColdMS, s.WarmMS, s.WarmSpeedup, s.WarmTier)
	}
	for _, th := range cmp.Throughput {
		fmt.Printf("clients=%-3d requests=%-4d wall=%8.1f ms  %8.1f req/s\n",
			th.Clients, th.Requests, th.WallMS, th.RPS)
	}
	fmt.Printf("workers=%d cpus=%d execute_agree=%v agree=%v -> %s\n",
		cmp.Workers, cmp.CPUs, cmp.ExecuteAgree, cmp.Agree, path)
	if !cmp.Agree {
		return fmt.Errorf("service plane disagrees: warm requests not ≥10× faster memory hits, or execute diverged")
	}
	return nil
}

// writeBenchFuse runs the fused-vs-unfused executor comparison and
// writes the JSON report, echoing one line per parallelism degree.
func writeBenchFuse(ctx context.Context, path string, scale int) error {
	cmp, err := bench.CompareFusion(ctx, scale)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, p := range cmp.Pairs {
		fmt.Printf("k=%-3d unfused=%8.1f ms (%d allocs)  fused=%8.1f ms (%d allocs)  speedup=%.2fx allocs=%.2fx\n",
			p.K, p.Unfused.WallMS, p.Unfused.Allocs, p.Fused.WallMS, p.Fused.Allocs,
			p.Speedup, p.AllocRatio)
	}
	fmt.Printf("rewrites=%v agree=%v -> %s\n", cmp.Rewrites, cmp.Agree, path)
	if !cmp.Agree {
		return fmt.Errorf("fused executor disagrees with the serial oracle")
	}
	return nil
}

// writeBenchIO runs the zero-copy data-plane measurement and writes the
// JSON report, echoing one line per stage and failing when fewer than
// three streaming stages meet the allocations/line gate.
func writeBenchIO(ctx context.Context, path string, scale int) error {
	cmp, err := bench.CompareIO(ctx, scale)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("corpus=%d bytes (%d lines) mapped=%v map=%.2fms chunk64=%.3fms (%d allocs)\n",
		cmp.CorpusBytes, cmp.Scale, cmp.Ingest.Mapped, cmp.Ingest.MapWallMS,
		cmp.Ingest.ChunkWallMS, cmp.Ingest.ChunkAllocs)
	for _, s := range cmp.Stages {
		fmt.Printf("%-22s %9.1f ms %8.1f MB/s  %.3f allocs/line\n",
			s.Spec, s.WallMS, s.MBPerSec, s.AllocsPerLine)
	}
	fmt.Printf("gate: %d stages <= %.1f allocs/line (pass=%v) -> %s\n",
		cmp.GateStages, cmp.GateLimit, cmp.GatePass, path)
	if !cmp.GatePass {
		return fmt.Errorf("allocations/line gate failed: %d stages under %.1f, need 3", cmp.GateStages, cmp.GateLimit)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kqbench:", err)
	os.Exit(1)
}
