// Command kqbench regenerates the paper's evaluation tables (Tables 1 and
// 3–10) over the reconstructed 70-script benchmark catalog with synthetic
// inputs.
//
// Usage:
//
//	kqbench -table all            # everything (default)
//	kqbench -table 3              # planning counts only (fast)
//	kqbench -table 10 -scale 500  # synthesis results, smaller inputs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"

	"kumquat/internal/bench"
)

// tables are the values -table accepts: "all" prints every other one, in
// this order.
var tables = []string{"3", "1", "4", "5", "6", "7", "8", "9", "10", "summary", "all"}

func main() {
	table := flag.String("table", "all", "table to print: "+strings.Join(tables, ","))
	scale := flag.Int("scale", 4000, "approximate input lines per script")
	flag.Parse()
	if !slices.Contains(tables, *table) {
		fmt.Fprintf(os.Stderr, "kqbench: unknown -table %q (valid: %s)\n", *table, strings.Join(tables, ", "))
		os.Exit(2)
	}

	// One interrupt-bound root context feeds every benchmark run, so ^C
	// aborts mid-measurement instead of hanging until the sweep finishes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ks := []int{1, 2, 4, 8, 16}
	h := bench.NewHarness(*scale, ks)
	w := os.Stdout

	fmt.Fprintf(w, "kqbench: %d CPUs, scale=%d lines, k=%v\n\n", runtime.NumCPU(), *scale, ks)

	var results []*bench.ScriptResult
	var err error
	switch *table {
	case "1", "4", "5", "6", "7", "all":
		start := time.Now()
		results, err = h.RunAll(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "ran %d scripts in %v\n\n", len(results), time.Since(start).Round(time.Millisecond))
	case "3":
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
			bench.WriteTable8(ctx, w, h.System)
		case "9":
			bench.WriteTable9(ctx, w, h.System)
		case "10":
			bench.WriteTable10(ctx, w, h.System)
		case "summary":
			writeSummary(ctx, h)
		}
		fmt.Fprintln(w)
	}

	if *table == "all" {
		for _, name := range tables[:len(tables)-1] {
			printTable(name)
		}
		return
	}
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
	slices.Sort(ds)
	return ds[len(ds)/2]
}

func writeSummary(ctx context.Context, h *bench.Harness) {
	supported, unsupported := 0, 0
	var minD, maxD, sum time.Duration
	var durations []time.Duration
	for _, spec := range bench.UniqueCommands() {
		res, _ := h.System.Synthesize(ctx, spec)
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
	slices.Sort(durations)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kqbench:", err)
	os.Exit(1)
}
