// Quickstart: synthesize a combiner for one command and parallelize a tiny
// pipeline — the one-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"kumquat"
)

func main() {
	env := kumquat.NewEnv()
	env.Register("data.txt", "pear\napple\npear\nquince\napple\npear\n")
	sys := kumquat.New(env)
	ctx := context.Background()

	// 1. Ask KumQuat for the combiner of a single command. The synthesizer
	// treats "uniq -c" as a black box, generates input stream pairs, and
	// keeps only the DSL candidates satisfying f(x1++x2) = g(f(x1),f(x2)).
	res, err := sys.Synthesize(ctx, "uniq -c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniq -c searched %d candidates and synthesized: %s\n\n",
		res.Space.Total(), res.Combiner)

	// 2. Compile a pipeline into its data-parallel version and run it.
	plan, err := sys.Parallelize(ctx, "cat data.txt | sort | uniq -c | sort -rn\n")
	if err != nil {
		log.Fatal(err)
	}
	par, total, elim := plan.Counts()
	fmt.Printf("plan: %d/%d stages parallelized, %d combiners eliminated\n", par, total, elim)
	for _, st := range plan.Stages() {
		fmt.Printf("  %-12s combiner: %s\n", st.Spec, st.Combiner)
	}

	// 3. Execute with 4-way data parallelism. Execute is the streaming
	// entry point: it takes a context, accepts io.Reader/io.Writer via
	// WithStdin/WithOutput, and returns a per-stage run report.
	rep, err := plan.Execute(ctx, kumquat.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4-way parallel output:\n%s", rep.Output)
	fmt.Printf("\nrun report: wall=%v in=%dB out=%dB\n", rep.Wall, rep.BytesIn, rep.BytesOut)
	for _, st := range rep.Stages {
		fmt.Printf("  %-12s chunks=%d streamed=%v %v\n", st.Spec, st.Chunks, st.Streamed, st.Wall)
	}

	// Every mode runs through the same Execute call; Serial (u_1) is the
	// ground truth the parallel run must reproduce byte for byte.
	serial, err := plan.Execute(ctx, kumquat.WithMode(kumquat.Serial))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmatches serial output: %v\n", rep.Output == serial.Output)
}
