// Command kqconform runs the conformance plane: it generates
// random-but-valid pipelines and corpora from a seed, executes each under
// every execution mode × worker count × fuse setting × stdin kind,
// diffs every result byte-for-byte against the serial oracle,
// stress-validates the synthesized combiners on adversarial corpora, and
// replays the generated suite through a live loopback kumquatd.
//
// Usage:
//
//	kqconform -n 100 -seed 1             # full suite, JSON report on stdout
//	kqconform -n 25 -seed 1 -o CONFORM.json
//	kqconform -n 50 -shrink=false        # skip failure minimization
//	kqconform -fail-fast                 # stop and shrink at the first divergence
//	kqconform -serve=false -adversarial=false
//	kqconform -cluster -require-faults 5 # chaos: 3-worker cluster behind
//	                                     # fault proxies + mid-suite kills
//	kqconform -cluster -trace-sample TRACE.json
//	                                     # also export one stitched
//	                                     # coordinator+worker trace
//	                                     # (Chrome trace-event JSON)
//
// The exit status is 0 when every configuration reproduced the serial
// oracle, 1 otherwise; diverging cases are shrunk (unless -shrink=false)
// to a minimal reproducing corpus and stage list before reporting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"kumquat/internal/conformance"
	"kumquat/internal/dataflow"
)

func main() {
	n := flag.Int("n", 100, "number of generated cases")
	seed := flag.Int64("seed", 1, "generator seed (same seed + n = same suite)")
	shrink := flag.Bool("shrink", true, "minimize diverging cases before reporting")
	failFast := flag.Bool("fail-fast", false, "stop at the first divergence and shrink it immediately")
	requireRules := flag.Int("require-rules", 0, "fail unless every optimizer rewrite fired at least this many times")
	serve := flag.Bool("serve", true, "replay the suite through a loopback kumquatd")
	clusterReplay := flag.Bool("cluster", false, "replay the suite through a loopback 3-worker cluster behind fault-injecting proxies")
	requireFaults := flag.Int("require-faults", 0, "with -cluster: fail unless at least this many faults were injected AND the run retried and speculated at least once")
	adversarial := flag.Bool("adversarial", true, "stress-validate combiners on adversarial corpora")
	synthWorkers := flag.Int("synth-workers", 0, "synthesis worker pool (0 = GOMAXPROCS)")
	traceSample := flag.String("trace-sample", "", "with -cluster: write the sampled stitched trace as Chrome trace-event JSON to this file (fails if no trace was captured)")
	out := flag.String("o", "", "write the JSON report to this file (default: stdout)")
	flag.Parse()

	rep, err := conformance.Run(context.Background(), conformance.Options{
		Seed:         *seed,
		N:            *n,
		Shrink:       *shrink,
		FailFast:     *failFast,
		Serve:        *serve,
		Cluster:      *clusterReplay,
		Adversarial:  *adversarial,
		SynthWorkers: *synthWorkers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kqconform:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kqconform:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "kqconform:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(data)
	}

	summary(rep)
	ok := rep.OK
	if *traceSample != "" {
		// The sample is the PR's proof artifact: one clustered run's spans
		// stitched across coordinator and workers, viewable in
		// chrome://tracing. No sample on a run that asked for one is a
		// failure, not a shrug.
		if rep.Cluster == nil || rep.Cluster.TraceSample == nil {
			fmt.Fprintln(os.Stderr, "kqconform: -trace-sample: no stitched trace was captured (need -cluster)")
			ok = false
		} else if data, terr := rep.Cluster.TraceSample.ChromeTrace(); terr != nil {
			fmt.Fprintln(os.Stderr, "kqconform: -trace-sample:", terr)
			ok = false
		} else if werr := os.WriteFile(*traceSample, data, 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "kqconform: -trace-sample:", werr)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "kqconform: trace sample: %d spans over %d processes (%d retry, %d speculate events) -> %s\n",
				rep.Cluster.TraceSpans, rep.Cluster.TraceProcs,
				rep.Cluster.TraceRetryEvents, rep.Cluster.TraceSpeculationEvents, *traceSample)
		}
	}
	if *requireRules > 0 {
		// A suite that never triggers a rewrite proves nothing about it;
		// the floor turns "zero divergences" into "zero divergences while
		// each rule demonstrably ran".
		for _, rule := range []dataflow.Rule{
			dataflow.RuleFuseStreamers, dataflow.RuleElideCombine, dataflow.RulePushSortMerge,
		} {
			if got := rep.Rewrites[string(rule)]; got < *requireRules {
				fmt.Fprintf(os.Stderr, "kqconform: rewrite %s fired %d times, need >= %d\n",
					rule, got, *requireRules)
				ok = false
			}
		}
	}
	if *requireFaults > 0 && rep.Cluster != nil {
		// A chaos run that never injected a fault (or never had to retry
		// or speculate) proves nothing about recovery; the floor turns
		// "zero divergences" into "zero divergences under demonstrated
		// fire".
		if rep.Cluster.FaultsInjected < int64(*requireFaults) {
			fmt.Fprintf(os.Stderr, "kqconform: %d faults injected, need >= %d\n",
				rep.Cluster.FaultsInjected, *requireFaults)
			ok = false
		}
		if rep.Cluster.Retries < 1 {
			fmt.Fprintln(os.Stderr, "kqconform: chaos run never retried a shard")
			ok = false
		}
		if rep.Cluster.Speculations < 1 {
			fmt.Fprintln(os.Stderr, "kqconform: chaos run never speculated a straggler")
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// summary prints the one-line human verdict (stderr, so a piped stdout
// stays pure JSON).
func summary(rep *conformance.Report) {
	adv, srv, clu := "-", "-", "-"
	if rep.Adversarial != nil {
		adv = fmt.Sprintf("%d checks, %d failures", rep.Adversarial.Checks, len(rep.Adversarial.Failures))
	}
	if rep.Serve != nil {
		srv = fmt.Sprintf("%d cases, %d divergences", rep.Serve.Cases, len(rep.Serve.Divergences))
	}
	if rep.Cluster != nil {
		clu = fmt.Sprintf("%d cases, %d divergences, %d faults, %d retries, %d speculations, %d local",
			rep.Cluster.Cases, len(rep.Cluster.Divergences), rep.Cluster.FaultsInjected,
			rep.Cluster.Retries, rep.Cluster.Speculations, rep.Cluster.LocalRuns)
	}
	rules := make([]string, 0, len(rep.Rewrites))
	for r := range rep.Rewrites {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	fired := make([]string, len(rules))
	for i, r := range rules {
		fired[i] = fmt.Sprintf("%s=%d", r, rep.Rewrites[r])
	}
	fmt.Fprintf(os.Stderr,
		"kqconform: seed=%d cases=%d configs=%d executions=%d divergences=%d rewrites=[%s] adversarial=[%s] serve=[%s] cluster=[%s] wall=%.0fms ok=%v\n",
		rep.Seed, rep.Cases, rep.Configs, rep.Executions, len(rep.Divergences),
		strings.Join(fired, " "), adv, srv, clu, rep.WallMS, rep.OK)
}
