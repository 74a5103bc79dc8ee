package main

import (
	"encoding/json"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eDef is one gated end-to-end metric. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one per-layer metric (reported, never gated).
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifest is the exact shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

var workloadDefs = []workloadDef{
	{"wf-append-rerun", "word-frequency script re-run over an append-mostly corpus in one long-lived Env: sort kernels and synthesized merge/stitch combiners do the work; 99.5% shared prefix, never identical bytes"},
	{"chain-cold-file", "fusable line-mapper chain over a fresh mmap'd file per op: textio ingest/index, unix line kernels and dataflow fusion do the work, the combine plane none; no data shared between ops"},
	{"plan-cold", "48 frozen stage specs (three candidate-space classes) synthesized by a fresh engine per op: synth and dsl do all the work, the executor none; the write side of the spec cache"},
	{"serve-warm-mix", "loopback kumquatd under a seeded 70/20/10 synthesize/parallelize/execute mix, open loop at a fixed rate then closed loop: admission, HTTP, per-request Env and warm cache lookups dominate"},
	{"cluster-ship", "coordinator plus 3 loopback workers, every op ships its body per stage through /v1/execute?cluster=on: shard dispatch, corpus shipping and remote tree-combine; the ship-per-request baseline"},
}

// Bounds come from measured A/A spreads (see README.md): on the shared
// 2-CPU machine the benchmark was defined on, inter-quartile spreads of
// the timings are 2-4% in quiet minutes and reach 11% in noisy ones, so
// a 10% bound would flag unchanged code. peak_rss_mb is not here: it did
// not repeat within a tenth (plan-cold: 35% spread) and is reported
// per-layer as bench.peak_rss_mb.
var e2eDefs = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// layerDefs lists every per-layer metric, grouped by the module it
// measures. A workload that does not exercise a layer reports 0 for it.
var layerDefs = buildLayerDefs()

func buildLayerDefs() []layerDef {
	var defs []layerDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, layerDef{n, unit, better})
		}
	}
	// textio: ingest, line index, chunk split.
	add("lower", "us", "textio.map_us", "textio.chunk_us")
	add("lower", "ms", "textio.index_ms", "textio.reindex_ms")
	add("higher", "MB/s", "textio.index_mb_s")
	add("lower", "ratio", "textio.chunk_skew")
	// unix: single-threaded kernels over each stage's recorded input.
	for _, slug := range stageSlugOrder {
		add("higher", "MB/s", "unix."+slug+".mb_s")
		add("lower", "1/line", "unix."+slug+".allocs_per_line")
	}
	// dsl: enumeration and the combine plane.
	add("lower", "ms", "dsl.enumerate_ms")
	add("lower", "count", "dsl.space.small", "dsl.space.mid", "dsl.space.large")
	add("lower", "ms", "dsl.combine.sort.ms", "dsl.combine.uniq-c.ms", "dsl.combine.sort-rn.ms", "dsl.combine.k32.ms")
	add("lower", "us", "dsl.combine.wc-l.us")
	// synth: cold synthesis, verdict table, cache tiers.
	add("lower", "ms", "synth.cold_p50_ms", "synth.cold_max_ms", "synth.cold.small_ms", "synth.cold.mid_ms", "synth.cold.large_ms", "synth.disk_replan_ms")
	add("higher", "count", "synth.combiners_found")
	add("lower", "count", "synth.rerun_only", "synth.no_combiner")
	add("lower", "us", "synth.warm_hit_us")
	add("higher", "count", "synth.cache.hits", "synth.cache.disk_hits")
	add("lower", "count", "synth.cache.misses")
	add("higher", "ratio", "synth.cache.hit_ratio")
	add("lower", "ratio", "synth.singleflight_ratio")
	// dataflow: lowering, optimizer rules, fusion gain.
	add("lower", "us", "dataflow.build_optimize_us")
	add("lower", "count", "dataflow.regions")
	add("higher", "count", "dataflow.fired.fuse-streamers", "dataflow.fired.elide-combine", "dataflow.fired.push-sort-merge")
	add("higher", "x", "dataflow.fuse_gain_x")
	// pipeline: parse, compile, the four executors, run-report shares.
	add("lower", "us", "pipeline.parse_us", "pipeline.compile_warm_us")
	add("lower", "ms", "pipeline.exec_ms", "pipeline.serial_ms", "pipeline.unoptimized_ms", "pipeline.pipelined_ms", "pipeline.stage_busy_ms", "pipeline.combine_ms", "pipeline.gc_pause_ms_per_op")
	add("higher", "x", "pipeline.speedup_x")
	add("lower", "ratio", "pipeline.combine_share")
	add("lower", "MB", "pipeline.bytes_between_mb", "pipeline.alloc_mb_per_op")
	add("lower", "count", "pipeline.chunks")
	add("lower", "1/line", "pipeline.allocs_per_line")
	// cluster: dispatch accounting and shipping.
	add("lower", "count", "cluster.shards", "cluster.local_fallbacks", "cluster.retries", "cluster.speculations", "cluster.speculation_wins", "cluster.ejections")
	add("higher", "count", "cluster.remote")
	add("lower", "MB", "cluster.shipped_mb")
	add("lower", "ratio", "cluster.ship_ratio")
	add("lower", "ms", "cluster.shard_p50_ms", "cluster.shard_p99_ms")
	add("higher", "ratio", "cluster.worker_busy_share")
	add("lower", "x", "cluster.overhead_x")
	// server: per-endpoint service times, admission, the load generator.
	add("lower", "us", "server.synth_p50_us", "server.synth_p99_us", "server.parallelize_p50_us", "server.parallelize_p99_us", "server.http_overhead_us")
	add("lower", "ms", "server.execute_p50_ms", "server.execute_p99_ms", "server.op_p99_ms", "server.sched_lag_p99_ms")
	add("lower", "count", "server.rejected_429", "server.queued_peak", "server.inflight_peak")
	add("lower", "ratio", "server.capacity_ratio")
	// obs and the benchmark's own tracing.
	add("lower", "%", "obs.enabled_overhead_pct", "bench.trace_overhead_pct")
	add("lower", "count", "obs.spans_per_op")
	add("lower", "MB", "bench.peak_rss_mb")
	return defs
}

// stageSlugOrder fixes the order of the unix.<slug>.* metrics.
var stageSlugOrder = []string{"tr-squeeze", "tr-lower", "sort", "uniq-c", "sort-rn", "grep", "sed", "cut-f", "wc-l"}

// stageSlugs maps the frozen scripts' stage specs to metric slugs.
var stageSlugs = map[string]string{
	`tr -cs A-Za-z '\n'`:  "tr-squeeze",
	`tr A-Z a-z`:          "tr-lower",
	`sort`:                "sort",
	`uniq -c`:             "uniq-c",
	`sort -rn`:            "sort-rn",
	`grep light`:          "grep",
	`sed 's/light/dark/'`: "sed",
	`cut -d ' ' -f 1-3`:   "cut-f",
	`wc -l`:               "wc-l",
}

// manifestJSON renders BENCHMARK.json from the tables above, so the
// program and the file cannot drift (the self-test compares them).
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   e2eDefs,
		PerLayer:   layerDefs,
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
