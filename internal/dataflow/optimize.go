package dataflow

import (
	"kumquat/internal/unix"
)

// Rule names one optimizer rewrite, as reported in fire counters, run
// reports and the conformance plane's per-rule accounting.
type Rule string

const (
	// RuleFuseStreamers fuses adjacent line-streaming stages into one
	// per-chunk pass, eliding the combine→re-split round trip between
	// them. It fires once per fused stage boundary, so a run of m stages
	// fires it m-1 times. Legality: every fused stage is a line mapper
	// (line-independent, order-preserving), parallel, concat-combined and
	// stream-output, so composing the mappers per input line is
	// byte-identical to running the stages back to back.
	RuleFuseStreamers Rule = "fuse-streamers"
	// RuleElideCombine elides the combine between a per-chunk-closed
	// stage and an order-insensitive consumer: the consumer sees a line
	// permutation of the true stream (ClosurePerm or better), which by
	// declaration cannot change its output.
	RuleElideCombine Rule = "elide-combine"
	// RulePushSortMerge named a retired rewrite: the lazy k-way merge of
	// a sort's chunk outputs in its streaming consumer's read path. No
	// lowering fires it and no report carries it. Its only reader is the
	// frozen benchmark/ (batch.go, which reports its zero count); it goes
	// with the measurement plane's re-baseline (ROADMAP).
	RulePushSortMerge Rule = "push-sort-merge"
	// RuleTheorem5 is the legacy intermediate-combiner elimination
	// (exact-closed stage feeding a parallel consumer). It predates the
	// dataflow plane and is tagged on regions for the dump, but not
	// counted among the new rewrites.
	RuleTheorem5 Rule = "theorem5"
)

// ExitKind says how a region's k chunk outputs leave the region when it
// ran chunk-parallel. On the serial path (k = 1, or a live input stream)
// exits degenerate to passing the single output through.
type ExitKind int

const (
	// ExitCombine runs the region's final combiner over the chunk
	// outputs (the default, always-legal exit).
	ExitCombine ExitKind = iota
	// ExitSplit keeps the stream split: the next (parallel) region
	// consumes the chunk outputs directly.
	ExitSplit
	// ExitConcat concatenates the chunk outputs in chunk order without
	// running the combiner — legal only from a permutation-closed region
	// into an order-insensitive serial consumer.
	ExitConcat
)

// String names the exit as the program dump and run reports print it.
func (e ExitKind) String() string {
	switch e {
	case ExitCombine:
		return "combine"
	case ExitSplit:
		return "split"
	case ExitConcat:
		return "concat"
	}
	return "invalid"
}

// Region is one executor step of the optimized program: a maximal fused
// run of stages (or a single stage), the rules that shaped it, and how its
// output leaves.
type Region struct {
	// Nodes are the member node IDs, consecutive and in stage order.
	Nodes []int
	// Fused marks multi-stage regions executed as one composed per-chunk
	// pass.
	Fused bool
	// Cmd is the region's executable: the chain of its member stages'
	// commands when it is fused, the single stage's command otherwise.
	Cmd unix.Command
	// Parallel marks regions executed chunk-parallel (every member stage
	// is planner-parallel).
	Parallel bool
	// Exit is the region's output disposition after a chunk-parallel run.
	Exit ExitKind
	// Rules tags the rewrites that fired on this region or its exit
	// (RuleTheorem5 included, for the dump).
	Rules []Rule
}

// Program is a lowering's output: the region sequence the executor
// walks, plus the per-rule fire counters. Every execution configuration
// is one Program — Optimize builds the rewritten ones, Stagewise the
// stage-at-a-time baselines.
type Program struct {
	// Graph is the IR the program was optimized from.
	Graph *Graph
	// Regions partition the graph's nodes in stage order.
	Regions []*Region
	// Fired counts rewrite applications per rule (RuleTheorem5 excluded:
	// it is the pre-dataflow baseline, not a new rewrite).
	Fired map[Rule]int
}

// Options tunes Optimize.
type Options struct {
	// Disable turns individual rewrites off. The fuse-off configuration
	// (pipeline.WithFuse(false)) is the program lowered with both
	// disabled (Theorem 5 splits only); tests and benchmarks ablate
	// rules one at a time.
	Disable map[Rule]bool
}

func (o Options) disabled(r Rule) bool { return o.Disable[r] }

// Optimize runs the rewrite pipeline over the graph: first the fusion
// pass groups maximal runs of fusable stages into regions, then the
// boundary pass decides each region's exit (combine elision, Theorem 5
// splitting, or the default combine).
func Optimize(g *Graph, opts Options) *Program {
	p := &Program{Graph: g, Fired: map[Rule]int{RuleFuseStreamers: 0, RuleElideCombine: 0}}
	// Pass 1: fuse maximal runs of adjacent fusable stages.
	for i := 0; i < len(g.Nodes); {
		j := i
		if !opts.disabled(RuleFuseStreamers) {
			for j < len(g.Nodes) && fusable(g.Nodes[j]) {
				j++
			}
		}
		if j-i >= 2 {
			r := &Region{Fused: true, Parallel: true, Rules: []Rule{RuleFuseStreamers}}
			var cmds []unix.Command
			for id := i; id < j; id++ {
				r.Nodes = append(r.Nodes, id)
				cmds = append(cmds, g.Nodes[id].Stage.Cmd)
			}
			r.Cmd = unix.NewChain(cmds...)
			p.Fired[RuleFuseStreamers] += j - i - 1
			p.Regions = append(p.Regions, r)
			i = j
			continue
		}
		n := g.Nodes[i]
		p.Regions = append(p.Regions, &Region{Nodes: []int{i}, Cmd: n.Stage.Cmd, Parallel: n.Stage.Parallel})
		i++
	}
	// Pass 2: decide exits at region boundaries. The final region always
	// combines — a single output stream must emerge.
	for ri := 0; ri+1 < len(p.Regions); ri++ {
		r, next := p.Regions[ri], p.Regions[ri+1]
		if !r.Parallel {
			continue
		}
		// Fused members are all exact-closed; a chain of order-preserving
		// mappers transports a permutation, never absorbs it.
		cl := g.Nodes[r.Nodes[len(r.Nodes)-1]].Closure
		nextOI := unix.IsOrderInsensitive(next.Cmd)
		switch {
		case cl != ClosureNone && nextOI:
			// Rule 2: the consumer cannot observe the permutation.
			if next.Parallel {
				r.Exit = ExitSplit
			} else {
				r.Exit = ExitConcat
			}
			if cl == ClosureExact && next.Parallel {
				// Theorem 5 alone already licenses this split; count the
				// elision for the legacy rule so the new-rule counters
				// measure genuinely new elisions.
				r.Rules = append(r.Rules, RuleTheorem5)
			} else if !opts.disabled(RuleElideCombine) {
				r.Rules = append(r.Rules, RuleElideCombine)
				p.Fired[RuleElideCombine]++
			} else {
				r.Exit = ExitCombine
			}
		case cl == ClosureExact && next.Parallel:
			// Theorem 5: exact closure feeds any parallel consumer.
			r.Exit = ExitSplit
			r.Rules = append(r.Rules, RuleTheorem5)
		}
	}
	return p
}

// Stagewise lowers the graph without any rewrite: one region per stage,
// every exit a combine, so each stage boundary is a barrier. With
// parallel set, regions keep the planner's data-parallel verdict (the
// u_k configuration); without it every region is serial (u_1, and
// T_orig's stages, connected by live streams).
func Stagewise(g *Graph, parallel bool) *Program {
	p := &Program{Graph: g, Regions: make([]*Region, len(g.Nodes))}
	for i, n := range g.Nodes {
		p.Regions[i] = &Region{Nodes: []int{i}, Cmd: n.Stage.Cmd, Parallel: parallel && n.Stage.Parallel}
	}
	return p
}

// fusable reports whether a stage may join a fused region: a parallel,
// concat-combined, stream-output line mapper (unix.CanStream). Concat
// closure guarantees chunk-and-concatenate equals the staged execution;
// line independence guarantees the composed per-line pass equals the
// staged passes.
func fusable(n *Node) bool {
	return n.Stage.Parallel && unix.CanStream(n.Stage.Cmd) && n.Class == ClassConcat && n.Stage.StreamOutput
}
