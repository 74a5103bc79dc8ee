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
	// them. It fires once per fused internal edge, so a run of m stages
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
	// RulePushSortMerge pushes a sort-class stage's combine into the
	// downstream stage's read path: instead of materializing the k-way
	// heap merge, the downstream streaming stage consumes it lazily
	// through unix.SortCmd.MergeReader.
	RulePushSortMerge Rule = "push-sort-merge"
	// RuleTheorem5 is the legacy intermediate-combiner elimination
	// (exact-closed stage feeding a parallel consumer). It predates the
	// dataflow plane and is tagged on regions for the dump, but not
	// counted among the three new rewrites.
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
	// running the combiner — legal only into an order-insensitive serial
	// consumer over a permutation-closed edge.
	ExitConcat
	// ExitMerge hands the chunk outputs to the next region as a lazy
	// k-way heap merge reader (push-sort-merge).
	ExitMerge
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
	case ExitMerge:
		return "merge-stream"
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
	// pass; their Mapper is non-nil.
	Fused bool
	// Mapper is the composed line mapper of a fused region.
	Mapper *FusedMapper
	// Parallel marks regions executed chunk-parallel (every member stage
	// is planner-parallel).
	Parallel bool
	// Exit is the region's output disposition after a chunk-parallel run.
	Exit ExitKind
	// Rules tags the rewrites that fired on this region or its outgoing
	// edge (RuleTheorem5 included, for the dump).
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
	// (pipeline.WithFuse(false)) is the program lowered with all three disabled (Theorem 5 splits
	// only); tests and benchmarks ablate rules one at a time.
	Disable map[Rule]bool
	// UnsafeAssumeOrderInsensitive makes RuleElideCombine treat every
	// consumer as order-insensitive — a deliberately broken legality
	// check. It exists only so the conformance plane's regression tests
	// can prove the differential net catches an illegal elision; never
	// set it in production paths.
	UnsafeAssumeOrderInsensitive bool
}

func (o Options) disabled(r Rule) bool { return o.Disable[r] }

// Optimize runs the rewrite pipeline over the graph: first the fusion
// pass groups maximal runs of fusable stages into regions, then the
// boundary pass decides each region's exit (combine elision, sort-merge
// pushdown, Theorem 5 splitting).
func Optimize(g *Graph, opts Options) *Program {
	p := &Program{Graph: g, Fired: map[Rule]int{
		RuleFuseStreamers: 0, RuleElideCombine: 0, RulePushSortMerge: 0,
	}}
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
			var mappers []unix.LineMapper
			var specs []string
			for id := i; id < j; id++ {
				r.Nodes = append(r.Nodes, id)
				lm, _ := unix.AsLineMapper(g.Nodes[id].Stage.Cmd)
				mappers = append(mappers, lm)
				specs = append(specs, g.Nodes[id].Stage.Spec)
			}
			r.Mapper = NewFusedMapper(specs, mappers)
			p.Fired[RuleFuseStreamers] += j - i - 1
			p.Regions = append(p.Regions, r)
			i = j
			continue
		}
		n := g.Nodes[i]
		p.Regions = append(p.Regions, &Region{Nodes: []int{i}, Parallel: n.Stage.Parallel})
		i++
	}
	// Pass 2: decide exits at region boundaries. The final region always
	// combines — a single output stream must emerge.
	for ri := 0; ri+1 < len(p.Regions); ri++ {
		r, next := p.Regions[ri], p.Regions[ri+1]
		if !r.Parallel {
			continue
		}
		last := g.Nodes[r.Nodes[len(r.Nodes)-1]]
		cl := regionClosure(r, last)
		nextOI := consumerOrderInsensitive(g, next, opts)
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
		case !opts.disabled(RulePushSortMerge) && sortClass(last) && p.Streamable(next):
			// Rule 3: the combine happens, but lazily, inside the
			// downstream stage's read loop.
			r.Exit = ExitMerge
			r.Rules = append(r.Rules, RulePushSortMerge)
			p.Fired[RulePushSortMerge]++
		}
	}
	return p
}

// Stagewise lowers the graph without any rewrite: one region per stage,
// every exit a combine, so each stage boundary is a barrier. With
// parallel set, regions keep the planner's data-parallel verdict (the
// u_k configuration); without it every region is serial (u_1, and
// T_orig's pipe-connected stages).
func Stagewise(g *Graph, parallel bool) *Program {
	p := &Program{Graph: g, Regions: make([]*Region, len(g.Nodes))}
	for i, n := range g.Nodes {
		p.Regions[i] = &Region{Nodes: []int{i}, Parallel: parallel && n.Stage.Parallel}
	}
	return p
}

// fusable reports whether a stage may join a fused region: a parallel,
// concat-combined, stream-output line mapper. Concat closure guarantees
// chunk-and-concatenate equals the staged execution; line independence
// guarantees the composed per-line pass equals the staged passes.
func fusable(n *Node) bool {
	return n.Stage.Parallel && n.LineMapper && n.Class == ClassConcat && n.Stage.StreamOutput
}

// regionClosure is the closure of a region's outgoing edge: fused regions
// are concat-composed line mappers, so they inherit exact closure; single
// regions use their node's edge metadata.
func regionClosure(r *Region, last *Node) Closure {
	if r.Fused {
		return ClosureExact
	}
	return closure(last)
}

// sortClass reports whether the region's last node is a sort-class stage
// whose combine is the k-way heap merge (the push-sort-merge source).
func sortClass(n *Node) bool {
	if n.Class != ClassMerge || !n.Stage.Parallel {
		return false
	}
	_, ok := n.Stage.Cmd.(*unix.SortCmd)
	return ok
}

// consumerOrderInsensitive reports whether the next region's output is
// invariant under permuting its input lines. Only single-stage regions
// qualify: a fused region is a composition of order-preserving mappers,
// which transports the permutation rather than absorbing it.
func consumerOrderInsensitive(g *Graph, next *Region, opts Options) bool {
	if opts.UnsafeAssumeOrderInsensitive {
		return true
	}
	if len(next.Nodes) != 1 {
		return false
	}
	return g.Nodes[next.Nodes[0]].OrderInsensitive
}

// Streamable reports whether the region can consume a live stream with
// output identical to its chunked execution: fused regions are line
// mappers (always streamable), single parallel stages must be line
// mappers with a concat combiner (streamed output equals
// chunk-and-concat), and single serial stages need only be line mappers.
// It is the one streamability predicate: the optimizer's push-sort-merge
// legality check and the executor's live-stream decision both ask it.
func (p *Program) Streamable(r *Region) bool {
	if r.Fused {
		return true
	}
	n := p.Graph.Nodes[r.Nodes[0]]
	return n.LineMapper && (!n.Stage.Parallel || n.Class == ClassConcat)
}
