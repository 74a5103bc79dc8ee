package dataflow

import (
	"kumquat/internal/synth"
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
	// RuleFragment runs a merge-class producer and the consumer it feeds
	// (FragmentPair) as one region — the chain `prod | cons` per chunk —
	// combined once, by the fragment's own synthesized combiner, after
	// the consumer has reduced each chunk's output: for sort | uniq -c a
	// keyed merge of per-chunk counts replaces the merge of k sorted
	// streams and the uniq -c round after it. Legality: the fragment's
	// combiner is plausible for the fragment as one black box (§3), and
	// not rerun-only, which would redo the whole fragment. It fires once
	// per fragment region.
	RuleFragment Rule = "fragment"
	// RuleDeadMappers drops, from a fused run of line mappers that feeds
	// a line count (wc -l), the longest suffix of members the count
	// cannot observe: each declares one line out per line in, never
	// failing (unix.PreservesLines), and the member just before the
	// suffix terminates every line it emits (unix.TerminatesLines), so
	// the suffix reads whole lines and writes as many. The region keeps
	// its nodes, combiner and closure and runs the chain of the kept
	// members; the dropped ones are its Dead. It fires once per dropped
	// stage.
	RuleDeadMappers Rule = "dead-mappers"
	// RulePushSortMerge named a retired rewrite: the lazy k-way merge of
	// a sort's chunk outputs in its streaming consumer's read path. No
	// lowering fires it and no report carries it. Its only reader is the
	// frozen benchmark/ (batch.go, which reports its zero count); it goes
	// with the measurement plane's re-baseline (ROADMAP).
	RulePushSortMerge Rule = "push-sort-merge"
	// RuleTheorem5 is the legacy intermediate-combiner elimination
	// (exact-closed stage feeding a parallel consumer). It predates the
	// dataflow plane and is tagged on regions for the dump, but not
	// counted among the new rewrites. Disabling it too leaves the
	// no-rewrite lowering: one region per stage, every exit a combine.
	RuleTheorem5 Rule = "theorem5"
)

// Rules lists the rewrites Optimize applies and counts in
// Program.Fired, in the order it applies them.
var Rules = []Rule{RuleFragment, RuleFuseStreamers, RuleDeadMappers, RuleElideCombine}

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
	// pass: a run of line mappers, or a fragment.
	Fused bool
	// Cmd is the region's executable: the chain of its member stages'
	// commands when it is fused (less its Dead), the single stage's
	// command otherwise.
	Cmd unix.Command
	// Dead are the member node IDs the region does not run, a suffix of
	// Nodes whose output only a line count reads (RuleDeadMappers).
	Dead []int
	// Parallel marks regions executed chunk-parallel (every member stage
	// is planner-parallel).
	Parallel bool
	// Combiner combines the region's chunk outputs at a combine exit:
	// the fragment's own combiner for a fragment region, the last
	// member's otherwise (nil when that stage has none).
	Combiner *synth.Combiner
	// Closure is the guarantee on the region's concatenated chunk
	// outputs: the last member's, except a fragment region's, which is
	// ClosureNone.
	Closure Closure
	// Exit is the region's output disposition after a chunk-parallel run.
	Exit ExitKind
	// Rules tags the rewrites that fired on this region or its exit
	// (RuleTheorem5 included, for the dump).
	Rules []Rule
}

// Program is a lowering's output: the region sequence the executor
// walks, plus the per-rule fire counters. Every execution configuration
// is one Program, built by Optimize with the rules it allows.
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
	// (pipeline.WithFuse(false)) is the program lowered with every rule
	// of Rules disabled (Theorem 5 splits only); with RuleTheorem5
	// disabled as well it is the stage-at-a-time baseline. Tests and
	// benchmarks ablate rules one at a time.
	Disable map[Rule]bool
}

func (o Options) disabled(r Rule) bool { return o.Disable[r] }

// Optimize runs the rewrite pipeline over the graph: first the region
// pass joins each fragment pair into one region and fuses maximal runs
// of fusable stages, then the boundary pass decides each region's exit
// (combine elision, Theorem 5 splitting, or the default combine).
func Optimize(g *Graph, opts Options) *Program {
	p := &Program{Graph: g, Fired: map[Rule]int{}}
	for _, r := range Rules {
		p.Fired[r] = 0
	}
	// Pass 1: fragment regions, then maximal runs of adjacent fusable
	// stages.
	for i := 0; i < len(g.Nodes); {
		if c := fragmentCombiner(g, i); c != nil && !opts.disabled(RuleFragment) {
			prod, cons := g.Nodes[i], g.Nodes[i+1]
			p.Regions = append(p.Regions, &Region{
				Nodes: []int{i, i + 1}, Fused: true, Parallel: true, Closure: ClosureNone,
				Cmd:      unix.NewChain(prod.Stage.Cmd, cons.Stage.Cmd),
				Combiner: c, Rules: []Rule{RuleFragment},
			})
			p.Fired[RuleFragment]++
			i += 2
			continue
		}
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
			// Fused members are all exact-closed; a chain of
			// order-preserving mappers transports a permutation, never
			// absorbs it.
			r.Combiner, r.Closure = stageCombiner(g.Nodes[j-1]), g.Nodes[j-1].Closure
			p.Fired[RuleFuseStreamers] += j - i - 1
			if j < len(g.Nodes) && unix.CountsLines(g.Nodes[j].Stage.Cmd) && !opts.disabled(RuleDeadMappers) {
				if kept := countedPrefix(cmds); kept < len(cmds) {
					r.Cmd, r.Dead = unix.NewChain(cmds[:kept]...), r.Nodes[kept:]
					r.Rules = append(r.Rules, RuleDeadMappers)
					p.Fired[RuleDeadMappers] += len(cmds) - kept
				}
			}
			p.Regions = append(p.Regions, r)
			i = j
			continue
		}
		n := g.Nodes[i]
		p.Regions = append(p.Regions, &Region{
			Nodes: []int{i}, Cmd: n.Stage.Cmd, Parallel: n.Stage.Parallel,
			Combiner: stageCombiner(n), Closure: n.Closure,
		})
		i++
	}
	// Pass 2: decide exits at region boundaries. The final region always
	// combines — a single output stream must emerge.
	for ri := 0; ri+1 < len(p.Regions); ri++ {
		r, next := p.Regions[ri], p.Regions[ri+1]
		if !r.Parallel {
			continue
		}
		cl := r.Closure
		switch {
		case cl == ClosureExact && next.Parallel:
			// Theorem 5: exact closure feeds any parallel consumer. It
			// also covers an order-insensitive one, so the elision counts
			// for the legacy rule and the new-rule counters measure
			// genuinely new elisions.
			if !opts.disabled(RuleTheorem5) {
				r.Exit = ExitSplit
				r.Rules = append(r.Rules, RuleTheorem5)
			}
		case cl != ClosureNone && unix.IsOrderInsensitive(next.Cmd) && !opts.disabled(RuleElideCombine):
			// Rule 2: the consumer cannot observe the permutation.
			if next.Parallel {
				r.Exit = ExitSplit
			} else {
				r.Exit = ExitConcat
			}
			r.Rules = append(r.Rules, RuleElideCombine)
			p.Fired[RuleElideCombine]++
		}
	}
	return p
}

// stageCombiner is a node's synthesized combiner, nil when it has none.
func stageCombiner(n *Node) *synth.Combiner {
	if n.Class == ClassNone {
		return nil
	}
	return n.Stage.Synth.Combiner
}

// fragmentCombiner is the combiner the fragment rule runs node i and
// the next as one region with: the synthesized fragment's, when
// FragmentPair holds for the two and that combiner is not rerun-only;
// nil otherwise.
func fragmentCombiner(g *Graph, i int) *synth.Combiner {
	if i+1 >= len(g.Nodes) || !FragmentPair(g.Nodes[i].Stage, g.Nodes[i+1].Stage) {
		return nil
	}
	f := g.Nodes[i].Stage.Fragment
	if combinerClass(f) == ClassNone || f.Combiner.IsRerunOnly() {
		return nil
	}
	return f.Combiner
}

// fusable reports whether a stage may join a fused region: a parallel,
// concat-combined, stream-output line mapper (unix.CanStream). Concat
// closure guarantees chunk-and-concatenate equals the staged execution;
// line independence guarantees the composed per-line pass equals the
// staged passes.
func fusable(n *Node) bool {
	return n.Stage.Parallel && unix.CanStream(n.Stage.Cmd) && n.Class == ClassConcat && n.Stage.StreamOutput
}

// countedPrefix is how many of a fused run's members a line count
// downstream needs run: all but the longest suffix of line-preserving
// members, shrunk from its front until the member before it terminates
// its lines. With no member before it the run's own input, which may end
// unterminated, would reach the suffix, so that member is kept too.
func countedPrefix(cmds []unix.Command) int {
	kept := len(cmds)
	for kept > 0 && unix.PreservesLines(cmds[kept-1]) {
		kept--
	}
	for kept < len(cmds) && (kept == 0 || !unix.TerminatesLines(cmds[kept-1])) {
		kept++
	}
	return kept
}
