// Package dataflow is the order-aware graph IR between the pipeline
// planner and the executor: nodes are command stages in stream order, and
// each node carries the closure metadata of its output stream — derived
// from the stage's synthesized combiner class and its command
// capabilities — that licenses the optimizer's split/merge-fusion
// rewrites ("An Order-Aware Dataflow Model for Parallel Unix Pipelines"
// applied to the KumQuat combiner taxonomy).
//
// pipeline.CompileContext lowers every linear script into a Graph and runs
// Optimize over it; the optimized Program drives the fused executor in
// internal/pipeline, which runs fused regions chunk-parallel end to end
// instead of combining and re-splitting at every stage boundary.
package dataflow

import (
	"kumquat/internal/dsl"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// Stage is the lowering input: one compiled pipeline stage together with
// its planning verdict. pipeline.StagePlan embeds it, so the planner's
// verdict and the graph's input are one record.
type Stage struct {
	// Spec is the stage's command text.
	Spec string
	// Cmd is the parsed command.
	Cmd unix.Command
	// Synth is the stage's synthesis result (nil or Err != nil when no
	// combiner was synthesized).
	Synth *synth.Result
	// Parallel marks stages the planner runs data-parallel with a combiner.
	Parallel bool
	// Sequential marks rerun-only stages the planner keeps serial.
	Sequential bool
	// StreamOutput records whether the command's outputs are
	// newline-terminated streams — Theorem 5's precondition (tr -d '\n'
	// violates it).
	StreamOutput bool
	// Fragment is the synthesis result of this stage piped into the
	// next one, as one command (`prod | cons`); nil unless FragmentPair
	// holds for the two and the planner synthesized it.
	Fragment *synth.Result
}

// FragmentPair reports whether the fragment rule may join stage prod
// with the stage cons it feeds, which is where the planner synthesizes
// the fragment `prod | cons`: a merge-class producer the planner runs
// parallel, feeding a parallel consumer that is neither a line mapper
// nor order-insensitive. Behind a line mapper the merge already sits in
// front of a chunk-parallel consumer, and a mapper may reorder lines
// under the sort's comparator where a sample does not show it; an
// order-insensitive consumer loses the merge to elide-combine with no
// synthesis at all. What is left is the reducing consumer — uniq -c,
// uniq — whose fragment combines once, after the reduction.
func FragmentPair(prod, cons Stage) bool {
	return prod.Parallel && cons.Parallel && combinerClass(prod.Synth) == ClassMerge &&
		!unix.CanStream(cons.Cmd) && !unix.IsOrderInsensitive(cons.Cmd)
}

// CombinerClass buckets a stage's synthesized combiner by its primary
// candidate — the classes the optimizer's legality rules dispatch on
// (Table 6's combiner taxonomy collapsed to execution-relevant classes).
type CombinerClass int

const (
	// ClassNone marks stages with no synthesized combiner.
	ClassNone CombinerClass = iota
	// ClassConcat marks stages whose primary combiner is plain
	// concatenation in argument order (§3.5 / Theorem 5 material).
	ClassConcat
	// ClassMerge marks stages whose primary combiner is the k-way sorted
	// merge (sort-class stages).
	ClassMerge
	// ClassRerun marks stages whose only combiner re-runs the command.
	ClassRerun
	// ClassOther covers the remaining combiner forms (stitch2, add-style
	// RecOps and StructOps over boundary rows).
	ClassOther
)

// String names the class as the program dump prints it.
func (c CombinerClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassConcat:
		return "concat"
	case ClassMerge:
		return "merge"
	case ClassRerun:
		return "rerun"
	case ClassOther:
		return "other"
	}
	return "invalid"
}

// Closure is a stage output's ordering guarantee when the stage's
// combine is skipped and its k chunk outputs are concatenated in chunk
// order instead of combined.
type Closure int

const (
	// ClosureNone: concatenated chunk outputs bear no useful relation to
	// the combined stream; the combiner must run.
	ClosureNone Closure = iota
	// ClosureExact: concatenation of the chunk outputs IS the combined
	// stream (concat combiner over newline-terminated outputs) — the
	// output may stay split for any consumer (Theorem 5).
	ClosureExact
	// ClosurePerm: concatenation is a line-permutation of the combined
	// stream (merge combiner that drops no lines, over newline-terminated
	// outputs) — the output may stay split for an order-insensitive
	// consumer.
	ClosurePerm
)

// String names the closure as the program dump prints it.
func (c Closure) String() string {
	switch c {
	case ClosureNone:
		return "none"
	case ClosureExact:
		return "exact"
	case ClosurePerm:
		return "perm"
	}
	return "invalid"
}

// Node is one stage with its derived capabilities.
type Node struct {
	// Stage is the lowering input.
	Stage Stage
	// Class is the synthesized combiner's class.
	Class CombinerClass
	// Closure is the guarantee on the node's output stream — what its
	// consumer (the next node, or the sink) may rely on when the node's
	// combine is elided.
	Closure Closure
}

// Graph is the lowered pipeline: a linear chain of nodes, each feeding
// the next, from the source to the sink.
type Graph struct {
	// InputFile names the data source ("" = standard input).
	InputFile string
	// Nodes holds one node per stage, in pipeline order.
	Nodes []*Node
}

// Build lowers a compiled linear pipeline into the graph IR, deriving each
// node's capabilities and its output's closure.
func Build(inputFile string, stages []Stage) *Graph {
	g := &Graph{InputFile: inputFile, Nodes: make([]*Node, len(stages))}
	for i, st := range stages {
		n := &Node{Stage: st}
		n.Class = combinerClass(st.Synth)
		n.Closure = closure(n)
		g.Nodes[i] = n
	}
	return g
}

// combinerClass buckets a synthesis result by its primary candidate.
func combinerClass(res *synth.Result) CombinerClass {
	if res == nil || res.Err != nil || res.Combiner == nil {
		return ClassNone
	}
	c := res.Combiner
	if c.IsConcat() {
		return ClassConcat
	}
	switch c.Primary().Op.(type) {
	case dsl.Merge:
		return ClassMerge
	case dsl.Rerun:
		return ClassRerun
	default:
		return ClassOther
	}
}

// closure derives the guarantee on a node's output stream.
// Exact closure is Theorem 5's precondition: a concat combiner (in
// argument order) over newline-terminated chunk outputs, so concatenation
// reproduces the combined stream byte for byte. Permutation closure
// additionally admits merge-class producers — each chunk output is sorted,
// and concatenating them permutes the lines of the merged stream — but
// only when the merge drops nothing: sort -u dedups across chunk
// boundaries during the merge, so skipping it would leave duplicates.
func closure(n *Node) Closure {
	if !n.Stage.Parallel || !n.Stage.StreamOutput {
		return ClosureNone
	}
	switch n.Class {
	case ClassConcat:
		return ClosureExact
	case ClassMerge:
		if sc, ok := n.Stage.Cmd.(*unix.SortCmd); ok && !sc.Unique {
			return ClosurePerm
		}
	}
	return ClosureNone
}
