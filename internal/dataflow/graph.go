// Package dataflow is the order-aware graph IR between the pipeline
// planner and the executor: nodes are command stages, edges are ordered
// line streams, and each edge carries the closure metadata — derived from
// the stage's synthesized combiner class and its command capabilities —
// that licenses the optimizer's split/merge-fusion rewrites ("An
// Order-Aware Dataflow Model for Parallel Unix Pipelines" applied to the
// KumQuat combiner taxonomy).
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
// its planning verdict. It mirrors pipeline.StagePlan field-for-field so
// the pipeline package can lower without a dependency cycle.
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
	// newline-terminated streams (Theorem 5's precondition).
	StreamOutput bool
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

// Closure is an edge's ordering guarantee when the upstream stage's
// combine is skipped and its k chunk outputs are concatenated in chunk
// order instead of combined.
type Closure int

const (
	// ClosureNone: concatenated chunk outputs bear no useful relation to
	// the combined stream; the combiner must run.
	ClosureNone Closure = iota
	// ClosureExact: concatenation of the chunk outputs IS the combined
	// stream (concat combiner over newline-terminated outputs) — the edge
	// may stay split for any consumer (Theorem 5).
	ClosureExact
	// ClosurePerm: concatenation is a line-permutation of the combined
	// stream (merge combiner that drops no lines, over newline-terminated
	// outputs) — the edge may stay split for an order-insensitive
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
	// ID is the node's index in Graph.Nodes (stage order).
	ID int
	// Stage is the lowering input.
	Stage Stage
	// LineMapper reports that the command maps input lines to output
	// lines independently (unix.AsLineMapper) — the fusion substrate,
	// and the one capability that lets a stage consume a live stream
	// incrementally.
	LineMapper bool
	// OrderInsensitive reports that the command's output depends only on
	// the multiset of input lines (unix.IsOrderInsensitive).
	OrderInsensitive bool
	// Class is the synthesized combiner's class.
	Class CombinerClass
}

// Edge is the ordered line stream between two adjacent stages. From is -1
// for the pipeline source; To is -1 for the final sink.
type Edge struct {
	From, To int
	// Closure is the ordering guarantee the producing stage offers when
	// its combine is elided (ClosureNone for the source edge).
	Closure Closure
}

// Graph is the lowered pipeline: a linear chain today, with the node/edge
// representation DAG-shaped pipelines will extend.
type Graph struct {
	// InputFile names the data source ("" = standard input).
	InputFile string
	// Nodes holds one node per stage, in pipeline order.
	Nodes []*Node
	// Edges holds len(Nodes)+1 edges: Edges[i] feeds Nodes[i] (Edges[0]
	// from the source), and the last edge leads to the sink.
	Edges []*Edge
}

// Build lowers a compiled linear pipeline into the graph IR, deriving each
// node's capabilities and each edge's closure metadata.
func Build(inputFile string, stages []Stage) *Graph {
	g := &Graph{InputFile: inputFile}
	for i, st := range stages {
		n := &Node{ID: i, Stage: st}
		_, n.LineMapper = unix.AsLineMapper(st.Cmd)
		n.OrderInsensitive = unix.IsOrderInsensitive(st.Cmd)
		n.Class = combinerClass(st.Synth)
		g.Nodes = append(g.Nodes, n)
		g.Edges = append(g.Edges, &Edge{From: i - 1, To: i})
		if i > 0 {
			g.Edges[i].Closure = closure(g.Nodes[i-1])
		}
	}
	g.Edges = append(g.Edges, &Edge{From: len(stages) - 1, To: -1})
	if n := len(stages); n > 0 {
		g.Edges[n].Closure = closure(g.Nodes[n-1])
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

// closure derives the outgoing edge's guarantee from the producing node.
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
