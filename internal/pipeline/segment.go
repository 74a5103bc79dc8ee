package pipeline

import (
	"fmt"
	"strings"

	"kumquat/internal/dataflow"
	"kumquat/internal/unix"
)

// Segment is what one Leaves call runs on every chunk: a chunk-parallel
// region together with the regions its split exits feed, up to the first
// exit that is not a split (a lone region is a one-member segment). A
// split exit means the next region reads the same partition, so each
// chunk goes through every member in one leaf call — on the cluster, one
// worker request — and only the last member's exit meets the other
// chunks.
type Segment struct {
	// Chain's members are the member regions' commands, in order, a
	// fused region's being the chain of its stages; its spec, every stage
	// joined by " | ", is the script a worker runs, as an ordinary serial
	// execute, over one shard.
	Chain *unix.Chain
}

// newSegment builds the segment of consecutive program regions.
func newSegment(regions []*dataflow.Region) *Segment {
	cmds := make([]unix.Command, len(regions))
	for m, r := range regions {
		cmds[m] = r.Cmd
	}
	return &Segment{Chain: unix.NewChain(cmds...)}
}

// Run sends chunk i through every member in turn and returns the last
// member's output and each member's output volume. A failure names the
// member stage that failed, not the segment.
func (s *Segment) Run(i int, chunk string) (string, []int64, error) {
	bytesOut := make([]int64, len(unix.Members(s.Chain)))
	out, err := s.Chain.Stepwise(chunk, bytesOut)
	if err != nil {
		se := unix.Failure(s.Chain, err)
		return "", nil, fmt.Errorf("pipeline: stage %q chunk %d: %w", se.Spec, i, se.Err)
	}
	return out, bytesOut, nil
}

// memoKey keys the segment's runs in the Env's memo: the pipeline stage
// it starts at, so two segments of one pipeline that run the same script
// keep a generation each, and its script with its member boundaries, as
// a fused `a | b` and the two-member segment a, b print one script but
// report one and two member volumes.
func (s *Segment) memoKey(stage int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d@", stage)
	for _, m := range unix.Members(s.Chain) {
		fmt.Fprintf(&b, "%d:%s;", len(m.Spec()), m.Spec())
	}
	return b.String()
}

// MemberBytes maps the per-stage output volumes of one run of the
// segment's script — a worker's report, one entry per stage — onto the
// members: a member's output is its last stage's.
func (s *Segment) MemberBytes(stageBytes []int64) ([]int64, error) {
	var bytesOut []int64
	last := -1
	for _, m := range unix.Members(s.Chain) {
		if last += len(unix.Members(m)); last < len(stageBytes) {
			bytesOut = append(bytesOut, stageBytes[last])
		}
	}
	if len(stageBytes) != last+1 {
		return nil, fmt.Errorf("reported %d stages for a %d-stage script", len(stageBytes), last+1)
	}
	return bytesOut, nil
}
