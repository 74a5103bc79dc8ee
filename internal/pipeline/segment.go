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
	// Members are the member regions' commands, in order: a fused
	// region's composed mapper, or a single stage's command.
	Members []unix.Command
	// Stages holds every member's stage specs, in order; a fused region
	// contributes its member specs, not fused(…).
	Stages []string
	// Script is Stages joined by " | ": the script a worker runs, as an
	// ordinary serial execute, over one shard.
	Script string
	// last[m] is the index in Stages of member m's last stage.
	last []int
}

// newSegment builds the segment of consecutive program regions.
func newSegment(p *Plan, regions []*dataflow.Region) *Segment {
	seg := &Segment{Members: make([]unix.Command, len(regions)), last: make([]int, len(regions))}
	for m, r := range regions {
		seg.Members[m] = regionRun(p, r)
		for _, id := range r.Nodes {
			seg.Stages = append(seg.Stages, p.Stages[id].Spec)
		}
		seg.last[m] = len(seg.Stages) - 1
	}
	seg.Script = strings.Join(seg.Stages, " | ")
	return seg
}

// Run sends chunk i through every member in turn and returns the last
// member's output and each member's output volume. A failure names the
// member stage that failed, not the segment.
func (s *Segment) Run(i int, chunk string) (string, []int64, error) {
	bytesOut := make([]int64, len(s.Members))
	for m, cmd := range s.Members {
		out, err := cmd.Run(chunk)
		if err != nil {
			return "", nil, fmt.Errorf("pipeline: stage %q chunk %d: %w", cmd.Spec(), i, err)
		}
		bytesOut[m] = int64(len(out))
		chunk = out
	}
	return chunk, bytesOut, nil
}

// MemberBytes maps the per-stage output volumes of one run of Script — a
// worker's report, one entry per entry of Stages — onto the members: a
// member's output is its last stage's.
func (s *Segment) MemberBytes(stageBytes []int64) []int64 {
	bytesOut := make([]int64, len(s.last))
	for m, i := range s.last {
		bytesOut[m] = stageBytes[i]
	}
	return bytesOut
}
