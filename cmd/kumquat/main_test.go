package main

import (
	"strings"
	"testing"
	"time"

	"kumquat"
	"kumquat/internal/pipeline"
)

// TestWriteReportFusedRegion: a fused region's figures print on its
// region line, and a member between its first and last names the region
// instead of printing zeros.
func TestWriteReportFusedRegion(t *testing.T) {
	stage := func(spec string, m pipeline.StageMetrics) kumquat.StageReport {
		return kumquat.StageReport{StageInfo: kumquat.StageInfo{Spec: spec, Parallel: true}, StageMetrics: m}
	}
	rep := &kumquat.RunReport{
		Mode: kumquat.Optimized, Parallelism: 2, Fused: true,
		Rewrites: map[string]int{"fuse-streamers": 2},
		Stages: []kumquat.StageReport{
			stage("grep -i light", pipeline.StageMetrics{Chunks: 2, Wall: 1500 * time.Microsecond, BytesIn: 31}),
			stage("tr a-z A-Z", pipeline.StageMetrics{Chunks: 2}),
			stage("cut -c 1-5", pipeline.StageMetrics{Chunks: 2, BytesOut: 18}),
			stage("sort", pipeline.StageMetrics{Chunks: 2, Wall: 2 * time.Millisecond, BytesIn: 18, BytesOut: 18, CombineWall: 300 * time.Microsecond}),
		},
		Regions: []kumquat.RegionReport{
			{RegionMetrics: pipeline.RegionMetrics{Stages: []int{0, 1, 2}, Fused: true, Exit: "split",
				Wall: 1500 * time.Microsecond, BytesIn: 31, BytesOut: 18, Chunks: 2, Rules: []string{"fuse-streamers"}}},
			{RegionMetrics: pipeline.RegionMetrics{Stages: []int{3}, Exit: "combine",
				Wall: 2 * time.Millisecond, BytesIn: 18, BytesOut: 18, Chunks: 2, CombineWall: 300 * time.Microsecond}},
		},
	}
	var b strings.Builder
	writeReport(&b, rep)
	lines := map[string]string{}
	for _, l := range strings.Split(b.String(), "\n") {
		for _, key := range []string{"region 0:", "region 1:", "grep -i light", "tr a-z A-Z", "cut -c 1-5", "sort "} {
			if strings.Contains(l, key) {
				lines[key] = l
			}
		}
	}
	for key, want := range map[string][]string{
		"region 0:":     {"fused", "2 chunks", "wall=1.5ms", "in=31", "out=18", "rules=fuse-streamers"},
		"region 1:":     {"single", "2 chunks", "wall=2ms", "in=18", "out=18", "combine=300µs"},
		"grep -i light": {"wall=1.5ms", "in=31"},
		"tr a-z A-Z":    {"2 chunks", "region 0"},
		"cut -c 1-5":    {"out=18"},
		"sort ":         {"wall=2ms", "combine=300µs"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[key], w) {
				t.Errorf("%q line %q lacks %q\n%s", key, lines[key], w, b.String())
			}
		}
	}
	if strings.Contains(lines["tr a-z A-Z"], "wall=") {
		t.Errorf("inner fused member prints figures it does not have: %q", lines["tr a-z A-Z"])
	}
}
