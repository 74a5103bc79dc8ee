package main

import (
	"context"
	"io"
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
			{RegionMetrics: pipeline.RegionMetrics{Stages: []int{0, 1, 2}, Fused: true, Exit: "concat",
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

// TestWriteReportSegment: a region that ran inside its predecessor's
// segment names the head region that holds the segment's wall, on its
// region line and on its first member's line, instead of printing a wall
// of zero. grep | tr | cut fuse into a region whose split exit feeds the
// sort | uniq -c fragment. Over a registered file the walk runs both as
// one segment; over an external stdin the first region streams and the
// second starts a segment of its own, so it prints its own wall.
func TestWriteReportSegment(t *testing.T) {
	const input = "light a\ndark b\nLight c\nlight a\n"
	for _, tc := range []struct {
		name, script string
		stdin        io.Reader
		want         map[string]string
		ownWall      bool
	}{
		{
			name:   "file",
			script: "cat in.txt | grep -i light | tr a-z A-Z | cut -c 1-5 | sort | uniq -c\n",
			want: map[string]string{
				"region 0:":     "exit=split 2 chunks wall=",
				"region 1:":     "2 chunks segment: wall on region 0 in=18 out=14",
				"grep -i light": "2 chunks   wall=",
				"sort ":         "2 chunks   segment: wall on region 0 in=18",
			},
		},
		{
			name:   "stdin",
			script: "grep -i light | tr a-z A-Z | cut -c 1-5 | sort | uniq -c\n",
			// A reader that is not in memory, as os.Stdin, streams live.
			stdin: io.MultiReader(strings.NewReader(input)),
			want: map[string]string{
				"region 0:":     "exit=split streamed wall=",
				"region 1:":     "2 chunks wall=",
				"grep -i light": "streamed   wall=",
				"sort ":         "2 chunks   wall=",
			},
			ownWall: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := kumquat.NewEnv()
			env.Register("in.txt", input)
			sys := kumquat.NewWithOptions(env, kumquat.Options{Seed: 1})
			ctx := context.Background()
			plan, err := sys.Parallelize(ctx, tc.script)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			opts := []kumquat.ExecOption{kumquat.WithParallelism(2), kumquat.WithOutput(&out)}
			if tc.stdin != nil {
				opts = append(opts, kumquat.WithStdin(tc.stdin))
			}
			rep, err := plan.Execute(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want := "      3 LIGHT\n"; out.String() != want {
				t.Fatalf("output %q, want %q", out.String(), want)
			}
			var b strings.Builder
			writeReport(&b, rep)
			lines := map[string]string{}
			for _, l := range strings.Split(b.String(), "\n") {
				for key := range tc.want {
					if strings.Contains(l, key) {
						lines[key] = l
					}
				}
			}
			for key, want := range tc.want {
				if !strings.Contains(lines[key], want) {
					t.Errorf("%q line %q lacks %q\n%s", key, lines[key], want, b.String())
				}
			}
			for _, key := range []string{"region 1:", "sort "} {
				if strings.Contains(lines[key], "wall=") != tc.ownWall {
					t.Errorf("%q line %q: prints a wall of its own = %v, want %v",
						key, lines[key], !tc.ownWall, tc.ownWall)
				}
			}
		})
	}
}
