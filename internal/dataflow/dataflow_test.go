// Tests for the dataflow plane live in an external test package so they
// can drive the real lowering path — pipeline.CompileContext produces the graph
// and program under test — without an import cycle (pipeline imports
// dataflow).
package dataflow_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/dataflow"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

func newSynth() *synth.Engine {
	return synth.New(unix.DefaultEnv(), synth.Options{Seed: 1})
}

// compile parses and compiles a one-pipeline script through a shared
// engine, returning the plan with its lowered graph and program.
func compile(t *testing.T, eng *synth.Engine, script string) *pipeline.Plan {
	t.Helper()
	s, err := pipeline.ParseScript(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.CompileContext(context.Background(), s.Pipelines[0], eng)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCombinerClassTaxonomy pins the class the lowering derives for a
// representative command of every combiner class in the paper's Table 6
// taxonomy, plus the capability bits the optimizer's legality rules
// dispatch on.
func TestCombinerClassTaxonomy(t *testing.T) {
	eng := newSynth()
	cases := []struct {
		spec       string
		class      dataflow.CombinerClass
		lineMapper bool
		orderIns   bool
	}{
		// concat: line mappers whose chunk outputs concatenate exactly.
		{"tr A-Z a-z", dataflow.ClassConcat, true, false},
		{"grep a", dataflow.ClassConcat, true, false},
		{"cut -c 1-4", dataflow.ClassConcat, true, false},
		{"sed 's/a/X/'", dataflow.ClassConcat, true, false},
		// merge: sort-class stages combined by the k-way sorted merge.
		{"sort", dataflow.ClassMerge, false, true},
		{"sort -rn", dataflow.ClassMerge, false, true},
		{"sort -u", dataflow.ClassMerge, false, true},
		// keyed sort without -u: the last-resort whole-line comparison
		// breaks key ties deterministically, so input order cannot show.
		{"sort -k1n", dataflow.ClassMerge, false, true},
		// other: stitch-class boundary merges and add-class counters.
		{"uniq -c", dataflow.ClassOther, false, false},
		{"wc -l", dataflow.ClassOther, false, true},
		{"grep -c e", dataflow.ClassOther, false, true},
	}
	for _, tc := range cases {
		plan := compile(t, eng, tc.spec+"\n")
		n := plan.Graph.Nodes[0]
		if n.Class != tc.class {
			t.Errorf("%q: class = %s, want %s", tc.spec, n.Class, tc.class)
		}
		if n.LineMapper != tc.lineMapper {
			t.Errorf("%q: LineMapper = %v, want %v", tc.spec, n.LineMapper, tc.lineMapper)
		}
		if n.OrderInsensitive != tc.orderIns {
			t.Errorf("%q: OrderInsensitive = %v, want %v", tc.spec, n.OrderInsensitive, tc.orderIns)
		}
	}
	// rerun: stages whose only combiner re-runs the command (kept serial
	// by the planner). tr -cs's word-splitting is §2's example.
	plan := compile(t, eng, `tr -cs A-Za-z '\n'`+"\n")
	n := plan.Graph.Nodes[0]
	if n.Class != dataflow.ClassRerun {
		t.Errorf("tr -cs: class = %s, want rerun", n.Class)
	}
	if !n.Stage.Sequential {
		t.Error("tr -cs: planner should keep a rerun-only stage sequential")
	}
}

// TestEdgeClosures pins the closure metadata the lowering attaches to
// edges: exact for concat-class producers, perm for sort-class producers
// that drop no lines, none for sort -u (the merge dedups across chunk
// boundaries, so skipping it leaves duplicates).
func TestEdgeClosures(t *testing.T) {
	eng := newSynth()
	cases := []struct {
		script  string
		edge    int // edge index = consumer node index
		closure dataflow.Closure
	}{
		{"tr A-Z a-z | wc -l\n", 1, dataflow.ClosureExact},
		{"sort | wc -l\n", 1, dataflow.ClosurePerm},
		{"sort -u | wc -l\n", 1, dataflow.ClosureNone},
		{"uniq -c | wc -l\n", 1, dataflow.ClosureNone},
	}
	for _, tc := range cases {
		plan := compile(t, eng, tc.script)
		if got := plan.Graph.Edges[tc.edge].Closure; got != tc.closure {
			t.Errorf("%q edge %d: closure = %s, want %s", tc.script, tc.edge, got, tc.closure)
		}
	}
}

// propertyCorpora is the corpus sweep of the byte-identity property: the
// shapes that break stream code — no trailing newline, empty input, and
// fewer lines than chunks (empty-chunk territory) included.
var propertyCorpora = []struct {
	name   string
	corpus string
}{
	{"words", "pear apple\nfig Quince\nloquat\nkumquat medlar\nplum pear\nthe fig\n"},
	{"no-trailing-newline", "pear apple\nfig Quince\nloquat\nkumquat"},
	{"empty", ""},
	{"single-line", "only line here\n"},
	{"two-lines", "beta\nalpha\n"},
	{"duplicates", "apple\napple\npear\napple\npear\npear\napple\n"},
	{"numbers", "10\n2\n-3\n2\n700\n0\n10\n33\n"},
	{"blanks", "pear\n\n\napple\n\nfig\n"},
}

// propertyPipelines covers every combiner class and provokes each of the
// optimizer's rewrites at least once.
var propertyPipelines = []string{
	// fuse-streamers: runs of concat-class line mappers.
	"cat in.txt | tr A-Z a-z | grep a | cut -c 1-4\n",
	"cat in.txt | rev | tr a-z A-Z | sed 's/A/x/'\n",
	// elide-combine: sort-class into order-insensitive reducers.
	"cat in.txt | sort | wc -l\n",
	"cat in.txt | sort -n | grep -c e\n",
	// push-sort-merge: sort-class into order-sensitive streamers.
	"cat in.txt | sort | sed 's/^a/X/'\n",
	"cat in.txt | sort -r | grep a\n",
	// mixed classes: merge, stitch (uniq -c), merge again.
	"cat in.txt | tr A-Z a-z | sort | uniq -c | sort -rn\n",
	// sort -u (no perm closure) into a streamer; add-class tail.
	"cat in.txt | sort -u | cut -c 1-3 | wc -l\n",
	// rerun-only stage in the middle.
	"cat in.txt | grep a | head -n 3 | tr a-z A-Z\n",
}

// TestFusedByteIdenticalToStaged is the plane's core property: for every
// pipeline × corpus × k ∈ {1, 4, GOMAXPROCS}, the fused graph-walking
// execution, the unfused stage-at-a-time execution and the serial oracle
// produce byte-identical output.
func TestFusedByteIdenticalToStaged(t *testing.T) {
	eng := newSynth()
	ks := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, script := range propertyPipelines {
		eng.Env.FS.Register("in.txt", propertyCorpora[0].corpus)
		plan := compile(t, eng, script)
		if plan.Program == nil {
			t.Fatalf("%q: no optimized program", script)
		}
		for _, pc := range propertyCorpora {
			eng.Env.FS.Register("in.txt", pc.corpus)
			var oracle strings.Builder
			if _, err := plan.Execute(context.Background(), eng.Env, nil, &oracle, pipeline.ModeSerial, 1); err != nil {
				t.Fatalf("%q %s serial: %v", script, pc.name, err)
			}
			for _, k := range ks {
				for _, fuse := range []bool{true, false} {
					var out strings.Builder
					var info pipeline.RunInfo
					_, err := plan.Execute(context.Background(), eng.Env, nil, &out,
						pipeline.ModeOptimized, k,
						pipeline.WithFuse(fuse), pipeline.WithRunInfo(&info))
					if err != nil {
						t.Errorf("%q %s k=%d fuse=%v: %v", script, pc.name, k, fuse, err)
						continue
					}
					if out.String() != oracle.String() {
						t.Errorf("%q %s k=%d fuse=%v diverged:\n got %q\nwant %q",
							script, pc.name, k, fuse, out.String(), oracle.String())
					}
					if !fuse && info.Fused {
						t.Errorf("%q %s k=%d: fuse=off run reported fused execution", script, pc.name, k)
					}
				}
			}
		}
	}
}

// TestRunInfoReportsRules: a fused run must report the program's regions
// and the rewrites that shaped them.
func TestRunInfoReportsRules(t *testing.T) {
	eng := newSynth()
	eng.Env.FS.Register("in.txt", "pear apple\nfig quince\nloquat\n")
	plan := compile(t, eng, "cat in.txt | tr A-Z a-z | grep a | cut -c 1-4\n")
	if got := plan.Program.Fired[dataflow.RuleFuseStreamers]; got != 2 {
		t.Fatalf("fuse-streamers fired %d times at compile, want 2 (3-stage run)", got)
	}
	var out strings.Builder
	var info pipeline.RunInfo
	if _, err := plan.Execute(context.Background(), eng.Env, nil, &out,
		pipeline.ModeOptimized, 4, pipeline.WithRunInfo(&info)); err != nil {
		t.Fatal(err)
	}
	if !info.Fused {
		t.Fatal("fused executor did not run")
	}
	if info.Rewrites["fuse-streamers"] != 2 {
		t.Errorf("run info rewrites = %v, want fuse-streamers=2", info.Rewrites)
	}
	if len(info.Regions) != 1 || !info.Regions[0].Fused || len(info.Regions[0].Stages) != 3 {
		t.Errorf("regions = %+v, want one fused region of 3 stages", info.Regions)
	}
}

// TestOptimizeAblation: disabling a rule must suppress exactly that
// rule's rewrites while the program stays executable and correct.
func TestOptimizeAblation(t *testing.T) {
	eng := newSynth()
	eng.Env.FS.Register("in.txt", "pear\napple\nfig\nquince\nloquat\n")
	plan := compile(t, eng, "cat in.txt | tr A-Z a-z | grep a | sort | wc -l\n")
	base := plan.Program.Fired
	if base[dataflow.RuleFuseStreamers] == 0 || base[dataflow.RuleElideCombine] == 0 {
		t.Fatalf("baseline program missing expected rewrites: %v", base)
	}
	plan.Relower(dataflow.Options{Disable: map[dataflow.Rule]bool{
		dataflow.RuleFuseStreamers: true,
	}})
	if got := plan.Program.Fired[dataflow.RuleFuseStreamers]; got != 0 {
		t.Errorf("fuse-streamers disabled but fired %d times", got)
	}
	if got := plan.Program.Fired[dataflow.RuleElideCombine]; got == 0 {
		t.Error("elide-combine should survive a fuse-streamers ablation")
	}
	var oracle, out strings.Builder
	if _, err := plan.Execute(context.Background(), eng.Env, nil, &oracle, pipeline.ModeSerial, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), eng.Env, nil, &out, pipeline.ModeOptimized, 4); err != nil {
		t.Fatal(err)
	}
	if out.String() != oracle.String() {
		t.Errorf("ablated program diverged: got %q want %q", out.String(), oracle.String())
	}
	plan.Relower(dataflow.Options{})
	if plan.Program.Fired[dataflow.RuleFuseStreamers] != base[dataflow.RuleFuseStreamers] {
		t.Error("re-lowering with defaults did not restore the baseline program")
	}
}

// TestFusedMapperComposes: the composed per-line pass must equal running
// the member mappers stage by stage, including on dropped lines (grep)
// and non-terminated tails.
func TestFusedMapperComposes(t *testing.T) {
	env := unix.DefaultEnv()
	specs := []string{"tr A-Z a-z", "grep a", "cut -c 1-4"}
	var mappers []unix.LineMapper
	cmds := make([]unix.Command, len(specs))
	for i, spec := range specs {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		cmds[i] = cmd
		lm, ok := unix.AsLineMapper(cmd)
		if !ok {
			t.Fatalf("%q is not a line mapper", spec)
		}
		mappers = append(mappers, lm)
	}
	fm := dataflow.NewFusedMapper(specs, mappers)
	for _, in := range []string{
		"", "Pear Apple\nFIG\nquince\n", "no trailing newline",
		"LOQUAT\nApricot\n\nkumquat", "ALL CAPS DROPPED\nBANANA\n",
	} {
		want := in
		for _, cmd := range cmds {
			var err error
			if want, err = cmd.Run(want); err != nil {
				t.Fatal(err)
			}
		}
		got, err := fm.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("fused(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFusedRunAllocations pins the fused pass's allocation behaviour:
// one Run over a chunk allocates O(1) — the composed line function,
// per-stage scratch, and output builder growth — not O(lines). A
// per-line regression (a result slice or string sneaking back into the
// hot loop) blows the bound by orders of magnitude.
func TestFusedRunAllocations(t *testing.T) {
	env := unix.DefaultEnv()
	specs := []string{"tr a-z A-Z", "grep A", "cut -c 1-8"}
	var mappers []unix.LineMapper
	for _, spec := range specs {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		lm, ok := unix.AsLineMapper(cmd)
		if !ok {
			t.Fatalf("%q is not a line mapper", spec)
		}
		mappers = append(mappers, lm)
	}
	fm := dataflow.NewFusedMapper(specs, mappers)
	const lines = 2000
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString("a quince and a loquat walk into a bar\n")
	}
	in := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fm.Run(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("fused Run allocated %.0f times for %d lines; want O(1), not O(lines)", allocs, lines)
	}
}
