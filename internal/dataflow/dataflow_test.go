// Tests for the dataflow plane live in an external test package so they
// can drive the real lowering path — pipeline.CompileContext produces the graph
// and program under test — without an import cycle (pipeline imports
// dataflow).
package dataflow_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kumquat/internal/dataflow"
	"kumquat/internal/dsl"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

func newSynth() *synth.Engine {
	return synth.New(unix.DefaultEnv(), synth.Options{Seed: 1})
}

// compile parses and compiles a one-pipeline script through a shared
// engine, returning the plan with its optimized program (and, through
// it, the lowered graph).
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
		n := plan.Program.Graph.Nodes[0]
		if n.Class != tc.class {
			t.Errorf("%q: class = %s, want %s", tc.spec, n.Class, tc.class)
		}
		if lm := unix.CanStream(n.Stage.Cmd); lm != tc.lineMapper {
			t.Errorf("%q: line mapper = %v, want %v", tc.spec, lm, tc.lineMapper)
		}
		if oi := unix.IsOrderInsensitive(n.Stage.Cmd); oi != tc.orderIns {
			t.Errorf("%q: order-insensitive = %v, want %v", tc.spec, oi, tc.orderIns)
		}
	}
	// rerun: stages whose only combiner re-runs the command (kept serial
	// by the planner). tr -cs's word-splitting is §2's example.
	plan := compile(t, eng, `tr -cs A-Za-z '\n'`+"\n")
	n := plan.Program.Graph.Nodes[0]
	if n.Class != dataflow.ClassRerun {
		t.Errorf("tr -cs: class = %s, want rerun", n.Class)
	}
	if !n.Stage.Sequential {
		t.Error("tr -cs: planner should keep a rerun-only stage sequential")
	}
}

// TestEdgeClosures pins the closure metadata the lowering attaches to a
// producer's output (Node.Closure), which its consumer reads: exact for
// concat-class producers, perm for sort-class producers that drop no
// lines, none for sort -u (the merge dedups across chunk boundaries, so
// skipping it leaves duplicates).
func TestEdgeClosures(t *testing.T) {
	eng := newSynth()
	cases := []struct {
		script  string
		closure dataflow.Closure // of node 0, feeding node 1
	}{
		{"tr A-Z a-z | wc -l\n", dataflow.ClosureExact},
		{"sort | wc -l\n", dataflow.ClosurePerm},
		{"sort -u | wc -l\n", dataflow.ClosureNone},
		{"uniq -c | wc -l\n", dataflow.ClosureNone},
	}
	for _, tc := range cases {
		plan := compile(t, eng, tc.script)
		if got := plan.Program.Graph.Nodes[0].Closure; got != tc.closure {
			t.Errorf("%q n0: closure = %s, want %s", tc.script, got, tc.closure)
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
	// sort-class into order-sensitive streamers: the merge combines,
	// then the streamer runs chunk-parallel.
	"cat in.txt | sort | sed 's/^a/X/'\n",
	"cat in.txt | sort -r | grep a\n",
	// mixed classes: merge, then the fragment sort | uniq -c (a keyed
	// merge), merge again.
	"cat in.txt | tr A-Z a-z | sort | uniq -c | sort -rn\n",
	// fragment: a sort and its collapsing consumer combine once.
	"cat in.txt | sort -n | uniq -c\n",
	"cat in.txt | sort -r | uniq\n",
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
					if !fuse && info.Regions != nil {
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
	if info.Regions == nil {
		t.Fatal("fused executor did not run")
	}
	if len(info.Regions) != 1 || !info.Regions[0].Fused || len(info.Regions[0].Stages) != 3 {
		t.Fatalf("regions = %+v, want one fused region of 3 stages", info.Regions)
	}
	if rules := info.Regions[0].Rules; len(rules) != 1 || rules[0] != "fuse-streamers" {
		t.Errorf("region rules = %v, want [fuse-streamers]", rules)
	}
}

// TestFragmentRule: a merge-class stage and the reducing consumer it
// feeds run as one region — the chain of the two, closure none — whose
// exit runs the fragment's own combiner, a keyed merge for sort | uniq
// -c; behind a line mapper, an order-insensitive consumer or a serial
// one no fragment is synthesized; disabling the rule leaves one region
// per stage.
func TestFragmentRule(t *testing.T) {
	eng := newSynth()
	for _, tc := range []struct {
		script string
		fired  int
		region []int // the fragment region's nodes
	}{
		{"sort | uniq -c\n", 1, []int{0, 1}},
		{"sort -n | uniq\n", 1, []int{0, 1}},
		{"tr A-Z a-z | sort | uniq -c | sort -rn\n", 1, []int{1, 2}},
		{"sort | grep a\n", 0, nil},
		{"sort | wc -l\n", 0, nil},
		{"sort | head -n 5\n", 0, nil},
	} {
		plan := compile(t, eng, tc.script)
		p := plan.Program
		if got := p.Fired[dataflow.RuleFragment]; got != tc.fired {
			t.Errorf("%q: fragment fired %d times, want %d", tc.script, got, tc.fired)
			continue
		}
		if tc.region == nil {
			for i, n := range p.Graph.Nodes {
				if n.Stage.Fragment != nil {
					t.Errorf("%q: node %d synthesized fragment %q", tc.script, i, n.Stage.Fragment.Spec)
				}
			}
			continue
		}
		var r *dataflow.Region
		for _, rg := range p.Regions {
			if rg.Nodes[0] == tc.region[0] {
				r = rg
			}
		}
		prod, cons := p.Graph.Nodes[tc.region[0]], p.Graph.Nodes[tc.region[1]]
		if r == nil || len(r.Nodes) != 2 || r.Nodes[1] != tc.region[1] || !r.Parallel || r.Closure != dataflow.ClosureNone ||
			r.Cmd.Spec() != prod.Stage.Spec+" | "+cons.Stage.Spec || r.Combiner != prod.Stage.Fragment.Combiner {
			t.Errorf("%q: fragment region %+v", tc.script, r)
			continue
		}
		if _, ok := r.Combiner.Primary().Op.(dsl.KeyMerge); !ok {
			t.Errorf("%q: fragment combiner %s, want a keyed merge", tc.script, r.Combiner)
		}
		off := dataflow.Optimize(p.Graph, dataflow.Options{Disable: map[dataflow.Rule]bool{dataflow.RuleFragment: true}})
		if off.Fired[dataflow.RuleFragment] != 0 || len(off.Regions) != len(p.Regions)+1 {
			t.Errorf("%q: fragment disabled: %d regions, fired %v", tc.script, len(off.Regions), off.Fired)
		}
	}
}

// TestDeadMappersRule: a fused mapper run feeding wc -l stops after its
// last member the count can observe. It fires on the chain-cold-file
// script and on the catalog's three unix50 chess scripts and its mail
// script that end in wc -l, each dropping a cut (and the sed before it),
// leaving the region's nodes, combiner and closure as they were. It does
// not fire where the member before the suffix passes an unterminated
// line through (tr), where a mapper writes newlines (sed 's/a/\n/'), in
// front of anything but wc -l, or with the rule disabled.
func TestDeadMappersRule(t *testing.T) {
	eng := newSynth()
	for _, tc := range []struct {
		script string
		dead   []int  // the region's dead nodes; nil: the rule does not fire
		runs   string // the region's command when it fires
	}{
		{"tr A-Z a-z | grep light | sed 's/light/dark/' | cut -d ' ' -f 1-3 | wc -l\n", []int{2, 3}, "tr A-Z a-z | grep light"},
		{"cat in/chess.txt | grep '\\.' | cut -d '.' -f 1 | wc -l\n", []int{1}, `grep '\.'`},
		{"cat in/chess.txt | tr ' ' '\\n' | grep 'x' | cut -d 'x' -f 1 | wc -l\n", []int{2}, `tr ' ' '\n' | grep 'x'`},
		{"cat in/chess.txt | tr ' ' '\\n' | grep 'x' | cut -d '.' -f 2 | grep -v '[KQRBN]' | cut -c 1-1 | wc -l\n",
			[]int{4}, `tr ' ' '\n' | grep 'x' | cut -d '.' -f 2 | grep -v '[KQRBN]'`},
		{"cat in/mail.txt | tr -s ' ' '\\n' | grep '@' | cut -d '@' -f 1 | wc -l\n", []int{2}, "grep '@'"},
		{"grep a | sed 's/a/X/' | wc -l\n", []int{1}, "grep a"},
		{"tr A-Z a-z | cut -c 1-4 | wc -l\n", nil, ""},
		{"grep a | sed 's/a/\\n/' | wc -l\n", nil, ""},
		{"grep a | cut -c 1-4 | wc\n", nil, ""},
		{"grep a | cut -c 1-4 | wc -w\n", nil, ""},
		{"grep a | cut -c 1-4 | grep -c a\n", nil, ""},
		{"grep a | cut -c 1-4 | sort | wc -l\n", nil, ""},
	} {
		p := compile(t, eng, tc.script).Program
		r := p.Regions[0]
		if len(p.Regions) > 1 && len(r.Nodes) == 1 {
			r = p.Regions[1] // behind a serial tr -s
		}
		if got := p.Fired[dataflow.RuleDeadMappers]; got != len(tc.dead) {
			t.Errorf("%q: dead-mappers fired %d times, want %d", tc.script, got, len(tc.dead))
			continue
		}
		if tc.dead == nil {
			for _, rg := range p.Regions {
				if rg.Dead != nil || slices.Contains(rg.Rules, dataflow.RuleDeadMappers) {
					t.Errorf("%q: region %v has dead %v, rules %v", tc.script, rg.Nodes, rg.Dead, rg.Rules)
				}
			}
			continue
		}
		last := p.Graph.Nodes[r.Nodes[len(r.Nodes)-1]]
		if !slices.Equal(r.Dead, tc.dead) || r.Cmd.Spec() != tc.runs || !r.Fused ||
			r.Combiner != last.Stage.Synth.Combiner || r.Closure != last.Closure ||
			!slices.Contains(r.Rules, dataflow.RuleDeadMappers) {
			t.Errorf("%q: region nodes %v dead %v runs %q rules %v", tc.script, r.Nodes, r.Dead, r.Cmd.Spec(), r.Rules)
		}
		if want := len(r.Nodes) - 1; p.Fired[dataflow.RuleFuseStreamers] != want {
			t.Errorf("%q: fuse-streamers fired %d times, want %d", tc.script, p.Fired[dataflow.RuleFuseStreamers], want)
		}
		off := dataflow.Optimize(p.Graph, dataflow.Options{Disable: map[dataflow.Rule]bool{dataflow.RuleDeadMappers: true}})
		if off.Fired[dataflow.RuleDeadMappers] != 0 || off.Dump() == p.Dump() {
			t.Errorf("%q: dead-mappers disabled still fired: %v", tc.script, off.Fired)
		}
		for _, rg := range off.Regions {
			if rg.Dead != nil {
				t.Errorf("%q: dead-mappers disabled, region %v has dead %v", tc.script, rg.Nodes, rg.Dead)
			}
		}
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
	plan.Program = dataflow.Optimize(plan.Program.Graph, dataflow.Options{Disable: map[dataflow.Rule]bool{
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
	plan.Program = dataflow.Optimize(plan.Program.Graph, dataflow.Options{})
	if plan.Program.Fired[dataflow.RuleFuseStreamers] != base[dataflow.RuleFuseStreamers] {
		t.Error("re-lowering with defaults did not restore the baseline program")
	}
}

// fusedChain parses specs as one chain, as a fused region runs them,
// and requires it to be a line mapper.
func fusedChain(t *testing.T, specs ...string) unix.Command {
	t.Helper()
	cmd, err := unix.Parse(strings.Join(specs, " | "), unix.DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !unix.CanStream(cmd) {
		t.Fatalf("%q is not a line mapper", cmd.Spec())
	}
	return cmd
}

// TestFusedChainComposes: the composed per-line pass must equal running
// the member mappers stage by stage, including on dropped lines (grep)
// and non-terminated tails.
func TestFusedChainComposes(t *testing.T) {
	specs := []string{"tr A-Z a-z", "grep a", "cut -c 1-4"}
	fm := fusedChain(t, specs...)
	for _, in := range []string{
		"", "Pear Apple\nFIG\nquince\n", "no trailing newline",
		"LOQUAT\nApricot\n\nkumquat", "ALL CAPS DROPPED\nBANANA\n",
	} {
		want := in
		for _, spec := range specs {
			cmd, err := unix.Parse(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = cmd.Run(want); err != nil {
				t.Fatal(err)
			}
		}
		got, err := fm.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s over %q = %q, want %q", fm.Spec(), in, got, want)
		}
	}
}

// TestFusedRunAllocations pins the fused pass's allocation behaviour:
// one Run over a chunk allocates O(1) — the composed line function,
// per-stage scratch, and output builder growth — not O(lines). A
// per-line regression (a result slice or string sneaking back into the
// hot loop) blows the bound by orders of magnitude.
func TestFusedRunAllocations(t *testing.T) {
	fm := fusedChain(t, "tr a-z A-Z", "grep A", "cut -c 1-8")
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

// TestFusedChainAllocations pins the chain-cold-file mapper
// (tr A-Z a-z | grep light | sed 's/light/dark/' | cut -d ' ' -f 1-3):
// its kernels answer by view or into scratch sized once, so a fused Run
// makes exactly as many allocations over 100 000 lines as over 1 000.
func TestFusedChainAllocations(t *testing.T) {
	fm := fusedChain(t, "tr A-Z a-z", "grep light", `sed 's/light/dark/'`, "cut -d ' ' -f 1-3")
	text := []string{
		"The Light of the sea, and the wind.",
		"a dark river at night.",
		"light light LIGHT",
		"nolight",
		"",
	}
	allocs := func(lines int) float64 {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			b.WriteString(text[i%len(text)])
			b.WriteByte('\n')
		}
		in := b.String()
		return testing.AllocsPerRun(5, func() {
			if _, err := fm.Run(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100_000); small != large {
		t.Errorf("fused chain Run allocated %.0f times over 1 000 lines and %.0f over 100 000; want the same", small, large)
	}
}

// TestNoRewriteLowering: with every rule disabled, Theorem 5 included,
// Optimize lowers one region per stage carrying the planner's Parallel
// verdict, every exit a combine and no rule fired; with Theorem 5 left
// on, the same graphs keep their split exits.
func TestNoRewriteLowering(t *testing.T) {
	eng := newSynth()
	all := map[dataflow.Rule]bool{dataflow.RuleTheorem5: true}
	t5 := map[dataflow.Rule]bool{}
	for _, r := range dataflow.Rules {
		all[r], t5[r] = true, true
	}
	splits := 0
	for _, script := range []string{
		"cat in.txt | tr A-Z a-z | grep light | sort | uniq -c\n",
		"cat in.txt | tr -cs A-Za-z '\\n' | sort | uniq -c | sort -rn | sed 100q\n",
		"cat in.txt | grep light | cut -c 1-4 | wc -l\n",
	} {
		g := compile(t, eng, script).Program.Graph
		p := dataflow.Optimize(g, dataflow.Options{Disable: all})
		if len(p.Regions) != len(g.Nodes) {
			t.Fatalf("%q: %d regions for %d stages", script, len(p.Regions), len(g.Nodes))
		}
		for i, r := range p.Regions {
			n := g.Nodes[i]
			if len(r.Nodes) != 1 || r.Nodes[0] != i || r.Fused || r.Parallel != n.Stage.Parallel ||
				r.Exit != dataflow.ExitCombine || len(r.Rules) != 0 || r.Cmd != n.Stage.Cmd {
				t.Errorf("%q: region %d = %+v, want stage %q alone, combined", script, i, r, n.Stage.Spec)
			}
		}
		for rule, n := range p.Fired {
			if n != 0 {
				t.Errorf("%q: %s fired %d times with every rule disabled", script, rule, n)
			}
		}
		for _, r := range dataflow.Optimize(g, dataflow.Options{Disable: t5}).Regions {
			if r.Exit == dataflow.ExitSplit {
				splits++
			}
		}
	}
	if splits == 0 {
		t.Error("the Theorem-5-only lowerings split no exit")
	}
}
