package conformance

import (
	"context"
	"strings"
	"testing"

	"kumquat"
	"kumquat/internal/unix"
)

// TestGenDeterminism: the generator is a pure function of (seed, index) —
// the property that makes every report entry replayable.
func TestGenDeterminism(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := GenCase(7, i), GenCase(7, i)
		if a.Script != b.Script || a.Corpus != b.Corpus || a.Source != b.Source || a.Profile != b.Profile {
			t.Fatalf("case %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
	// Different seeds must explore different suites.
	same := 0
	for i := 0; i < 50; i++ {
		if GenCase(1, i).Script == GenCase(2, i).Script &&
			GenCase(1, i).Corpus == GenCase(2, i).Corpus {
			same++
		}
	}
	if same == 50 {
		t.Fatal("seeds 1 and 2 generated identical suites")
	}
}

// TestStageTemplatesParse: every template in the pool must parse into a
// command — a template that cannot parse would abort compilation of any
// pipeline that samples it.
func TestStageTemplatesParse(t *testing.T) {
	env := unix.DefaultEnv()
	for _, spec := range StageTemplates() {
		if _, err := unix.Parse(spec, env); err != nil {
			t.Errorf("template %q does not parse: %v", spec, err)
		}
	}
}

// TestGenCoversProfilesAndSources: over a modest index range the
// generator must hit every corpus profile and both input sources.
func TestGenCoversProfilesAndSources(t *testing.T) {
	seenProfile := map[string]bool{}
	stdin, file := false, false
	for i := 0; i < 200; i++ {
		c := GenCase(3, i)
		seenProfile[c.Profile] = true
		if c.Source == "" {
			stdin = true
		} else {
			file = true
			if !strings.HasPrefix(c.Script, "cat "+c.Source) {
				t.Fatalf("file-sourced case %d does not start with cat: %q", i, c.Script)
			}
		}
	}
	for _, p := range profiles {
		if !seenProfile[p.name] {
			t.Errorf("profile %q never generated in 200 cases", p.name)
		}
	}
	if !stdin || !file {
		t.Errorf("input sources not both covered: stdin=%v file=%v", stdin, file)
	}
}

// TestConfigsSweep: the sweep must cover all four modes (serial included:
// the oracle is the independent reference, not a mode), the worker counts
// {1, 4, GOMAXPROCS}, and external-stdin rows for both optimized
// programs.
func TestConfigsSweep(t *testing.T) {
	configs := Configs()
	modes := map[string]bool{}
	ks := map[int]bool{}
	external := map[bool]bool{} // keyed by NoFuse
	for _, c := range configs {
		modes[c.Mode] = true
		ks[c.K] = true
		if c.ExternalStdin && c.Mode == "optimized" {
			external[c.NoFuse] = true
		}
	}
	for _, m := range []string{"optimized", "unoptimized", "serial", "pipelined"} {
		if !modes[m] {
			t.Errorf("mode %q missing from sweep %v", m, configs)
		}
	}
	if !external[false] || !external[true] {
		t.Errorf("external-stdin rows must cover fuse on and off, got %v", external)
	}
	if !ks[1] || !ks[4] {
		t.Errorf("worker counts 1 and 4 must be swept, got %v", ks)
	}
}

// TestSuiteHealthy runs a compact end-to-end conformance suite — the
// same path kqconform drives — and requires zero divergences across
// every plane, serve replay included.
func TestSuiteHealthy(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Seed: 1, N: 12, Shrink: true, Serve: true, Adversarial: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("suite not OK: %+v", rep)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("unexpected divergences: %+v", rep.Divergences)
	}
	twice := 0
	for _, cfg := range Configs() {
		if memoized(cfg) {
			twice++
		}
	}
	wantExecs := rep.Cases * (rep.Configs + 1 + twice)
	if rep.Executions != wantExecs {
		t.Fatalf("executions = %d, want %d (cases × (configs + oracle + second memo runs))", rep.Executions, wantExecs)
	}
	if rep.MemoHits == 0 {
		t.Fatal("no second run took a chunk from the Env's segment memo")
	}
	if rep.Serve == nil || rep.Serve.Cases != 12 || len(rep.Serve.Divergences) != 0 {
		t.Fatalf("serve replay unhealthy: %+v", rep.Serve)
	}
}

// TestStressCombinersHealthy stress-validates a representative command
// slice (merge-, add- and stitch-class combiners) on the adversarial
// corpora and requires zero failures.
func TestStressCombinersHealthy(t *testing.T) {
	sys := kumquat.New(kumquat.NewEnv())
	rep, err := StressCombiners(context.Background(), sys,
		[]string{"sort", "sort -rn", "uniq -c", "wc -l", "grep -c e", "tr A-Z a-z"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("stress failures: %+v", rep.Failures)
	}
	if rep.Specs == 0 || rep.Checks == 0 {
		t.Fatalf("stress validated nothing: %+v", rep)
	}
}

// TestRunCaseCountsExecutions: runCase must execute oracle + one run per
// config + a second run of every config it holds to the memo, and those
// second runs must take their chunks from the memo.
func TestRunCaseCountsExecutions(t *testing.T) {
	sys := kumquat.New(kumquat.NewEnv())
	c := &Case{Script: "sort | uniq -c\n", Corpus: "b\na\nb\n", Profile: "hand"}
	configs := Configs()
	run, err := runCase(context.Background(), sys, c, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.divs) != 0 {
		t.Fatalf("hand case diverged: %+v", run.divs)
	}
	want := len(configs) + 1
	for _, cfg := range configs {
		if memoized(cfg) {
			want++
		}
	}
	if want == len(configs)+1 || run.execs != want {
		t.Fatalf("execs = %d, want %d (%d configs, some run twice)", run.execs, want, len(configs))
	}
	if run.memoHits == 0 {
		t.Fatal("the second runs took no chunk from the memo")
	}
}
