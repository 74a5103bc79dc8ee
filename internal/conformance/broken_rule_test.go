package conformance

import (
	"context"
	"strings"
	"testing"

	"kumquat/internal/dataflow"
	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// TestBrokenElideRuleCaughtAndShrunk proves the differential net catches
// an illegal optimizer rewrite: the elide-combine rule is deliberately
// broken (its order-insensitivity legality check forced to true), which
// elides the k-way merge of a sort feeding an order-SENSITIVE consumer.
// The fused execution must then diverge from the serial oracle, and the
// ddmin shrinker must reduce the reproducing corpus to the minimal
// witness — two out-of-order lines split across chunks.
func TestBrokenElideRuleCaughtAndShrunk(t *testing.T) {
	eng := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1})
	corpus := "pear\napple\nfig\nquince\nloquat\nbanana\nkumquat\nmedlar\n"
	eng.Env.FS.Register("in.txt", corpus)
	s, err := pipeline.ParseScript("cat in.txt | sort | sed 's/^/> /'\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.CompileContext(context.Background(), s.Pipelines[0], eng)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the legal program pushes the sort's merge into the
	// consumer's read path instead of eliding it.
	if plan.Program.Fired[dataflow.RulePushSortMerge] != 1 {
		t.Fatalf("legal program rewrites = %v, want push-sort-merge=1", plan.Program.Fired)
	}

	// Break the rule: every consumer now counts as order-insensitive.
	plan.Relower(dataflow.Options{UnsafeAssumeOrderInsensitive: true})
	if plan.Program.Fired[dataflow.RuleElideCombine] == 0 {
		t.Fatal("unsafe lowering did not fire elide-combine; nothing to catch")
	}

	exec := func(c string, mode pipeline.Mode, k int) (string, error) {
		eng.Env.FS.Register("in.txt", c)
		var out strings.Builder
		_, err := plan.Execute(context.Background(), eng.Env, nil, &out, mode, k)
		return out.String(), err
	}
	fails := func(c string) bool {
		want, werr := exec(c, pipeline.ModeSerial, 1)
		got, gerr := exec(c, pipeline.ModeOptimized, 4)
		return werr == nil && gerr == nil && got != want
	}
	if !fails(corpus) {
		t.Fatal("broken elision did not diverge from the serial oracle — the net has a hole")
	}

	shrunk := shrinkCorpus(corpus, fails)
	lines := strings.Split(strings.TrimSuffix(shrunk, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("shrunk corpus = %q (%d lines), want the minimal 2-line witness", shrunk, len(lines))
	}
	if lines[0] <= lines[1] {
		t.Errorf("shrunk witness %q is already sorted; it cannot expose the lost merge", shrunk)
	}
	if !fails(shrunk) {
		t.Error("shrunk corpus no longer reproduces the divergence")
	}

	// Restoring the legal program must close the divergence on both the
	// original and the shrunk corpus.
	plan.Relower(dataflow.Options{})
	if fails(corpus) || fails(shrunk) {
		t.Error("legal program diverges — the broken behaviour leaked into the default lowering")
	}
}
