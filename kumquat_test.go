package kumquat

import (
	"context"
	"strings"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	env := NewEnv()
	env.Register("in.txt", "b\na\nb\n")
	sys := New(env)

	res, err := sys.Synthesize(context.Background(), "wc -l")
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if res.Combiner == nil || !strings.Contains(res.Combiner.String(), "add") {
		t.Errorf("wc -l combiner = %v", res.Combiner)
	}

	plan, err := sys.Parallelize(context.Background(), "cat in.txt | sort | uniq -c\n")
	if err != nil {
		t.Fatalf("Parallelize: %v", err)
	}
	par, total, _ := plan.Counts()
	if par != 2 || total != 2 {
		t.Errorf("counts = %d/%d", par, total)
	}
	run := func(mode Mode, k int) string {
		t.Helper()
		rep, err := plan.Execute(context.Background(), WithMode(mode), WithParallelism(k))
		if err != nil {
			t.Fatalf("%v k=%d: %v", mode, k, err)
		}
		return rep.Output
	}
	want := run(Serial, 1)
	for _, k := range []int{2, 8} {
		for _, mode := range []Mode{Optimized, Unoptimized} {
			if got := run(mode, k); got != want {
				t.Errorf("%v k=%d = %q; want %q", mode, k, got, want)
			}
		}
	}
	if got := run(Pipelined, 1); got != want {
		t.Errorf("pipelined = %q; want %q", got, want)
	}
}

func TestPublicAPIStages(t *testing.T) {
	env := NewEnv()
	env.Register("x", "Some Light text\nmore WORDS here\n")
	sys := New(env)
	plan, err := sys.Parallelize(context.Background(), `cat x | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	stages := plan.Stages()
	if len(stages) != 5 {
		t.Fatalf("stages = %d", len(stages))
	}
	if !stages[0].Sequential {
		t.Error("tr -cs should be sequential")
	}
	if !stages[1].Eliminated {
		t.Error("tr A-Z a-z should have its combiner eliminated")
	}
	if stages[3].Combiner == "" || !strings.Contains(stages[3].Combiner, "stitch2") {
		t.Errorf("uniq -c combiner = %q", stages[3].Combiner)
	}
}

func TestPublicAPICombine(t *testing.T) {
	sys := New(nil)
	got, err := sys.Combine("(stitch2 ' ' add first a b)", "uniq -c",
		"      3 apple\n      2 pear\n", "      4 pear\n      1 quince\n")
	if err != nil || got != "      3 apple\n      6 pear\n      1 quince\n" {
		t.Errorf("Combine = %q, %v", got, err)
	}
	// Merge binds the command's comparator.
	got, err = sys.Combine("merge a b", "sort -rn", "9\n5\n", "7\n2\n")
	if err != nil || got != "9\n7\n5\n2\n" {
		t.Errorf("Combine merge = %q, %v", got, err)
	}
	if _, err := sys.Combine("nonsense", "sort", "a\n", "b\n"); err == nil {
		t.Error("bad combiner text must error")
	}
}

func TestPublicAPITable9(t *testing.T) {
	sys := New(nil)
	if _, err := sys.Synthesize(context.Background(), "tail +2"); err == nil {
		t.Error("tail +2 must fail synthesis (Table 9)")
	}
}
