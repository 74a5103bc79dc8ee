package pipeline

import (
	"context"
	"strings"
	"testing"
)

// TestCombineWorkersIdenticalOutput: the combine plane is a wall-clock
// knob only — every worker count must produce byte-identical output, and
// chunked stages must record their combine share in CombineWall.
func TestCombineWorkersIdenticalOutput(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("in.txt",
		strings.Repeat("delta\nalpha\nbravo\nalpha\ncharlie\n", 40))
	plan := compilePlan(t, syn, "cat in.txt | sort | uniq -c | sort -rn\n")
	var want string
	for i, workers := range []int{0, 1, 2, 8} {
		var out strings.Builder
		ms, err := plan.Execute(context.Background(), syn.Env, nil, &out,
			ModeUnoptimized, 4, WithCombineWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("workers=%d: output diverged:\n%q\nvs\n%q", workers, out.String(), want)
		}
		sawCombine := false
		for i, m := range ms {
			if m.Chunks > 1 && m.CombineWall > 0 {
				sawCombine = true
			}
			if m.Chunks <= 1 && m.CombineWall != 0 {
				t.Errorf("workers=%d: unchunked stage %q has CombineWall %v",
					workers, plan.Stages[i].Spec, m.CombineWall)
			}
		}
		if !sawCombine {
			t.Errorf("workers=%d: no chunked stage recorded a CombineWall", workers)
		}
	}
}
