package pipeline

import (
	"context"
	"strings"
	"testing"
)

// TestCombineWorkersIdenticalOutput: the tree combine runs at the chunk
// pool's width, min(k, GOMAXPROCS), and the width is a wall-clock matter
// only — every k must produce byte-identical output, and chunked stages
// must record their combine share in CombineWall.
func TestCombineWorkersIdenticalOutput(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("in.txt",
		strings.Repeat("delta\nalpha\nbravo\nalpha\ncharlie\n", 40))
	plan := compilePlan(t, syn, "cat in.txt | sort | uniq -c | sort -rn\n")
	var want string
	for i, k := range []int{2, 3, 4, 8} {
		var out strings.Builder
		ms, err := plan.Execute(context.Background(), syn.Env, nil, &out, ModeUnoptimized, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if i == 0 {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("k=%d: output diverged:\n%q\nvs\n%q", k, out.String(), want)
		}
		sawCombine := false
		for i, m := range ms {
			if m.Chunks > 1 && m.CombineWall > 0 {
				sawCombine = true
			}
			if m.Chunks <= 1 && m.CombineWall != 0 {
				t.Errorf("k=%d: unchunked stage %q has CombineWall %v",
					k, plan.Stages[i].Spec, m.CombineWall)
			}
		}
		if !sawCombine {
			t.Errorf("k=%d: no chunked stage recorded a CombineWall", k)
		}
	}
}
