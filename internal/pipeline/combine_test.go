package pipeline

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestCombineWorkersIdenticalOutput: the combine runs at the chunk
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

// sortStreamerPipelines are sorts feeding a streamable, order-sensitive
// consumer: each sort's chunk outputs combine through the k-way merge,
// and the consumer re-splits that stream chunk-parallel. The last one is
// the analytics suite's per-day count.
var sortStreamerPipelines = []struct{ name, stages string }{
	{"grep", "sort | grep a"},
	{"sed", "tr A-Z a-z | sort | sed 's/^/> /'"},
	{"cut", "cut -d, -f2 | sort -r | cut -c1-4"},
	{"analytics", "sed 's/T..:..:..//' | cut -d ',' -f 1,3 | sort -u | cut -d ',' -f 1 | sort | uniq -c"},
}

// sortStreamerCorpus is a seeded corpus of about size bytes of
// timestamped CSV records, "2024-MM-DDTHH:MM:SS,Word,word".
func sortStreamerCorpus(size int) string {
	rng := rand.New(rand.NewSource(1))
	word := func(upper bool) string {
		w := make([]byte, 3+rng.Intn(6))
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		if upper {
			w[0] -= 'a' - 'A'
		}
		return string(w)
	}
	var b strings.Builder
	for b.Len() < size {
		fmt.Fprintf(&b, "2024-%02d-%02dT%02d:%02d:%02d,%s,%s\n",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			word(true), word(false))
	}
	return b.String()
}

// BenchmarkSortIntoStreamer times each sortStreamerPipelines script in
// Optimized mode at k = GOMAXPROCS over a 6 MB file source.
func BenchmarkSortIntoStreamer(b *testing.B) {
	syn := newSynth()
	corpus := sortStreamerCorpus(6 << 20)
	syn.Env.FS.Register("in.txt", corpus)
	k := runtime.GOMAXPROCS(0)
	for _, sp := range sortStreamerPipelines {
		s, err := ParseScript("cat in.txt | "+sp.stages+"\n", nil)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := CompileContext(context.Background(), s.Pipelines[0], syn)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sp.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(corpus)))
			for b.Loop() {
				if _, err := plan.Execute(context.Background(), syn.Env, nil, io.Discard, ModeOptimized, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
