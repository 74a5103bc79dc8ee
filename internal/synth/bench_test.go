package synth

import (
	"context"
	"testing"

	"kumquat/internal/unix"
)

// coldSpecs are six catalog stage specs covering the three candidate
// space sizes (2700, 26404 and 110444 candidates), each with the verdict
// a Seed: 1 engine gives it.
var coldSpecs = []struct{ spec, verdict string }{
	{`grep -c 'light.*light'`, "(back '\\n' add a b), (back '\\n' add b a)"},
	{`tr -cs A-Za-z '\n'`, "(rerun a b)"},
	{`tail -n 1`, "(first b a), (second a b), (back '\\n' first b a), (back '\\n' second a b), (fuse '\\n' first b a), (fuse '\\n' second a b)"},
	{`sort -rn`, "(merge('-rn') a b), (merge('-rn') b a), (rerun a b), (rerun b a)"},
	{`cut -d ',' -f 1,2`, "(concat a b)"},
	{`sed 's/T\(..\):..:../,\1/'`, "(concat a b)"},
}

// BenchmarkColdSynthesis synthesizes the six cold specs with a fresh
// engine per iteration, so every iteration pays each candidate space's
// enumeration and index once and every spec's Algorithms 1–2 in full,
// and checks every verdict.
func BenchmarkColdSynthesis(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		eng := New(unix.DefaultEnv(), Options{Seed: 1})
		for _, tc := range coldSpecs {
			r, err := eng.Synthesize(ctx, tc.spec)
			if err != nil {
				b.Fatalf("%s: %v", tc.spec, err)
			}
			if got := r.Combiner.String(); got != tc.verdict {
				b.Fatalf("%s: combiner %s, want %s", tc.spec, got, tc.verdict)
			}
		}
	}
}

// BenchmarkAblationGradient compares Algorithm 2's best-mutation gradient
// against a uniformly random mutation walk (DESIGN.md's ablation).
func BenchmarkAblationGradient(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"gradient", false}, {"random", true}} {
		b.Run(mode.name, func(b *testing.B) {
			bud := defaultBudget
			bud.disableGradient = mode.disable
			for i := 0; i < b.N; i++ {
				eng := newEngine(unix.DefaultEnv(), Options{Seed: int64(i + 1)}, bud)
				for _, spec := range []string{"uniq -c", `tr -cs A-Za-z '\n'`, "wc -l"} {
					if res, _ := eng.Synthesize(context.Background(), spec); res == nil {
						b.Fatal("no result")
					}
				}
			}
		})
	}
}
