// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md's per-experiment index), plus the ablation benches for the
// design choices DESIGN.md calls out. Absolute times depend on the host;
// the shapes to compare against the paper are the per-k scaling (Tables
// 5/6), the optimized-vs-unoptimized ordering, and the synthesis outcomes.
package kumquat

import (
	"context"
	"fmt"
	"io"
	"testing"

	"kumquat/internal/bench"
	"kumquat/internal/dsl"
	"kumquat/internal/pipeline"
	"kumquat/internal/shape"
	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// benchScale keeps full-catalog runs affordable under `go test -bench`.
const benchScale = 1500

// table1Scripts are the paper's Table 1 selection: the two longest-running
// scripts per suite.
var table1Scripts = map[string]bool{
	"2.sh": true, "3.sh": true, // analytics-mts
	"set-diff.sh": true, "wf.sh": true, // oneliners
	"4_3b.sh": true, "8.2_2.sh": true, // poets
	"21.sh": true, "23.sh": true, // unix50
}

// BenchmarkTable1 runs the two longest scripts of each suite at k=16,
// regenerating Table 1's rows.
func BenchmarkTable1(b *testing.B) {
	h := bench.NewHarness(benchScale, []int{1, 16})
	for i := 0; i < b.N; i++ {
		for _, spec := range bench.Catalog() {
			if !table1Scripts[spec.Name] {
				continue
			}
			r, err := h.RunScript(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Agree {
				b.Fatalf("%s: %v", spec.Name, r.Errors)
			}
		}
	}
}

// BenchmarkTable3Planning compiles all 70 scripts (synthesis + planning),
// regenerating Table 3's parallelized/eliminated counts.
func BenchmarkTable3Planning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness(benchScale, []int{1})
		results, err := h.PlanOnly(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		par, elim := 0, 0
		for _, r := range results {
			par += r.Parallelized
			elim += r.Eliminated
		}
		b.ReportMetric(float64(par), "parallelized")
		b.ReportMetric(float64(elim), "eliminated")
	}
}

// benchCatalogAt measures the whole catalog in one mode at one k —
// the building block for Tables 4, 5 and 6.
func benchCatalogAt(b *testing.B, k int, optimized bool) {
	h := bench.NewHarness(benchScale, []int{k})
	// Compile plans once (synthesis amortized as in the paper's workflow).
	results, err := h.PlanOnly(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	_ = results
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range bench.Catalog() {
			r, err := h.RunScript(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			var ok bool
			if optimized {
				_, ok = r.T[k]
			} else {
				_, ok = r.U[k]
			}
			if !ok {
				b.Fatalf("%s: missing k=%d measurement", spec.Name, k)
			}
		}
	}
}

// BenchmarkTable5Unoptimized sweeps u_k over k (paper Table 5).
func BenchmarkTable5Unoptimized(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("u%d", k), func(b *testing.B) { benchCatalogAt(b, k, false) })
	}
}

// BenchmarkTable6Optimized sweeps T_k over k (paper Table 6; Table 4 is the
// u1/u16/T16 subset of Tables 5+6; Table 7 the long-running subset).
func BenchmarkTable6Optimized(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("T%d", k), func(b *testing.B) { benchCatalogAt(b, k, true) })
	}
}

// BenchmarkSynthesis measures combiner synthesis per representative command
// (paper Table 10's time column; Tables 8/9 derive from the same results).
func BenchmarkSynthesis(b *testing.B) {
	commands := []string{
		"wc -l", "uniq", "uniq -c", "sort", "sort -rn",
		"tr A-Z a-z", `tr -cs A-Za-z '\n'`, "cut -c 1-4", "cut -d ',' -f 1,2",
		`grep 'light.*light'`, "grep -c '^....$'", "head -n 1",
		`awk "\$1 >= 1000"`, "sed 100q", "xargs cat",
	}
	for _, spec := range commands {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syn := synth.New(unix.DefaultEnv(), synth.Options{Seed: int64(i + 1)})
				res, _ := syn.Synthesize(context.Background(), spec)
				if res == nil {
					b.Fatal("no result")
				}
			}
		})
	}
}

// BenchmarkWordFrequency reproduces the §2 running example's measurement:
// the wf pipeline serially, unoptimized-parallel and optimized-parallel.
func BenchmarkWordFrequency(b *testing.B) {
	env := NewEnv()
	if err := bench.RegisterInputs(env.u, "text", benchScale*8); err != nil {
		b.Fatal(err)
	}
	sys := New(env)
	plan, err := sys.Parallelize(context.Background(), `cat in/text.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		mode Mode
		k    int
	}{
		{"u1", Serial, 1},
		{"u16", Unoptimized, 16},
		{"T16", Optimized, 16},
		{"Torig", Pipelined, 1},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(context.Background(), WithMode(m.mode), WithParallelism(m.k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationGradient compares Algorithm 2's best-mutation gradient
// against a uniformly random mutation walk.
func BenchmarkAblationGradient(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"gradient", false}, {"random", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syn := synth.New(unix.DefaultEnv(),
					synth.Options{Seed: int64(i + 1), DisableGradient: mode.disable})
				for _, spec := range []string{"uniq -c", `tr -cs A-Za-z '\n'`, "wc -l"} {
					if res, _ := syn.Synthesize(context.Background(), spec); res == nil {
						b.Fatal("no result")
					}
				}
			}
		})
	}
}

// BenchmarkAblationDelims compares the probe-derived delimiter sets (the
// paper's regularizer) against always enumerating all four delimiters.
func BenchmarkAblationDelims(b *testing.B) {
	b.Run("probe-derived-d1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands := dsl.Enumerate(dsl.DefaultMaxProductions, []dsl.Delim{'\n'})
			if len(cands) != 2700 {
				b.Fatal("unexpected candidate count")
			}
		}
	})
	b.Run("all-4-delims", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands := dsl.Enumerate(dsl.DefaultMaxProductions, dsl.Delims)
			if len(cands) < 110444 {
				b.Fatal("unexpected candidate count")
			}
		}
	})
}

// BenchmarkAblationElimination isolates Theorem 5's effect on one pipeline
// with a long concat chain (unix50 4.4).
func BenchmarkAblationElimination(b *testing.B) {
	env := unix.DefaultEnv()
	if err := bench.RegisterInputs(env, "chess", benchScale*8); err != nil {
		b.Fatal(err)
	}
	syn := synth.New(env, synth.Options{Seed: 1})
	script := `cat in/chess.txt | tr ' ' '\n' | grep 'x' | grep '\.' | cut -d '.' -f 2 | grep '[KQRBN]' | cut -c 1-1 | sort | uniq -c | sort -rn` + "\n"
	parsed, err := pipeline.ParseScript(script, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := pipeline.CompileContext(context.Background(), parsed.Pipelines[0], syn)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"unoptimized", "optimized"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := pipeline.ModeUnoptimized
				if mode == "optimized" {
					m = pipeline.ModeOptimized
				}
				if _, err := plan.Execute(context.Background(), env, nil, io.Discard, m, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKWay compares §3.5's simultaneous k-way combination
// against pairwise folding for the merge combiner.
func BenchmarkAblationKWay(b *testing.B) {
	cmd, _ := unix.Parse("sort", nil)
	sc := cmd.(*unix.SortCmd)
	env := &dsl.Env{RunF: cmd.Run, Merge: sc}
	gen := shape.New(3)
	s := shape.Seed()
	s.Lines = shape.Config{Min: 4000, Max: 4000, Distinct: 60}
	full := gen.Stream(s)
	chunks := textio.ChunkLines(full, 16)
	outs := make([]string, len(chunks))
	for i, ch := range chunks {
		outs[i], _ = cmd.Run(ch)
	}
	cand := dsl.Candidate{Op: dsl.Merge{}}
	b.Run("kway-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dsl.CombineK(env, cand, outs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairwise-fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dsl.CombineKPairwise(env, cand, outs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
