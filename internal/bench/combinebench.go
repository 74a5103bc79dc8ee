package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"kumquat/internal/synth"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// combineKs is the substream-count sweep of the combine-plane benchmark:
// the fold's O(k·n) costs separate visibly from the tree's and heap's
// O(n·log k) from k = 32 up.
var combineKs = []int{2, 8, 32, 128}

// CombineCaseResult is one combiner's fold-vs-tree measurement at one k.
type CombineCaseResult struct {
	Spec     string  `json:"spec"`
	Combiner string  `json:"combiner"`
	K        int     `json:"k"`
	Lines    int     `json:"lines"`
	FoldMS   float64 `json:"fold_ms"`
	TreeMS   float64 `json:"tree_ms"`
	Speedup  float64 `json:"speedup"`
	Agree    bool    `json:"agree"`
}

// MergeCaseResult is one scan-vs-heap k-way merge measurement.
type MergeCaseResult struct {
	K       int     `json:"k"`
	Lines   int     `json:"lines"`
	ScanMS  float64 `json:"scan_ms"`
	HeapMS  float64 `json:"heap_ms"`
	Speedup float64 `json:"speedup"`
	Agree   bool    `json:"agree"`
}

// CombineComparison is the BENCH_combine.json payload: serial-fold vs
// tree-reduction combine per pairwise combiner class, and cursor-scan vs
// heap k-way merge, swept over k.
type CombineComparison struct {
	Workers int `json:"workers"`
	// CPUs is the machine's core count. The tree's bracketing advantage
	// (O(n·log k) copied bytes vs the fold's O(n·k)) and the heap's
	// comparison advantage survive on one core; the tree's concurrent
	// pair evaluation additionally needs real cores.
	CPUs       int                 `json:"cpus"`
	Scale      int                 `json:"scale_lines"`
	FoldVsTree []CombineCaseResult `json:"fold_vs_tree"`
	ScanVsHeap []MergeCaseResult   `json:"scan_vs_heap"`
	// Agree reports that every tree combine and every heap merge was
	// byte-identical to its serial baseline.
	Agree bool `json:"agree"`
}

// combineSpecs are the pairwise-combining commands of the fold-vs-tree
// comparison: the two stitch-class combiners the example suite produces.
// Simultaneous combiners (concat, merge, rerun) take the same code path
// under fold and tree and are covered by the scan-vs-heap merge sweep.
var combineSpecs = []string{"uniq", "uniq -c"}

// genSortedWords produces a sorted stream of n Zipf-flavoured words over
// an n/3-word vocabulary, the substrate whose chunked uniq/uniq -c
// outputs exercise the stitch combiners' boundary merging on substreams
// large enough for the fold's O(k·n) accumulator copying to register.
func genSortedWords(n int) string {
	rng := rand.New(rand.NewSource(23))
	distinct := n/3 + 1
	lines := make([]string, n)
	for i := range lines {
		// Squaring biases toward low indices, so runs form and spill
		// across chunk boundaries.
		f := rng.Float64()
		lines[i] = fmt.Sprintf("w%06d", int(f*f*float64(distinct)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// timeMin runs f reps times and returns the fastest wall time — the
// standard noise filter for sub-millisecond measurements.
func timeMin(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// CompareCombine benchmarks the combine plane: for each pairwise combiner
// class, the serial left fold (Combiner.CombineK) against the balanced
// tree (Combiner.CombineKTree) on k real substreams; and the k-way merge
// of pre-sorted streams through the retired cursor scan against the heap
// merge. workers <= 0 selects GOMAXPROCS; scale <= 0 selects 20000
// lines. The context bounds the combiner syntheses.
func CompareCombine(ctx context.Context, scale, workers int) (*CombineComparison, error) {
	if scale <= 0 {
		scale = 20000
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cmp := &CombineComparison{
		Workers: workers,
		CPUs:    runtime.NumCPU(),
		Scale:   scale,
		Agree:   true,
	}
	const reps = 5
	input := genSortedWords(scale)

	for _, spec := range combineSpecs {
		env := unix.DefaultEnv()
		eng := synth.New(env, synth.Options{Seed: 1})
		res, err := eng.Synthesize(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: synthesize %q: %w", spec, err)
		}
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			return nil, fmt.Errorf("bench: %q: %w", spec, err)
		}
		for _, k := range combineKs {
			chunks := textio.ChunkLines(input, k)
			outs := make([]string, len(chunks))
			lines := 0
			for i, ch := range chunks {
				if outs[i], err = cmd.Run(ch); err != nil {
					return nil, fmt.Errorf("bench: %q chunk %d: %w", spec, i, err)
				}
				lines += strings.Count(outs[i], "\n")
			}
			var foldOut, treeOut string
			foldWall, err := timeMin(reps, func() error {
				foldOut, err = res.Combiner.CombineK(outs)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %q fold: %w", spec, err)
			}
			treeWall, err := timeMin(reps, func() error {
				treeOut, err = res.Combiner.CombineKTree(outs, workers)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %q tree: %w", spec, err)
			}
			agree := foldOut == treeOut
			if !agree {
				cmp.Agree = false
			}
			cmp.FoldVsTree = append(cmp.FoldVsTree, CombineCaseResult{
				Spec:     spec,
				Combiner: res.Combiner.Primary().String(),
				K:        k,
				Lines:    lines,
				FoldMS:   ms(foldWall),
				TreeMS:   ms(treeWall),
				Speedup:  Speedup(foldWall, treeWall),
				Agree:    agree,
			})
		}
	}

	sortCmd, err := unix.Parse("sort", unix.DefaultEnv())
	if err != nil {
		return nil, err
	}
	sc := sortCmd.(*unix.SortCmd)
	for _, k := range combineKs {
		chunks := textio.ChunkLines(input, k)
		streams := make([]string, len(chunks))
		lines := 0
		for i, ch := range chunks {
			if streams[i], err = sc.Run(ch); err != nil {
				return nil, fmt.Errorf("bench: sort chunk %d: %w", i, err)
			}
			lines += strings.Count(streams[i], "\n")
		}
		var scanOut, heapOut string
		scanWall, err := timeMin(reps, func() error {
			scanOut = sc.MergeStreamsScan(streams...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		heapWall, err := timeMin(reps, func() error {
			heapOut = sc.MergeStreams(streams...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		agree := scanOut == heapOut
		if !agree {
			cmp.Agree = false
		}
		cmp.ScanVsHeap = append(cmp.ScanVsHeap, MergeCaseResult{
			K:       k,
			Lines:   lines,
			ScanMS:  ms(scanWall),
			HeapMS:  ms(heapWall),
			Speedup: Speedup(scanWall, heapWall),
			Agree:   agree,
		})
	}
	return cmp, nil
}
