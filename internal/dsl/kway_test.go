package dsl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestStitchAddNotAssociative pins the §3.5 left fold for a
// value-rewriting stitch child: with B = add the two bracketings of three
// substreams differ, and CombineK must produce the left-bracketed bytes
// ((a b) c), which is what a serial run of the command would print.
func TestStitchAddNotAssociative(t *testing.T) {
	op := Stitch{B: Add{}}
	a, b, c := "5\n", "5\n", "10\n"
	ab, err := op.Eval(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := op.Eval(nil, ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := op.Eval(nil, b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := op.Eval(nil, a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if left == right {
		t.Fatalf("stitch add unexpectedly associative: both = %q", left)
	}
	const want = "20\n"
	if got, err := CombineK(nil, Candidate{Op: op}, []string{a, b, c}); err != nil || got != want {
		t.Fatalf("CombineK(stitch add) = %q, %v; want the left fold %q", got, err, want)
	}
}

// TestStitch2SecondPaddingNotAssociative pins the left fold for a
// head-shrinking stitch2: with B1 = second and mixed pad widths, the
// fold's intermediate line collapses its padding (the merged head
// outgrows the column) while another bracketing re-pads from the original
// operand. CombineK must produce the left-bracketed bytes.
func TestStitch2SecondPaddingNotAssociative(t *testing.T) {
	op := Stitch2{D: ' ', B1: Second{}, B2: First{}}
	outs := []string{"  5 x\n", "42 x\n", "1234 x\n", "9 x\n"}
	// The hazard is real: the two bracketings genuinely differ.
	ab, err := op.Eval(nil, outs[0], outs[1])
	if err != nil {
		t.Fatal(err)
	}
	abc, err := op.Eval(nil, ab, outs[2])
	if err != nil {
		t.Fatal(err)
	}
	left, err := op.Eval(nil, abc, outs[3])
	if err != nil {
		t.Fatal(err)
	}
	cd, err := op.Eval(nil, outs[2], outs[3])
	if err != nil {
		t.Fatal(err)
	}
	right, err := op.Eval(nil, ab, cd)
	if err != nil {
		t.Fatal(err)
	}
	if left == right {
		t.Fatalf("bracketings agree on %q; the fixture no longer exercises the hazard", left)
	}
	const want = "9 x\n"
	if got, err := CombineK(nil, Candidate{Op: op}, outs); err != nil || got != want {
		t.Fatalf("CombineK = %q, %v; want the left fold %q", got, err, want)
	}
}

// TestSwapConcatIsReversedJoin is the regression test for the §3.5 swap
// generalization: a swapped concat combines the nonempty substreams in
// reverse order — exactly reversed strings.Join — while the unswapped
// form joins in order.
func TestSwapConcatIsReversedJoin(t *testing.T) {
	outs := []string{"a\n", "", "b\n", "c\n", ""}
	nonEmpty := []string{"a\n", "b\n", "c\n"}
	rev := []string{"c\n", "b\n", "a\n"}
	plain, err := CombineK(nil, Candidate{Op: Concat{}}, outs)
	if err != nil || plain != strings.Join(nonEmpty, "") {
		t.Errorf("concat = %q, %v; want %q", plain, err, strings.Join(nonEmpty, ""))
	}
	swapped, err := CombineK(nil, Candidate{Op: Concat{}, Swap: true}, outs)
	if err != nil || swapped != strings.Join(rev, "") {
		t.Errorf("swapped concat = %q, %v; want %q", swapped, err, strings.Join(rev, ""))
	}
	// Rerun sees the same reversed concatenation as its input.
	e := &Env{RunF: func(s string) (string, error) { return s, nil }}
	gotRerun, err := CombineK(e, Candidate{Op: Rerun{}, Swap: true}, outs)
	if err != nil || gotRerun != strings.Join(rev, "") {
		t.Errorf("swapped rerun input = %q, %v; want %q", gotRerun, err, strings.Join(rev, ""))
	}
}

// TestSwapMergeIsNoOp is the regression test for the order-insensitive
// merge: the k-way merge output is determined by the comparator with ties
// stable by stream index, so a swapped merge candidate must combine
// byte-identically to the unswapped one.
func TestSwapMergeIsNoOp(t *testing.T) {
	e := env(t, "sort")
	outs := []string{"a\nc\n", "a\nb\n", "", "b\n"}
	plain, err := CombineK(e, Candidate{Op: Merge{}}, outs)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := CombineK(e, Candidate{Op: Merge{}, Swap: true}, outs)
	if err != nil {
		t.Fatal(err)
	}
	if plain != swapped {
		t.Errorf("swapped merge = %q, unswapped = %q", swapped, plain)
	}
	// The binary path agrees: a swapped merge candidate evaluates
	// identically to the unswapped one, so every entry point — synthesis
	// plausibility, `kumquat combine`, the k-way combine — shares one
	// tie semantics.
	bPlain, err := Candidate{Op: Merge{}}.Eval(e, "a\nc\n", "b\n")
	if err != nil {
		t.Fatal(err)
	}
	bSwap, err := Candidate{Op: Merge{}, Swap: true}.Eval(e, "a\nc\n", "b\n")
	if err != nil {
		t.Fatal(err)
	}
	if bPlain != bSwap {
		t.Errorf("binary swapped merge = %q, unswapped = %q", bSwap, bPlain)
	}
}

// benchSubstreams builds k uniq -c-shaped substreams totalling roughly
// lines lines, the workload where pairwise combining dominates.
func benchSubstreams(k, lines int) []string {
	rng := rand.New(rand.NewSource(3))
	outs := make([]string, k)
	per := lines / k
	if per < 1 {
		per = 1
	}
	for i := range outs {
		var b strings.Builder
		for j := 0; j < per; j++ {
			fmt.Fprintf(&b, "%7d w%04d\n", 1+rng.Intn(99), j)
		}
		outs[i] = b.String()
	}
	return outs
}

// benchNumbered builds k numbered substreams for the offset combiner,
// whose fold cost is quadratic in k (each fold step re-copies the
// accumulator).
func benchNumbered(k, lines int) []string {
	outs := make([]string, k)
	per := lines / k
	if per < 1 {
		per = 1
	}
	for i := range outs {
		var b strings.Builder
		for j := 0; j < per; j++ {
			fmt.Fprintf(&b, "%d line-%d\n", j+1, j)
		}
		outs[i] = b.String()
	}
	return outs
}

// BenchmarkCombineKFold times the §3.5 left fold for the two pairwise
// combiner shapes the example suite exercises most: stitch2 (uniq -c)
// and offset (running counts). Allocation counts are reported so the
// data-plane regressions show up alongside wall time.
func BenchmarkCombineKFold(b *testing.B) {
	cases := []struct {
		name string
		c    Candidate
		outs func(k, lines int) []string
	}{
		{"stitch2", Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}}, benchSubstreams},
		{"offset", Candidate{Op: Offset{D: ' ', B: Add{}}}, benchNumbered},
	}
	for _, tc := range cases {
		for _, k := range []int{8, 32} {
			outs := tc.outs(k, 8192)
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := CombineK(nil, tc.c, outs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCombineKAllocations pins the k-way combine's allocations at run
// time: a concat combine of k non-empty substreams makes two — the
// substream slice prepareK sizes once and strings.Join's output — at
// k = 4 and at k = 32 alike.
func TestCombineKAllocations(t *testing.T) {
	c := Candidate{Op: Concat{}}
	for _, k := range []int{4, 32} {
		outs := make([]string, k)
		for i := range outs {
			outs[i] = fmt.Sprintf("line %d\n", i)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := CombineK(nil, c, outs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("concat combine of k=%d substreams: %v allocations, want 2", k, allocs)
		}
	}
}
