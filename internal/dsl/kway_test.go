package dsl

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// treeCases enumerates one representative candidate per combiner class of
// the Table 6 space — RecOp (add, concat, first, second, front, back,
// fuse), StructOp (stitch, stitch2, offset) and RunOp (merge, rerun) —
// together with an in-domain substream generator. gen must produce
// substreams for which the serial fold succeeds, so tree-vs-fold
// comparison is never vacuous.
var treeCases = []struct {
	name string
	c    Candidate
	env  string // command bound into Env ("" = no env needed)
	gen  func(rng *rand.Rand) string
}{
	{"concat", Candidate{Op: Concat{}}, "", genStream},
	{"concat-swap", Candidate{Op: Concat{}, Swap: true}, "", genStream},
	{"add", Candidate{Op: Add{}}, "", genDigits},
	{"first", Candidate{Op: First{}}, "", genStream},
	{"second", Candidate{Op: Second{}}, "", genStream},
	{"front-add", Candidate{Op: Front{D: ',', B: Add{}}}, "",
		func(rng *rand.Rand) string { return "," + genDigits(rng) }},
	{"back-add", Candidate{Op: Back{D: '\n', B: Add{}}}, "",
		func(rng *rand.Rand) string { return genDigits(rng) + "\n" }},
	{"back-add-swap", Candidate{Op: Back{D: '\n', B: Add{}}, Swap: true}, "",
		func(rng *rand.Rand) string { return genDigits(rng) + "\n" }},
	{"fuse-concat", Candidate{Op: Fuse{D: '\t', B: Concat{}}}, "",
		func(rng *rand.Rand) string {
			parts := make([]string, 3) // fixed element count across streams
			for i := range parts {
				parts[i] = genWord(rng)
			}
			return strings.Join(parts, "\t")
		}},
	{"fuse-add", Candidate{Op: Fuse{D: ' ', B: Add{}}}, "",
		func(rng *rand.Rand) string {
			return genDigits(rng) + " " + genDigits(rng)
		}},
	{"stitch-first", Candidate{Op: Stitch{B: First{}}}, "", genUniqStream},
	{"stitch-second", Candidate{Op: Stitch{B: Second{}}}, "", genUniqStream},
	{"stitch2-add-first", Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}}, "", genCountStream},
	{"stitch2-add-first-swap", Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}, Swap: true}, "", genCountStream},
	{"stitch2-first-first", Candidate{Op: Stitch2{D: ' ', B1: First{}, B2: First{}}}, "", genCountStream},
	// Head-shrinking B1: not associative (headMonotone false), so the
	// tree must fall back to the fold — identity holds by delegation.
	{"stitch2-second-first", Candidate{Op: Stitch2{D: ' ', B1: Second{}, B2: First{}}}, "", genCountStream},
	{"offset-add", Candidate{Op: Offset{D: ' ', B: Add{}}}, "", genNumberedStream},
	{"offset-second", Candidate{Op: Offset{D: ' ', B: Second{}}}, "", genNumberedStream},
	{"merge", Candidate{Op: Merge{}}, "sort", genSortedStream},
	{"merge-swap", Candidate{Op: Merge{}, Swap: true}, "sort", genSortedStream},
	{"rerun", Candidate{Op: Rerun{}}, "sort", genStream},
}

func genWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(5))
	}
	return string(b)
}

func genDigits(rng *rand.Rand) string {
	n := 1 + rng.Intn(5)
	b := make([]byte, n)
	b[0] = byte('1' + rng.Intn(9))
	for i := 1; i < n; i++ {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

func genStream(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		b.WriteString(genWord(rng))
		b.WriteByte('\n')
	}
	return b.String()
}

// genUniqStream mimics uniq output: runs already collapsed inside each
// substream, with boundary duplicates across substreams likely.
func genUniqStream(rng *rand.Rand) string {
	var b strings.Builder
	prev := ""
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		w := genWord(rng)
		if w == prev {
			continue
		}
		prev = w
		b.WriteString(w)
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		return "z\n"
	}
	return b.String()
}

// genCountStream mimics uniq -c-style output — padded counts, distinct
// words inside a substream — with deliberately mixed pad widths and
// count magnitudes so the padding re-derivation edge cases (count
// outgrowing the column, PadNone intermediates) are exercised.
func genCountStream(rng *rand.Rand) string {
	var b strings.Builder
	words := []string{"apple", "pear", "quince"}
	start := rng.Intn(len(words))
	for i := start; i < len(words) && i < start+1+rng.Intn(3); i++ {
		count := 1 + rng.Intn(99999)
		fmt.Fprintf(&b, "%*d %s\n", 1+rng.Intn(8), count, words[i])
	}
	return b.String()
}

// genNumberedStream mimics nl/awk running-count output: consecutive
// numbering restarting at 1 inside each substream.
func genNumberedStream(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		fmt.Fprintf(&b, "%d %s\n", i+1, genWord(rng))
	}
	return b.String()
}

func genSortedStream(rng *rand.Rand) string {
	lines := make([]string, 1+rng.Intn(5))
	for i := range lines {
		lines[i] = genWord(rng)
	}
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestCombineKTreeMatchesFold: for every combiner class in the Table 6
// space, the balanced-tree reduction must be byte-identical to the serial
// left fold at 1, 4 and GOMAXPROCS workers, across random substream
// counts including empty substreams.
func TestCombineKTreeMatchesFold(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range treeCases {
		t.Run(tc.name, func(t *testing.T) {
			var e *Env
			if tc.env != "" {
				e = env(t, tc.env)
			}
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 60; trial++ {
				k := 1 + rng.Intn(17)
				outs := make([]string, k)
				for i := range outs {
					if rng.Intn(8) == 0 {
						continue // empty substream: identity element
					}
					outs[i] = tc.gen(rng)
				}
				want, werr := CombineK(e, tc.c, outs)
				for _, w := range workerCounts {
					got, gerr := CombineKTree(e, tc.c, outs, w)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("trial %d k=%d workers=%d: fold err=%v, tree err=%v",
							trial, k, w, werr, gerr)
					}
					if got != want {
						t.Fatalf("trial %d k=%d workers=%d: tree=%q, fold=%q\nouts=%q",
							trial, k, w, got, want, outs)
					}
				}
			}
		})
	}
}

// failingConcat is concatenation that fails on any pair containing a
// '!' or longer than max bytes, with an error naming the pair, so a test
// can tell which pair failed first.
type failingConcat struct{ max int }

func (failingConcat) Class() Class               { return RecOpClass }
func (failingConcat) Size() int                  { return 3 }
func (failingConcat) InDomain(*Env, string) bool { return true }
func (failingConcat) Associative() bool          { return true }
func (f failingConcat) String() string           { return fmt.Sprintf("failing-concat(%d)", f.max) }

func (f failingConcat) Eval(_ *Env, y1, y2 string) (string, error) {
	if strings.Contains(y1+y2, "!") || len(y1)+len(y2) > f.max {
		return "", fmt.Errorf("failing-concat %q %q", y1, y2)
	}
	return y1 + y2, nil
}

// TestCombineKTreeFailureFallsBackToFold: when a pair fails mid-tree —
// at the first level, or only at the top — CombineKTree at widths 1, 2
// and 4 returns exactly CombineK's output and error, whose failing pair
// is the left fold's, not the tree's.
func TestCombineKTreeFailureFallsBackToFold(t *testing.T) {
	words := strings.Split("a b c d e f g h i", " ")
	bang := append([]string(nil), words...)
	bang[4] = "e!"
	for _, tc := range []struct {
		name string
		op   failingConcat
		outs []string
		fail bool
	}{
		{"first-level", failingConcat{max: 100}, bang, true},
		{"top-level", failingConcat{max: 5}, words, true},
		{"no-failure", failingConcat{max: 100}, words, false},
	} {
		c := Candidate{Op: tc.op}
		want, werr := CombineK(nil, c, tc.outs)
		if (werr != nil) != tc.fail {
			t.Fatalf("%s: CombineK err = %v, want failure %v", tc.name, werr, tc.fail)
		}
		for _, w := range []int{1, 2, 4} {
			got, gerr := CombineKTree(nil, c, tc.outs, w)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("%s width %d: CombineKTree = %q, %v; CombineK = %q, %v", tc.name, w, got, gerr, want, werr)
			}
		}
	}
}

// TestAssociativeCapability pins the capability table: which operator
// shapes may legally take the tree path.
func TestAssociativeCapability(t *testing.T) {
	cases := []struct {
		op   Op
		want bool
	}{
		{Concat{}, true},
		{Add{}, true},
		{First{}, true},
		{Second{}, true},
		{Front{D: ',', B: Add{}}, true},
		{Back{D: '\n', B: Add{}}, true},
		{Fuse{D: ' ', B: Concat{}}, true},
		{Merge{}, true},
		{Rerun{}, false},
		{Stitch{B: First{}}, true},
		{Stitch{B: Second{}}, true},
		// Boundary-rewriting stitch children break associativity: the
		// merged line/tail no longer equals the compared value.
		{Stitch{B: Add{}}, false},
		{Stitch{B: Concat{}}, false},
		{Stitch2{D: ' ', B1: Add{}, B2: First{}}, true},
		{Stitch2{D: ' ', B1: First{}, B2: First{}}, true},
		{Stitch2{D: ' ', B1: Add{}, B2: Concat{}}, false},
		// Head-shrinking B1: the merged head can collapse an
		// intermediate line's padding (see headMonotone).
		{Stitch2{D: ' ', B1: Second{}, B2: First{}}, false},
		{Stitch2{D: ' ', B1: Second{}, B2: Second{}}, false},
		{Offset{D: ' ', B: Add{}}, true},
		{Offset{D: ' ', B: First{}}, true},
	}
	for _, tc := range cases {
		if got := tc.op.Associative(); got != tc.want {
			t.Errorf("%s.Associative() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

// TestStitchAddNotAssociative demonstrates why value-rewriting stitch
// children must fold serially: with B = add the bracketing changes the
// result, so the capability table has to exclude it.
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
	// And the tree therefore must agree with the fold by refusing the
	// tree path, not by luck.
	outs := []string{a, b, c}
	want, _ := CombineK(nil, Candidate{Op: op}, outs)
	got, _ := CombineKTree(nil, Candidate{Op: op}, outs, 4)
	if got != want {
		t.Fatalf("CombineKTree(stitch add) = %q, fold = %q", got, want)
	}
}

// TestStitch2SecondPaddingNotAssociative is the regression test for the
// head-shrinking stitch2 hazard: with B1 = second and mixed pad widths,
// the fold's intermediate line collapses its padding (the merged head
// outgrows the column) while a tree bracketing re-pads from the original
// operand — so the capability table must keep this shape off the tree
// path, and CombineKTree must match the fold bit for bit by delegating.
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
		t.Logf("bracketings agree on this input; hazard not exercised")
	}
	if op.Associative() {
		t.Fatal("Stitch2{B1: Second}.Associative() = true; head-shrinking B1 must stay off the tree path")
	}
	want, werr := CombineK(nil, Candidate{Op: op}, outs)
	for _, w := range []int{1, 4} {
		got, gerr := CombineKTree(nil, Candidate{Op: op}, outs, w)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("workers=%d: tree=%q (err %v), fold=%q (err %v)", w, got, gerr, want, werr)
		}
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
// byte-identically to the unswapped one (and the tree to both).
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
	tree, err := CombineKTree(e, Candidate{Op: Merge{}, Swap: true}, outs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tree != plain {
		t.Errorf("tree swapped merge = %q, fold = %q", tree, plain)
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

// BenchmarkCombineKFold and BenchmarkCombineKTree compare the serial left
// fold against the balanced-tree reduction for the two pairwise combiner
// shapes the example suite exercises most: stitch2 (uniq -c) and offset
// (running counts). Allocation counts are reported so the data-plane
// regressions show up alongside wall time.
func BenchmarkCombineKFold(b *testing.B) {
	benchCombine(b, func(e *Env, c Candidate, outs []string) (string, error) {
		return CombineK(e, c, outs)
	})
}

// BenchmarkCombineKTree is the tree counterpart of BenchmarkCombineKFold,
// run at GOMAXPROCS workers.
func BenchmarkCombineKTree(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	benchCombine(b, func(e *Env, c Candidate, outs []string) (string, error) {
		return CombineKTree(e, c, outs, w)
	})
}

func benchCombine(b *testing.B, combine func(*Env, Candidate, []string) (string, error)) {
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
					if _, err := combine(nil, tc.c, outs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
