package synth

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"kumquat/internal/dsl"
	"kumquat/internal/shape"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

func synthesize(t *testing.T, spec string) *Result {
	t.Helper()
	s := New(unix.DefaultEnv(), Options{Seed: 1})
	res, err := s.Synthesize(context.Background(), spec)
	if res == nil {
		t.Fatalf("Synthesize(%q): %v", spec, err)
	}
	return res
}

func hasPlausible(res *Result, repr string) bool {
	for _, c := range res.Plausible {
		if c.String() == repr {
			return true
		}
	}
	return false
}

func plausibleStrings(res *Result) string {
	var b strings.Builder
	for _, c := range res.Plausible {
		b.WriteString(c.String())
		b.WriteString("; ")
	}
	return b.String()
}

func TestSynthesizeWcL(t *testing.T) {
	res := synthesize(t, "wc -l")
	if res.Err != nil {
		t.Fatalf("wc -l: %v", res.Err)
	}
	// Table 10: exactly (back '\n' add) in both argument orders.
	if len(res.Plausible) != 2 ||
		!hasPlausible(res, `(back '\n' add a b)`) ||
		!hasPlausible(res, `(back '\n' add b a)`) {
		t.Errorf("wc -l plausible = %s", plausibleStrings(res))
	}
	// Table 10: wc -l searches the 1-delimiter space of 2700 candidates.
	if res.Space.Total() != 2700 {
		t.Errorf("wc -l search space = %d, want 2700", res.Space.Total())
	}
}

func TestSynthesizeGrepCount(t *testing.T) {
	res := synthesize(t, `grep -c '^....$'`)
	if res.Err != nil {
		t.Fatalf("grep -c: %v", res.Err)
	}
	if !hasPlausible(res, `(back '\n' add a b)`) || !hasPlausible(res, `(back '\n' add b a)`) {
		t.Errorf("grep -c plausible = %s", plausibleStrings(res))
	}
}

func TestSynthesizeUniq(t *testing.T) {
	res := synthesize(t, "uniq")
	if res.Err != nil {
		t.Fatalf("uniq: %v", res.Err)
	}
	// Table 10: stitch first, stitch second, rerun.
	if !hasPlausible(res, "(stitch first a b)") {
		t.Errorf("uniq should synthesize stitch first; got %s", plausibleStrings(res))
	}
	if !hasPlausible(res, "(rerun a b)") {
		t.Errorf("uniq should keep rerun plausible; got %s", plausibleStrings(res))
	}
	if res.Combiner == nil || res.Combiner.Primary().Class() != dsl.StructOpClass {
		t.Errorf("uniq composite should prefer StructOp, got %v", res.Combiner)
	}
}

func TestSynthesizeUniqC(t *testing.T) {
	res := synthesize(t, "uniq -c")
	if res.Err != nil {
		t.Fatalf("uniq -c: %v", res.Err)
	}
	if !hasPlausible(res, "(stitch2 ' ' add first a b)") {
		t.Errorf("uniq -c should synthesize (stitch2 ' ' add first); got %s", plausibleStrings(res))
	}
	// No RecOp may survive (it would poison the composite preference).
	for _, c := range res.Plausible {
		if c.Class() == dsl.RecOpClass {
			t.Errorf("uniq -c has RecOp survivor %s", c)
		}
	}
}

func TestSynthesizeSort(t *testing.T) {
	res := synthesize(t, "sort")
	if res.Err != nil {
		t.Fatalf("sort: %v", res.Err)
	}
	if res.Combiner == nil || !hasPlausible(res, "(merge a b)") {
		t.Fatalf("sort should synthesize merge; got %s", plausibleStrings(res))
	}
	if !hasPlausible(res, "(rerun a b)") || !hasPlausible(res, "(rerun b a)") {
		t.Errorf("sort should keep rerun in both orders; got %s", plausibleStrings(res))
	}
	// Table 10: 4 plausible combiners for sort.
	if len(res.Plausible) != 4 {
		t.Errorf("sort plausible count = %d, want 4: %s", len(res.Plausible), plausibleStrings(res))
	}
}

func TestSynthesizeSortRN(t *testing.T) {
	res := synthesize(t, "sort -rn")
	if res.Err != nil {
		t.Fatalf("sort -rn: %v", res.Err)
	}
	if res.Combiner == nil || !hasPlausible(res, "(merge a b)") {
		t.Fatalf("sort -rn should synthesize merge; got %s", plausibleStrings(res))
	}
	// Display carries the flags like the paper's merge('-rn').
	disp := res.Combiner.String()
	if !strings.Contains(disp, "merge('-rn')") {
		t.Errorf("sort -rn display = %q", disp)
	}
}

func TestSynthesizeTrTranslate(t *testing.T) {
	res := synthesize(t, "tr A-Z a-z")
	if res.Err != nil {
		t.Fatalf("tr A-Z a-z: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("tr should synthesize concat; got %s", plausibleStrings(res))
	}
	if res.Combiner == nil || !res.Combiner.IsConcat() {
		t.Error("tr combiner should be concat (eligible for elimination)")
	}
}

func TestSynthesizeTrSqueeze(t *testing.T) {
	res := synthesize(t, `tr -cs A-Za-z '\n'`)
	if res.Err != nil {
		t.Fatalf("tr -cs: %v", res.Err)
	}
	// §2: concat is incorrect (squeeze crosses the boundary); rerun is the
	// correct combiner.
	if hasPlausible(res, "(concat a b)") {
		t.Errorf("tr -cs must eliminate concat; got %s", plausibleStrings(res))
	}
	if !hasPlausible(res, "(rerun a b)") {
		t.Errorf("tr -cs should synthesize rerun; got %s", plausibleStrings(res))
	}
	if res.Combiner == nil || !res.Combiner.IsRerunOnly() {
		t.Errorf("tr -cs combiner should be rerun-only, got %s", plausibleStrings(res))
	}
}

func TestSynthesizeCut(t *testing.T) {
	res := synthesize(t, "cut -c 1-4")
	if res.Err != nil {
		t.Fatalf("cut: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") || !hasPlausible(res, "(rerun a b)") {
		t.Errorf("cut plausible = %s", plausibleStrings(res))
	}
}

func TestSynthesizeCutFieldDelim(t *testing.T) {
	res := synthesize(t, "cut -d ',' -f 1,2")
	if res.Err != nil {
		t.Fatalf("cut -d: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("cut -d plausible = %s", plausibleStrings(res))
	}
	// The mined ',' delimiter flows into outputs, widening the delim set.
	found := false
	for _, d := range res.Delims {
		if d == ',' {
			found = true
		}
	}
	if !found {
		t.Errorf("cut -d ',' should select ',' as a delimiter; got %v", res.Delims)
	}
}

func TestSynthesizeHeadN1(t *testing.T) {
	res := synthesize(t, "head -n 1")
	if res.Err != nil {
		t.Fatalf("head -n 1: %v", res.Err)
	}
	// Table 10: first a b, second b a, (back '\n' first) a b,
	// (fuse '\n' first) a b, (back '\n' second) b a,
	// (fuse '\n' second) b a, rerun a b.
	for _, want := range []string{
		"(first a b)", "(second b a)",
		`(back '\n' first a b)`, `(back '\n' second b a)`,
		`(fuse '\n' first a b)`, `(fuse '\n' second b a)`,
	} {
		if !hasPlausible(res, want) {
			t.Errorf("head -n 1 missing %s; got %s", want, plausibleStrings(res))
		}
	}
	if hasPlausible(res, "(concat a b)") {
		t.Errorf("head -n 1 must eliminate concat")
	}
}

func TestSynthesizeAwkComparison(t *testing.T) {
	res := synthesize(t, `awk "\$1 >= 1000"`)
	if res.Err != nil {
		t.Fatalf("awk >=: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("awk >= plausible = %s", plausibleStrings(res))
	}
}

func TestSynthesizeGrepPatternDict(t *testing.T) {
	res := synthesize(t, `grep 'light.*light'`)
	if res.Err != nil {
		t.Fatalf("grep pattern: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") || !hasPlausible(res, "(rerun a b)") {
		t.Errorf("grep pattern plausible = %s", plausibleStrings(res))
	}
}

func TestSynthesizeComm(t *testing.T) {
	res := synthesize(t, "comm -23 - dict.sorted")
	if res.Err != nil {
		t.Fatalf("comm: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("comm plausible = %s", plausibleStrings(res))
	}
}

func TestSynthesizeXargsCat(t *testing.T) {
	res := synthesize(t, "xargs cat")
	if res.Err != nil {
		t.Fatalf("xargs cat: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("xargs cat plausible = %s", plausibleStrings(res))
	}
	if !hasPlausible(res, "(offset ' ' second a b)") {
		t.Errorf("xargs cat should keep (offset ' ' second); got %s", plausibleStrings(res))
	}
	// rerun must die: output lines are not file names.
	if hasPlausible(res, "(rerun a b)") {
		t.Errorf("xargs cat must eliminate rerun")
	}
}

func TestSynthesizeXargsWc(t *testing.T) {
	res := synthesize(t, "xargs -L 1 wc -l")
	if res.Err != nil {
		t.Fatalf("xargs wc: %v", res.Err)
	}
	if !hasPlausible(res, "(concat a b)") {
		t.Errorf("xargs wc plausible = %s", plausibleStrings(res))
	}
	if hasPlausible(res, "(rerun a b)") {
		t.Errorf("xargs wc must eliminate rerun")
	}
}

// Table 9: the commands for which no correct combiner exists.
func TestTable9NoCombiner(t *testing.T) {
	for _, spec := range []string{"sed 1d", "sed 2d", "sed 3d", "tail +2", "tail +3"} {
		res := synthesize(t, spec)
		if !errors.Is(res.Err, ErrNoCombiner) {
			t.Errorf("%s: err = %v, want ErrNoCombiner (plausible: %s)",
				spec, res.Err, plausibleStrings(res))
		}
	}
}

// Table 9: the equality-gated awk command fails because generated inputs
// never produce nonempty outputs.
func TestTable9GatedAwk(t *testing.T) {
	res := synthesize(t, `awk "\$1 == 2 {print \$2, \$3}"`)
	if !errors.Is(res.Err, ErrNoOutputs) {
		t.Errorf("gated awk: err = %v, want ErrNoOutputs (plausible: %s)",
			res.Err, plausibleStrings(res))
	}
}

// TestSynthesizedCombinersAreCorrect replays the divide-and-conquer
// equation f(x1 ++ x2) = g(f(x1), f(x2)) on fresh random inputs for every
// synthesized combiner.
func TestSynthesizedCombinersAreCorrect(t *testing.T) {
	specs := []string{
		"wc -l", "uniq", "uniq -c", "sort", "sort -rn", "tr A-Z a-z",
		`tr -cs A-Za-z '\n'`, "cut -c 1-4", "head -n 3", `grep 'light.*light'`,
		"sed 100q", `awk '{print NF}'`, "rev",
	}
	rng := rand.New(rand.NewSource(77))
	gen := shape.New(99)
	gen.WordDict = []string{"lightxlight", "light"}
	for _, spec := range specs {
		res := synthesize(t, spec)
		if res.Err != nil {
			t.Errorf("%s: %v", spec, res.Err)
			continue
		}
		cmd, _ := unix.Parse(spec, unix.DefaultEnv())
		for trial := 0; trial < 30; trial++ {
			x1, x2 := gen.StreamPair(shape.Seed())
			y1, e1 := cmd.Run(x1)
			y2, e2 := cmd.Run(x2)
			y12, e12 := cmd.Run(x1 + x2)
			if e1 != nil || e2 != nil || e12 != nil {
				continue
			}
			got, err := res.Combiner.Combine(y1, y2)
			if err != nil || got != y12 {
				t.Errorf("%s: combiner %s wrong on x1=%q x2=%q: got %q (err %v), want %q",
					spec, res.Combiner, x1, x2, got, err, y12)
				break
			}
		}
		_ = rng
	}
}

// TestCombineKMatchesSerial verifies the k-way generalization end to end.
func TestCombineKMatchesSerial(t *testing.T) {
	specs := []string{"wc -l", "sort", "uniq -c", "tr A-Z a-z", "uniq"}
	gen := shape.New(123)
	for _, spec := range specs {
		res := synthesize(t, spec)
		if res.Err != nil {
			t.Fatalf("%s: %v", spec, res.Err)
		}
		cmd, _ := unix.Parse(spec, unix.DefaultEnv())
		for trial := 0; trial < 20; trial++ {
			s := shape.Seed()
			s.Lines = shape.Config{Min: 6, Max: 20, Distinct: 50}
			x := gen.Stream(s)
			k := 2 + trial%6
			chunks := textio.ChunkLines(x, k)
			outs := make([]string, len(chunks))
			for i, ch := range chunks {
				outs[i], _ = cmd.Run(ch)
			}
			want, _ := cmd.Run(x)
			got, err := res.Combiner.CombineKTree(outs, 1)
			if err != nil || got != want {
				t.Errorf("%s k=%d: CombineKTree = %q (err %v), want %q", spec, k, got, err, want)
				break
			}
		}
	}
}

func TestReductionRatio(t *testing.T) {
	// tr -cs barely reduces the stream; wc -l reduces it to almost nothing.
	trRes := synthesize(t, `tr -cs A-Za-z '\n'`)
	wcRes := synthesize(t, "wc -l")
	if trRes.Err != nil || wcRes.Err != nil {
		t.Fatal("synthesis failed")
	}
	if trRes.ReductionRatio < 0.3 {
		t.Errorf("tr -cs reduction ratio = %f, expected near 1", trRes.ReductionRatio)
	}
	if wcRes.ReductionRatio > 0.3 {
		t.Errorf("wc -l reduction ratio = %f, expected near 0", wcRes.ReductionRatio)
	}
}

func TestSynthesizerCache(t *testing.T) {
	s := New(unix.DefaultEnv(), Options{Seed: 1})
	r1, err := s.Synthesize(context.Background(), "wc -l")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.Synthesize(context.Background(), "wc -l")
	if r1 != r2 {
		t.Error("cache should return the identical result")
	}
}

func TestDeterministicSynthesis(t *testing.T) {
	a := New(unix.DefaultEnv(), Options{Seed: 42})
	b := New(unix.DefaultEnv(), Options{Seed: 42})
	ra, _ := a.Synthesize(context.Background(), "uniq -c")
	rb, _ := b.Synthesize(context.Background(), "uniq -c")
	if plausibleA, plausibleB := ra.Plausible, rb.Plausible; len(plausibleA) != len(plausibleB) {
		t.Fatalf("non-deterministic plausible sets: %d vs %d", len(plausibleA), len(plausibleB))
	} else {
		for i := range plausibleA {
			if plausibleA[i].String() != plausibleB[i].String() {
				t.Fatalf("non-deterministic candidate %d", i)
			}
		}
	}
}

func TestGradientAblationStillCorrect(t *testing.T) {
	b := defaultBudget
	b.disableGradient = true
	s := newEngine(unix.DefaultEnv(), Options{Seed: 5}, b)
	res, err := s.Synthesize(context.Background(), "wc -l")
	if err != nil {
		t.Fatalf("no-gradient synthesis failed: %v", err)
	}
	if !hasPlausible(res, `(back '\n' add a b)`) {
		t.Errorf("no-gradient wc -l plausible = %s", plausibleStrings(res))
	}
}

// TestSortedProbe pins §3.2's sorted test stream byte for byte: it is a
// synthesis input, so any change to it moves every verdict's observations.
func TestSortedProbe(t *testing.T) {
	const want = "apple\ncat\ndream\ngold\nking\nlight\nnight\nriver\nsea\nship\nstone\nwind\n"
	if got := sortedProbe(); got != want {
		t.Errorf("sortedProbe() = %q, want %q", got, want)
	}
}
