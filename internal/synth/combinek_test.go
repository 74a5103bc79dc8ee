package synth

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/dsl"
	"kumquat/internal/shape"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// exampleSuiteSpecs are the distinct commands of the four examples/
// pipelines (quickstart, wordfreq, unix50, analytics) plus the counting
// and squeeze shapes — together they cover every combiner class the
// synthesizer produces for the benchmark catalog: concat, back-add,
// stitch2, merge, rerun.
var exampleSuiteSpecs = []string{
	"sort",
	"sort -rn",
	"sort -u",
	"uniq",
	"uniq -c",
	"tr A-Z a-z",
	`tr -cs A-Za-z '\n'`,
	`cut -d ' ' -f 1`,
	`cut -d ',' -f 1,3`,
	`sed 's/T..:..:..//'`,
	"wc -l",
	"grep light",
}

// TestCombineKTreeMatchesSerial is the acceptance gate for the combine
// plane: for every combiner synthesized over the example suite, the k-way
// combine of the chunk outputs must reproduce the serial command run
// byte for byte, at every k and every merge width.
func TestCombineKTreeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the full example suite")
	}
	widths := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	gen := shape.New(7)
	for _, spec := range exampleSuiteSpecs {
		res := synthesize(t, spec)
		if res.Err != nil {
			t.Errorf("%s: no combiner: %v", spec, res.Err)
			continue
		}
		cmd, err := unix.Parse(spec, unix.DefaultEnv())
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		for trial := 0; trial < 6; trial++ {
			s := shape.Seed()
			s.Lines = shape.Config{Min: 40, Max: 80, Distinct: 9}
			x := gen.Stream(s)
			want, err := cmd.Run(x)
			if err != nil {
				t.Fatalf("%s: serial run: %v", spec, err)
			}
			for _, k := range []int{2, 5, 16} {
				chunks := textio.ChunkLines(x, k)
				outs := make([]string, len(chunks))
				for i, ch := range chunks {
					outs[i], err = cmd.Run(ch)
					if err != nil {
						t.Fatalf("%s: chunk run: %v", spec, err)
					}
				}
				for _, w := range widths {
					got, err := res.Combiner.CombineKTree(outs, w)
					if err != nil {
						t.Fatalf("%s k=%d width=%d: %v", spec, k, w, err)
					}
					if got != want {
						t.Fatalf("%s k=%d width=%d: combined=%q, serial=%q", spec, k, w, got, want)
					}
				}
			}
		}
	}
}

// TestCombineKSkipsUnsortedMerge: a merge member checks its domain in the
// walk that merges, and an unsorted substream must skip it exactly as a
// failed InDomain pre-pass did — falling through to the next member and
// leaving no error of its own — at every width, on both sides of the
// range-merge size cutoff.
func TestCombineKSkipsUnsortedMerge(t *testing.T) {
	cmd, err := unix.Parse("sort -m", unix.DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	sortm := cmd.(*unix.SortCmd)
	env := &dsl.Env{RunF: sortm.Run, Merge: sortm}
	merge, concat, rerun := dsl.Candidate{Op: dsl.Merge{}}, dsl.Candidate{Op: dsl.Concat{}}, dsl.Candidate{Op: dsl.Rerun{}}

	var big strings.Builder
	for i := 0; big.Len() < 64<<10; i++ {
		fmt.Fprintf(&big, "w%06d\n", i)
	}
	for _, outs := range [][]string{
		{"b\na\n", "", "c\n"},
		{"a\nc\n", "b\n", "d\nb"},
		{big.String(), "w000100\nw000050\n"},
		{"w000100\n" + big.String(), big.String()},
	} {
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			combine := func(c *Combiner) (string, error) { return c.CombineKTree(outs, w) }
			got, err := combine(&Combiner{Spec: "sort -m", Candidates: []dsl.Candidate{merge, concat}, env: env})
			if want := strings.Join(outs, ""); err != nil || got != want {
				t.Errorf("width %d: merge, concat = %q, %v; want the concat %q", w, got, err, want)
			}
			_, err = combine(&Combiner{Spec: "sort -m", Candidates: []dsl.Candidate{merge}, env: env})
			if err == nil || err.Error() != "synth: no composite member accepts the substreams" {
				t.Errorf("width %d: merge alone: error %v", w, err)
			}
			_, err = combine(&Combiner{Spec: "sort -m", Candidates: []dsl.Candidate{merge, rerun}, env: env})
			if err == nil || err.Error() != "sort: -m: input is not sorted" {
				t.Errorf("width %d: merge, rerun: error %v, want the rerun's", w, err)
			}
			_, err = dsl.CombineK(env, merge, outs, w)
			if !errors.Is(err, dsl.ErrNotSorted) || err.Error() != "dsl: merge: operand is not sorted" {
				t.Errorf("width %d: dsl.CombineK error %v", w, err)
			}
		}
	}
	// Without a comparator in the Env merge accepts nothing, and is
	// skipped as before, not failed.
	bare := &dsl.Env{RunF: sortm.Run}
	outs := []string{"a\n", "b\n"}
	if got, err := (&Combiner{Candidates: []dsl.Candidate{merge, concat}, env: bare}).CombineKTree(outs, 1); err != nil || got != "a\nb\n" {
		t.Errorf("merge, concat without a comparator = %q, %v; want the concat", got, err)
	}
	if _, err := (&Combiner{Candidates: []dsl.Candidate{merge}, env: bare}).CombineKTree(outs, 2); err == nil ||
		err.Error() != "synth: no composite member accepts the substreams" {
		t.Errorf("merge alone without a comparator: error %v", err)
	}
	if _, err := merge.Eval(env, "b\na\n", "c\n"); err == nil || err.Error() != "dsl: merge: operand is not sorted" {
		t.Errorf("Merge.Eval on an unsorted operand: error %v", err)
	}
}
