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

// fragmentSpecs are pipeline fragments synthesized as one black box:
// a merge, a rerun, an add combiner and two keyed merges.
var fragmentSpecs = []string{"tr A-Z a-z | sort", "sort | head -n 5", "grep light | wc -l",
	"sort | uniq", "tr A-Z a-z | sort | uniq -c"}

// combineRows are the stream families the combine gate splits: long
// streams of few distinct lines, cut into 2, 5 and 16 chunks; short
// streams of mostly distinct lines, cut into 2 to 7; and streams half of
// whose words are grep's literal, so its matches fall in several chunks.
var combineRows = []struct {
	lines shape.Config
	dict  []string
	ks    []int
}{
	{shape.Config{Min: 40, Max: 80, Distinct: 9}, nil, []int{2, 5, 16}},
	{shape.Config{Min: 6, Max: 20, Distinct: 50}, nil, []int{2, 3, 4, 5, 6, 7}},
	{shape.Config{Min: 40, Max: 80, Distinct: 50}, []string{"light", "Light"}, []int{2, 5, 16}},
}

// TestCombineKTreeMatchesSerial is the acceptance gate for the combine
// plane: for every combiner synthesized over the example suite and the
// fragments, the k-way combine of the chunk outputs must reproduce the
// serial run byte for byte, on every stream family, at every k and every
// merge width.
func TestCombineKTreeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the full example suite")
	}
	widths := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, spec := range append(exampleSuiteSpecs, fragmentSpecs...) {
		res := synthesize(t, spec)
		if res.Err != nil {
			t.Errorf("%s: no combiner: %v", spec, res.Err)
			continue
		}
		cmd, err := unix.Parse(spec, unix.DefaultEnv())
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		for ri, row := range combineRows {
			gen := shape.New(7 + int64(ri))
			gen.WordDict = row.dict
			for trial := 0; trial < 6; trial++ {
				s := shape.Seed()
				s.Lines = row.lines
				x := gen.Stream(s)
				want, err := cmd.Run(x)
				if err != nil {
					t.Fatalf("%s: serial run: %v", spec, err)
				}
				for _, k := range row.ks {
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
							t.Fatalf("%s (%s) k=%d width=%d: combined=%q, serial=%q", spec, res.Combiner, k, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKeyedMergeExhaustive is a bounded-exhaustive check of the keyed
// merge: for sort | uniq -c, sort -r | uniq -c and
// tr A-Z a-z | sort | uniq -c, on every input of up to 6 bytes over
// {a, b, A, ' ', '\n'} and every line-aligned 2- and 3-split of it, the
// synthesized keyed merge over the chunk outputs gives the serial bytes.
func TestKeyedMergeExhaustive(t *testing.T) {
	const alphabet, maxLen = "abA \n", 6
	inputs := []string{""}
	for n, from := 1, 0; n <= maxLen; n++ {
		to := len(inputs)
		for _, x := range inputs[from:to] {
			for i := range len(alphabet) {
				inputs = append(inputs, x+alphabet[i:i+1])
			}
		}
		from = to
	}
	for _, spec := range []string{"sort | uniq -c", "sort -r | uniq -c", "tr A-Z a-z | sort | uniq -c"} {
		res := synthesize(t, spec)
		if res.Err != nil {
			t.Fatalf("%s: no combiner: %v", spec, res.Err)
		}
		if _, ok := res.Combiner.Primary().Op.(dsl.KeyMerge); !ok {
			t.Fatalf("%s: combiner %s, want a keyed merge", spec, res.Combiner)
		}
		cmd, err := unix.Parse(spec, unix.DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		run := func(x string) string {
			out, err := cmd.Run(x)
			if err != nil {
				t.Fatalf("%s %q: %v", spec, x, err)
			}
			return out
		}
		splits := 0
		for _, x := range inputs {
			want := run(x)
			var cuts []int // line starts after the first
			for i := 0; i+1 < len(x); i++ {
				if x[i] == '\n' {
					cuts = append(cuts, i+1)
				}
			}
			check := func(chunks ...string) {
				outs := make([]string, len(chunks))
				for i, ch := range chunks {
					outs[i] = run(ch)
				}
				if got, err := res.Combiner.CombineKTree(outs, 1); err != nil || got != want {
					t.Fatalf("%s over %q: combined %q (%v), serial %q", spec, chunks, got, err, want)
				}
				splits++
			}
			for i, c := range cuts {
				check(x[:c], x[c:])
				for _, d := range cuts[i+1:] {
					check(x[:c], x[c:d], x[d:])
				}
			}
		}
		if splits == 0 {
			t.Fatalf("%s: no splits checked", spec)
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
