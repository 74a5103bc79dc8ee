package dsl

import (
	"math/rand"
	"strings"
	"testing"

	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

func env(t *testing.T, spec string) *Env {
	t.Helper()
	cmd, err := unix.Parse(spec, unix.DefaultEnv())
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	e := &Env{RunF: cmd.Run}
	if s, ok := cmd.(*unix.SortCmd); ok {
		e.Merge = s
	} else {
		def, _ := unix.Parse("sort", nil)
		e.Merge = def.(*unix.SortCmd)
	}
	return e
}

func evalOK(t *testing.T, e *Env, op Op, y1, y2 string) string {
	t.Helper()
	v, err := op.Eval(e, y1, y2)
	if err != nil {
		t.Fatalf("%s %q %q: %v", op, y1, y2, err)
	}
	return v
}

func TestAddEval(t *testing.T) {
	if got := evalOK(t, nil, Add{}, "12", "30"); got != "42" {
		t.Errorf("add = %q", got)
	}
	// intToStr drops leading zeros: 007 + 003 = 10.
	if got := evalOK(t, nil, Add{}, "007", "003"); got != "10" {
		t.Errorf("add leading zeros = %q", got)
	}
	// Arbitrary precision.
	if got := evalOK(t, nil, Add{}, "99999999999999999999", "1"); got != "100000000000000000000" {
		t.Errorf("add bignum = %q", got)
	}
	if _, err := (Add{}).Eval(nil, "1a", "2"); err == nil {
		t.Error("add on non-digits should fail")
	}
	if (Add{}).InDomain(nil, "") || (Add{}).InDomain(nil, "-1") {
		t.Error("L(add) = [0-9]+")
	}
}

func TestBasicRecOps(t *testing.T) {
	if got := evalOK(t, nil, Concat{}, "a", "b"); got != "ab" {
		t.Errorf("concat = %q", got)
	}
	if got := evalOK(t, nil, First{}, "a", "b"); got != "a" {
		t.Errorf("first = %q", got)
	}
	if got := evalOK(t, nil, Second{}, "a", "b"); got != "b" {
		t.Errorf("second = %q", got)
	}
}

func TestFrontBack(t *testing.T) {
	fb := Front{D: ',', B: Concat{}}
	if got := evalOK(t, nil, fb, ",a", ",b"); got != ",ab" {
		t.Errorf("front = %q", got)
	}
	if _, err := fb.Eval(nil, "a", ",b"); err == nil {
		t.Error("front without delimiter should fail")
	}
	ba := Back{D: '\n', B: Add{}}
	if got := evalOK(t, nil, ba, "5\n", "7\n"); got != "12\n" {
		t.Errorf("back add = %q (the wc -l combiner)", got)
	}
	if !ba.InDomain(nil, "5\n") || ba.InDomain(nil, "5") || ba.InDomain(nil, "x\n") {
		t.Error("L(back '\\n' add) misclassified")
	}
}

func TestFuse(t *testing.T) {
	fa := Fuse{D: ' ', B: Add{}}
	if got := evalOK(t, nil, fa, "1 2 3", "10 20 30"); got != "11 22 33" {
		t.Errorf("fuse add = %q", got)
	}
	if _, err := fa.Eval(nil, "1 2", "1 2 3"); err == nil {
		t.Error("fuse with differing element counts should fail")
	}
	if fa.InDomain(nil, "1") {
		t.Error("L(fuse) requires at least two elements")
	}
	if fa.InDomain(nil, " 1 2") || fa.InDomain(nil, "1 2 ") {
		t.Error("L(fuse) requires nonempty first and last elements")
	}
}

func TestStitch(t *testing.T) {
	sf := Stitch{B: First{}}
	// Boundary lines equal: merged once (the uniq combiner).
	got := evalOK(t, nil, sf, "a\nb\n", "b\nc\n")
	if got != "a\nb\nc\n" {
		t.Errorf("stitch first equal = %q", got)
	}
	// Boundary lines differ: plain concatenation.
	got = evalOK(t, nil, sf, "a\nb\n", "c\nd\n")
	if got != "a\nb\nc\nd\n" {
		t.Errorf("stitch first unequal = %q", got)
	}
	// Bare newline operand concatenates.
	if got := evalOK(t, nil, sf, "\n", "x\n"); got != "\nx\n" {
		t.Errorf("stitch newline = %q", got)
	}
	// Single-line operands.
	if got := evalOK(t, nil, sf, "b\n", "b\n"); got != "b\n" {
		t.Errorf("stitch single lines = %q", got)
	}
}

func TestStitch2(t *testing.T) {
	saf := Stitch2{D: ' ', B1: Add{}, B2: First{}}
	// The uniq -c case: equal words merge with summed, re-padded counts.
	y1 := "      3 apple\n      2 pear\n"
	y2 := "      4 pear\n      1 quince\n"
	got := evalOK(t, nil, saf, y1, y2)
	want := "      3 apple\n      6 pear\n      1 quince\n"
	if got != want {
		t.Errorf("stitch2 merge = %q, want %q", got, want)
	}
	// Different words: concatenation.
	got = evalOK(t, nil, saf, "      3 a\n", "      4 b\n")
	if got != "      3 a\n      4 b\n" {
		t.Errorf("stitch2 no-merge = %q", got)
	}
	// Padding re-alignment on overflow of the column.
	got = evalOK(t, nil, saf, " 999999 w\n", " 999999 w\n")
	if got != "1999998 w\n" {
		t.Errorf("stitch2 overflow = %q", got)
	}
}

func TestOffset(t *testing.T) {
	oa := Offset{D: ' ', B: Add{}}
	// Running line numbers: y2's numbers shifted by y1's last value.
	got := evalOK(t, nil, oa, "1 a\n2 b\n", "1 c\n2 d\n")
	if got != "1 a\n2 b\n3 c\n4 d\n" {
		t.Errorf("offset add = %q", got)
	}
	// offset first replaces every first field with the anchor.
	of := Offset{D: ' ', B: First{}}
	got = evalOK(t, nil, of, "5 x\n", "5 y\n5 z\n")
	if got != "5 x\n5 y\n5 z\n" {
		t.Errorf("offset first = %q", got)
	}
}

func TestRerunMerge(t *testing.T) {
	e := env(t, "sort -rn")
	r := evalOK(t, e, Rerun{}, "3\n1\n", "2\n")
	if r != "3\n2\n1\n" {
		t.Errorf("rerun sort -rn = %q", r)
	}
	m := evalOK(t, e, Merge{}, "3\n1\n", "2\n")
	if m != "3\n2\n1\n" {
		t.Errorf("merge -rn = %q", m)
	}
	if (Merge{}).InDomain(e, "1\n3\n") {
		t.Error("L(merge -rn) excludes ascending streams")
	}
	if _, err := (Merge{}).Eval(e, "1\n3\n", "2\n"); err == nil {
		t.Error("merge on unsorted operand should fail")
	}
}

func TestSizes(t *testing.T) {
	// Example 2 of the paper: |add| = 3, |fbfa| = 6, |saf| = 5.
	if (Add{}).Size() != 3 {
		t.Errorf("|add| = %d", (Add{}).Size())
	}
	fbfa := Front{D: '\n', B: Back{D: '\n', B: Fuse{D: '\n', B: Add{}}}}
	if fbfa.Size() != 6 {
		t.Errorf("|fbfa| = %d", fbfa.Size())
	}
	saf := Stitch2{D: ' ', B1: Add{}, B2: First{}}
	if saf.Size() != 5 {
		t.Errorf("|saf| = %d", saf.Size())
	}
}

func TestEnumerationCountsMatchPaper(t *testing.T) {
	// Table 10's search-space sizes, reproduced exactly (see DESIGN.md).
	cases := []struct {
		delims            []Delim
		rec, strct, total int
	}{
		{[]Delim{'\n'}, 968, 1728, 2700},
		{[]Delim{'\n', ' '}, 12440, 13960, 26404},
		{[]Delim{'\n', ' ', ','}, 59048, 51392, 110444},
	}
	for _, c := range cases {
		cands := Enumerate(DefaultMaxProductions, c.delims)
		s := Measure(cands)
		if s.Rec != c.rec || s.Struct != c.strct || s.Run != 4 || s.Total() != c.total {
			t.Errorf("delims=%d: got %d+%d+%d=%d, want %d+%d+4=%d",
				len(c.delims), s.Rec, s.Struct, s.Run, s.Total(), c.rec, c.strct, c.total)
		}
	}
}

func TestEnumerationDistinctStrings(t *testing.T) {
	cands := Enumerate(DefaultMaxProductions, []Delim{'\n'})
	seen := make(map[string]bool, len(cands))
	for _, c := range cands {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate candidate %s", s)
		}
		seen[s] = true
	}
}

// randStream builds a random stream of short lowercase lines.
func randStream(rng *rand.Rand, lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		n := 1 + rng.Intn(6)
		for j := 0; j < n; j++ {
			b.WriteByte(byte('a' + rng.Intn(4)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLemmaB1DelimPreservation: RecOp evaluation introduces no delimiter
// absent from both operands.
func TestLemmaB1DelimPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recOps, _ := enumerateOps(3, []Delim{','})
	for trial := 0; trial < 300; trial++ {
		op := recOps[rng.Intn(len(recOps))]
		y1 := strings.ReplaceAll(randStream(rng, 1+rng.Intn(2)), "\n", ",")
		y2 := strings.ReplaceAll(randStream(rng, 1+rng.Intn(2)), "\n", ",")
		// Pick a delimiter absent from both.
		const d = '\t'
		v, err := op.Eval(nil, y1, y2)
		if err != nil {
			continue
		}
		if strings.ContainsRune(v, d) {
			t.Fatalf("%s introduced delimiter: %q %q -> %q", op, y1, y2, v)
		}
	}
}

// TestLemmaB4Subadditivity: C(d, g(y1,y2)) <= C(d,y1) + C(d,y2) for RecOp.
func TestLemmaB4Subadditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recOps, _ := enumerateOps(3, []Delim{',', ' '})
	for trial := 0; trial < 500; trial++ {
		op := recOps[rng.Intn(len(recOps))]
		mk := func() string {
			n := 1 + rng.Intn(8)
			var b strings.Builder
			for i := 0; i < n; i++ {
				b.WriteByte([]byte("ab, 1")[rng.Intn(5)])
			}
			return b.String()
		}
		y1, y2 := mk(), mk()
		v, err := op.Eval(nil, y1, y2)
		if err != nil {
			continue
		}
		for _, d := range []byte{',', ' '} {
			if textio.CountByte(d, v) > textio.CountByte(d, y1)+textio.CountByte(d, y2) {
				t.Fatalf("%s increased delim count: %q %q -> %q", op, y1, y2, v)
			}
		}
	}
}

// TestLemmaB3FuseCounts: fuse preserves the element count of its operands.
func TestLemmaB3FuseCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := Fuse{D: ',', B: Concat{}}
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		mk := func() string {
			parts := make([]string, k)
			for i := range parts {
				parts[i] = strings.Repeat("x", 1+rng.Intn(3))
			}
			return strings.Join(parts, ",")
		}
		y1, y2 := mk(), mk()
		v, err := f.Eval(nil, y1, y2)
		if err != nil {
			t.Fatalf("fuse failed on %q %q: %v", y1, y2, err)
		}
		if textio.CountByte(',', v) != k-1 {
			t.Fatalf("fuse changed element count: %q", v)
		}
	}
}

// TestCombinerCorrectness checks f(x1 ++ x2) = g(f(x1), f(x2)) on random
// splits for the known correct (command, combiner) pairs from §3.4.
func TestCombinerCorrectness(t *testing.T) {
	cases := []struct {
		spec string
		c    Candidate
	}{
		{"wc -l", Candidate{Op: Back{D: '\n', B: Add{}}}},
		{"grep -c a", Candidate{Op: Back{D: '\n', B: Add{}}}},
		{"uniq", Candidate{Op: Stitch{B: First{}}}},
		{"uniq -c", Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}}},
		{"sort", Candidate{Op: Merge{}}},
		{"sort -rn", Candidate{Op: Merge{}}},
		{"sort", Candidate{Op: Rerun{}}},
		{"tr a-z A-Z", Candidate{Op: Concat{}}},
		{`tr -cs a-z '\n'`, Candidate{Op: Rerun{}}},
		{"cut -c 1-2", Candidate{Op: Concat{}}},
		{"head -n 3", Candidate{Op: Rerun{}}},
	}
	rng := rand.New(rand.NewSource(23))
	for _, tc := range cases {
		e := env(t, tc.spec)
		cmd, _ := unix.Parse(tc.spec, unix.DefaultEnv())
		for trial := 0; trial < 60; trial++ {
			x := randStream(rng, 1+rng.Intn(8))
			// Split at a random line boundary.
			lines := textio.Lines(x)
			cut := rng.Intn(len(lines) + 1)
			x1 := textio.JoinLines(lines[:cut])
			x2 := textio.JoinLines(lines[cut:])
			if x1 == "" || x2 == "" {
				continue
			}
			y1, err1 := cmd.Run(x1)
			y2, err2 := cmd.Run(x2)
			y12, err12 := cmd.Run(x1 + x2)
			if err1 != nil || err2 != nil || err12 != nil {
				t.Fatalf("%s: command error", tc.spec)
			}
			if !tc.c.Plausible(e, y1, y2, y12) {
				got, err := tc.c.Eval(e, y1, y2)
				t.Fatalf("%s with %s: f(x1++x2)=%q but g=%q (err=%v) [x1=%q x2=%q]",
					tc.spec, tc.c, y12, got, err, x1, x2)
			}
		}
	}
}

func TestCombineKStrategies(t *testing.T) {
	e := env(t, "sort")
	// Simultaneous merge of k streams.
	got, err := CombineK(e, Candidate{Op: Merge{}}, []string{"b\n", "a\nc\n", "", "b\n"})
	if err != nil || got != "a\nb\nb\nc\n" {
		t.Errorf("CombineK merge = %q, %v", got, err)
	}
	// Concat joins in order; swapped concat reverses.
	got, _ = CombineK(nil, Candidate{Op: Concat{}}, []string{"1\n", "2\n", "3\n"})
	if got != "1\n2\n3\n" {
		t.Errorf("CombineK concat = %q", got)
	}
	got, _ = CombineK(nil, Candidate{Op: Concat{}, Swap: true}, []string{"1\n", "2\n", "3\n"})
	if got != "3\n2\n1\n" {
		t.Errorf("CombineK swapped concat = %q", got)
	}
	// Rerun concatenates all and reruns once.
	e2 := env(t, "sort -n")
	got, err = CombineK(e2, Candidate{Op: Rerun{}}, []string{"3\n1\n", "2\n"})
	if err != nil || got != "1\n2\n3\n" {
		t.Errorf("CombineK rerun = %q, %v", got, err)
	}
	// Pairwise fold for structured combiners.
	got, err = CombineK(nil, Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}},
		[]string{"      2 a\n", "      3 a\n", "      1 b\n"})
	if err != nil || got != "      5 a\n      1 b\n" {
		t.Errorf("CombineK stitch2 fold = %q, %v", got, err)
	}
	// Pairwise ablation agrees with CombineK on fold-style combiners.
	gotP, _ := CombineKPairwise(nil, Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}},
		[]string{"      2 a\n", "      3 a\n", "      1 b\n"})
	if gotP != got {
		t.Errorf("CombineKPairwise differs: %q vs %q", gotP, got)
	}
}

func TestCombineKAgreesWithSerial(t *testing.T) {
	// k-way combination must reproduce the serial output for random splits.
	rng := rand.New(rand.NewSource(31))
	specs := []struct {
		spec string
		c    Candidate
	}{
		{"sort", Candidate{Op: Merge{}}},
		{"wc -l", Candidate{Op: Back{D: '\n', B: Add{}}}},
		{"uniq -c", Candidate{Op: Stitch2{D: ' ', B1: Add{}, B2: First{}}}},
		{"grep a", Candidate{Op: Concat{}}},
	}
	for _, tc := range specs {
		e := env(t, tc.spec)
		cmd, _ := unix.Parse(tc.spec, unix.DefaultEnv())
		for trial := 0; trial < 40; trial++ {
			x := randStream(rng, 2+rng.Intn(20))
			k := 2 + rng.Intn(6)
			chunks := textio.ChunkLines(x, k)
			outs := make([]string, len(chunks))
			for i, ch := range chunks {
				outs[i], _ = cmd.Run(ch)
			}
			want, _ := cmd.Run(x)
			got, err := CombineK(e, tc.c, outs)
			if err != nil || got != want {
				t.Fatalf("%s k=%d: CombineK=%q (err=%v), serial=%q", tc.spec, k, got, err, want)
			}
		}
	}
}

func TestCandidateStringFormat(t *testing.T) {
	c := Candidate{Op: Back{D: '\n', B: Add{}}}
	if c.String() != `(back '\n' add a b)` {
		t.Errorf("String = %q", c.String())
	}
	c2 := Candidate{Op: Back{D: '\n', B: Add{}}, Swap: true}
	if c2.String() != `(back '\n' add b a)` {
		t.Errorf("swapped String = %q", c2.String())
	}
}
