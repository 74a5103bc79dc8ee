package synth

import (
	"math/rand"
	"strings"
	"testing"

	"kumquat/internal/dsl"
	"kumquat/internal/shape"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// TestTable2Predicates checks the E(g, Y) definitions on hand-built
// observation sets.
func TestTable2Predicates(t *testing.T) {
	if EAdd([]Observation{{Y1: "0", Y2: "0"}}) {
		t.Error("EAdd should require nonzero operands somewhere")
	}
	if !EAdd([]Observation{{Y1: "0", Y2: "3"}, {Y1: "5", Y2: "0"}}) {
		t.Error("EAdd satisfied by nonzero y1 and y2 across observations")
	}
	if EConcat([]Observation{{Y1: "a", Y2: ""}}) {
		t.Error("EConcat should require nonempty y2 somewhere")
	}
	if !EConcat([]Observation{{Y1: "a", Y2: ""}, {Y1: "", Y2: "b"}}) {
		t.Error("EConcat satisfied across observations")
	}
	if EFirst([]Observation{{Y1: "x", Y2: "x"}}) {
		t.Error("EFirst needs y1 != y2 somewhere")
	}
	if !EFirst([]Observation{{Y1: "x", Y2: "y"}}) {
		t.Error("EFirst satisfied by differing non-trivial outputs")
	}
	if EFirst([]Observation{{Y1: "x", Y2: "0"}}) {
		t.Error("EFirst needs a non-delimiter non-zero character in y2")
	}
	if !ESecond([]Observation{{Y1: "y", Y2: "0"}}) {
		t.Error("ESecond satisfied by differing outputs with a non-trivial y1")
	}
	if ESecond([]Observation{{Y1: "0", Y2: "x"}}) {
		t.Error("ESecond needs a non-delimiter non-zero character in y1")
	}
	if !ERec([]Observation{{Y1: "x", Y2: "x"}, {Y1: "0", Y2: "y"}}) {
		t.Error("ERec satisfied across observations by differing outputs and non-trivial y1 and y2")
	}
	if ERec([]Observation{{Y1: "x", Y2: "x"}}) {
		t.Error("ERec needs y1 != y2 somewhere")
	}
	if !EBackAdd('\n', []Observation{{Y1: "2\n", Y2: "3\n", Y12: "5\n"}}) {
		t.Error("EBackAdd satisfied by wc-style outputs")
	}
	if EBackAdd('\n', []Observation{{Y1: "0\n", Y2: "0\n", Y12: "0\n"}}) {
		t.Error("EBackAdd should reject all-zero counts")
	}
	if !EStitchFirst([]Observation{{Y1: "a\nword\n", Y2: "word\nb\n"}}) {
		t.Error("EStitchFirst satisfied by equal non-trivial boundary lines")
	}
	if EStitchFirst([]Observation{{Y1: "a\nx\n", Y2: "y\nb\n"}}) {
		t.Error("EStitchFirst needs equal boundary lines")
	}
	if !EStitch2AddFirst(' ', []Observation{{Y1: "      2 pear\n", Y2: "      3 pear\n"}}) {
		t.Error("EStitch2AddFirst satisfied by uniq -c style boundary merge")
	}
	if EStitch2AddFirst(' ', []Observation{{Y1: "      2 pear\n", Y2: "      3 plum\n"}}) {
		t.Error("EStitch2AddFirst needs matching tails")
	}
}

// TestTheorem2Property is the executable form of Theorem 2: when the
// observations satisfy E_rec(Y) and E(g, Y) for the known-correct RecOp
// combiner g, every surviving RecOp candidate agrees with g on the
// observed outputs (equivalence by intersection, checked empirically).
func TestTheorem2Property(t *testing.T) {
	cases := []struct {
		spec    string
		correct dsl.Candidate
	}{
		{"wc -l", dsl.Candidate{Op: dsl.Back{D: '\n', B: dsl.Add{}}}},
		{"tr A-Z a-z", dsl.Candidate{Op: dsl.Concat{}}},
		{"cut -c 1-3", dsl.Candidate{Op: dsl.Concat{}}},
	}
	gen := shape.New(17)
	for _, tc := range cases {
		cmd, err := unix.Parse(tc.spec, unix.DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		env := &dsl.Env{RunF: cmd.Run}
		// Collect observations.
		var obs []Observation
		for i := 0; i < 40; i++ {
			x1, x2 := gen.StreamPair(shape.Seed())
			y1, e1 := cmd.Run(x1)
			y2, e2 := cmd.Run(x2)
			y12, e3 := cmd.Run(x1 + x2)
			if e1 != nil || e2 != nil || e3 != nil {
				continue
			}
			obs = append(obs, Observation{Y1: y1, Y2: y2, Y12: y12})
		}
		if !SufficientForClass(tc.correct, obs) {
			t.Fatalf("%s: observations do not satisfy E(g, Y); cannot apply Theorem 2", tc.spec)
		}
		// Filter RecOp candidates and check pairwise agreement with g on
		// the observations (the ≡∩ consequence of Theorem 2).
		recOps, _ := dsl.EnumerateOps(dsl.DefaultMaxProductions, []dsl.Delim{'\n', ' '})
		var survivors []dsl.Candidate
		for _, op := range recOps {
			for _, swap := range []bool{false, true} {
				c := dsl.Candidate{Op: op, Swap: swap}
				ok := true
				for _, o := range obs {
					if !c.Plausible(env, o.Y1, o.Y2, o.Y12) {
						ok = false
						break
					}
				}
				if ok {
					survivors = append(survivors, c)
				}
			}
		}
		if len(survivors) == 0 {
			t.Fatalf("%s: correct combiner eliminated", tc.spec)
		}
		for _, s := range survivors {
			for _, o := range obs {
				if !s.InDomain(env, o.Y1, o.Y2) || !tc.correct.InDomain(env, o.Y1, o.Y2) {
					continue
				}
				v1, err1 := s.Eval(env, o.Y1, o.Y2)
				v2, err2 := tc.correct.Eval(env, o.Y1, o.Y2)
				if err1 != nil || err2 != nil || v1 != v2 {
					t.Fatalf("%s: survivor %s disagrees with %s on shared domain: %q vs %q",
						tc.spec, s, tc.correct, v1, v2)
				}
			}
		}
	}
}

// TestSufficiencyOfRealRuns certifies that actual synthesis runs collect
// sufficient observations per Table 2 for the canonical commands: replays
// the run's input generation and checks E(g, Y).
func TestSufficiencyOfRealRuns(t *testing.T) {
	cases := []struct {
		spec string
		g    dsl.Candidate
	}{
		{"wc -l", dsl.Candidate{Op: dsl.Back{D: '\n', B: dsl.Add{}}}},
		{"uniq", dsl.Candidate{Op: dsl.Stitch{B: dsl.First{}}}},
		{"uniq -c", dsl.Candidate{Op: dsl.Stitch2{D: ' ', B1: dsl.Add{}, B2: dsl.First{}}}},
		{"tr A-Z a-z", dsl.Candidate{Op: dsl.Concat{}}},
	}
	for _, tc := range cases {
		cmd, err := unix.Parse(tc.spec, unix.DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		gen := shape.New(91)
		gen.WordDict = nil
		var obs []Observation
		rng := rand.New(rand.NewSource(5))
		s := shape.Seed()
		for i := 0; i < 60; i++ {
			if i%10 == 9 {
				s = shape.Mutate(s, rng.Intn(shape.NumMutations))
			}
			x1, x2 := gen.StreamPair(s)
			y1, e1 := cmd.Run(x1)
			y2, e2 := cmd.Run(x2)
			y12, e3 := cmd.Run(x1 + x2)
			if e1 != nil || e2 != nil || e3 != nil {
				continue
			}
			obs = append(obs, Observation{Y1: y1, Y2: y2, Y12: y12})
		}
		if !SufficientForClass(tc.g, obs) {
			t.Errorf("%s: mutation-driven observations insufficient per Table 2", tc.spec)
		}
	}
}

// TestExample1Equivalences checks the paper's Example 1:
// (front d concat) ≡∩ (back d concat) and
// (stitch2 d first first) ≡∩ (stitch first).
func TestExample1Equivalences(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fc := dsl.Candidate{Op: dsl.Front{D: ',', B: dsl.Concat{}}}
	bc := dsl.Candidate{Op: dsl.Back{D: ',', B: dsl.Concat{}}}
	for i := 0; i < 300; i++ {
		y1 := "," + randToken(rng) + ","
		y2 := "," + randToken(rng) + ","
		if !fc.InDomain(nil, y1, y2) || !bc.InDomain(nil, y1, y2) {
			continue
		}
		v1, e1 := fc.Eval(nil, y1, y2)
		v2, e2 := bc.Eval(nil, y1, y2)
		if e1 != nil || e2 != nil || v1 != v2 {
			t.Fatalf("front/back concat disagree on %q %q: %q vs %q", y1, y2, v1, v2)
		}
	}
	// Example 1's second claim, (stitch2 d first first) ≡∩ (stitch first),
	// holds except when the boundary lines' tails match while their heads
	// differ: stitch2 then merges (comparing tails only) where stitch
	// concatenates (comparing whole lines). The paper's equivalence is
	// over the inputs its theorems quantify over, which exclude that case;
	// we check agreement on the rest and assert the disagreement exists —
	// an executable record of the edge.
	sf := dsl.Candidate{Op: dsl.Stitch{B: dsl.First{}}}
	s2ff := dsl.Candidate{Op: dsl.Stitch2{D: ' ', B1: dsl.First{}, B2: dsl.First{}}}
	tailsMatchHeadsDiffer := func(y1, y2 string) bool {
		_, l1, ok1 := textio.SplitLastLine(y1)
		l2, _, ok2 := textio.SplitFirstLine(y2)
		if !ok1 || !ok2 {
			return false
		}
		_, h1, t1, okf1 := textio.FieldPad(' ', l1)
		_, h2, t2, okf2 := textio.FieldPad(' ', l2)
		return okf1 && okf2 && t1 == t2 && h1 != h2
	}
	sawEdge := false
	for i := 0; i < 500; i++ {
		y1 := randTable(rng)
		y2 := randTable(rng)
		if !sf.InDomain(nil, y1, y2) || !s2ff.InDomain(nil, y1, y2) {
			continue
		}
		v1, e1 := sf.Eval(nil, y1, y2)
		v2, e2 := s2ff.Eval(nil, y1, y2)
		if e1 != nil || e2 != nil {
			t.Fatalf("eval failed on %q %q: %v %v", y1, y2, e1, e2)
		}
		if tailsMatchHeadsDiffer(y1, y2) {
			if v1 != v2 {
				sawEdge = true
			}
			continue
		}
		if v1 != v2 {
			t.Fatalf("stitch-first/stitch2-first-first disagree on %q %q: %q vs %q", y1, y2, v1, v2)
		}
	}
	if !sawEdge {
		t.Log("note: edge case (tails match, heads differ) not sampled this run")
	}
}

func randToken(rng *rand.Rand) string {
	return randWordN(rng, 1+rng.Intn(4))
}

func randWordN(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(3))
	}
	return string(b)
}

// randTable builds an unpadded two-field table stream ("h t" lines).
func randTable(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(randWordN(rng, 1+rng.Intn(2)))
		b.WriteByte(' ')
		b.WriteString(randWordN(rng, 1+rng.Intn(2)))
		b.WriteByte('\n')
	}
	return b.String()
}
