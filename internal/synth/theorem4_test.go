package synth

import (
	"testing"

	"kumquat/internal/dsl"
	"kumquat/internal/shape"
	"kumquat/internal/unix"
)

// TestTheorem4Property is the executable form of Theorems 3/4: for commands
// whose correct combiner lies in G_struct (uniq → stitch first, uniq -c →
// stitch2 ' ' add first), once the observations satisfy E(g, Y), every
// surviving StructOp candidate agrees with the correct combiner on the
// observations' shared domain.
func TestTheorem4Property(t *testing.T) {
	cases := []struct {
		spec       string
		correct    dsl.Candidate
		sufficient func([]Observation) bool
	}{
		{
			spec:       "uniq",
			correct:    dsl.Candidate{Op: dsl.Stitch{B: dsl.First{}}},
			sufficient: eStitchFirst,
		},
		{
			spec:    "uniq -c",
			correct: dsl.Candidate{Op: dsl.Stitch2{D: ' ', B1: dsl.Add{}, B2: dsl.First{}}},
			sufficient: func(obs []Observation) bool {
				return eStitch2AddFirst(' ', obs)
			},
		},
	}
	for _, tc := range cases {
		cmd, err := unix.Parse(tc.spec, unix.DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		env := &dsl.Env{RunF: cmd.Run}
		// Generate observations with low line-distinctness so duplicate
		// boundary lines (the stitch-exercising shape) occur.
		gen := shape.New(29)
		s := shape.Seed()
		s.Lines = shape.Config{Min: 2, Max: 6, Distinct: 30}
		s.Words = shape.Config{Min: 1, Max: 2, Distinct: 40}
		var obs []Observation
		for i := 0; i < 120; i++ {
			x1, x2 := gen.StreamPair(s)
			y1, e1 := cmd.Run(x1)
			y2, e2 := cmd.Run(x2)
			y12, e3 := cmd.Run(x1 + x2)
			if e1 != nil || e2 != nil || e3 != nil {
				continue
			}
			obs = append(obs, Observation{Y1: y1, Y2: y2, Y12: y12})
		}
		if !tc.sufficient(obs) {
			t.Fatalf("%s: observations insufficient per Table 2; cannot apply Theorem 4", tc.spec)
		}
		// Survivor set over StructOp.
		var survivors []dsl.Candidate
		for _, c := range dsl.Enumerate(dsl.DefaultMaxProductions, []dsl.Delim{'\n', ' '}) {
			if c.Class() != dsl.StructOpClass {
				continue
			}
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
		if len(survivors) == 0 {
			t.Fatalf("%s: correct StructOp combiner eliminated", tc.spec)
		}
		// Theorem 4's conclusion: survivors ≡∩ the correct combiner —
		// checked on every observation in the shared domain.
		for _, sv := range survivors {
			for _, o := range obs {
				if !sv.InDomain(env, o.Y1, o.Y2) || !tc.correct.InDomain(env, o.Y1, o.Y2) {
					continue
				}
				v1, e1 := sv.Eval(env, o.Y1, o.Y2)
				v2, e2 := tc.correct.Eval(env, o.Y1, o.Y2)
				if e1 != nil || e2 != nil || v1 != v2 {
					t.Fatalf("%s: survivor %s disagrees with %s: %q vs %q (err %v/%v)",
						tc.spec, sv, tc.correct, v1, v2, e1, e2)
				}
			}
		}
		// The correct combiner itself must be among the survivors
		// (Proposition B.6).
		found := false
		for _, sv := range survivors {
			if sv.String() == tc.correct.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: correct combiner %s not among survivors", tc.spec, tc.correct)
		}
	}
}
