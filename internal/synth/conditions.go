package synth

import (
	"strings"

	"kumquat/internal/dsl"
	"kumquat/internal/textio"
)

// This file implements the paper's Table 2 / Appendix B sufficiency
// predicates: E(g, Y) is a conservative condition on a set of observations
// Y under which Theorems 1–4 guarantee that every surviving candidate of
// g's class is equivalent-by-intersection to the correct combiner g.
// The synthesizer does not need these predicates to operate (it filters by
// plausibility alone); they let the Theorem 2 and Theorem 4 tests
// *certify* that a run collected sufficient observations, reproducing the
// paper's theory section executably.

// nonTrivialByte reports whether c is outside Delim ∪ {'0'} — Table 2's
// "non-delimiter and non-zero characters" requirement for selection
// operators.
func nonTrivialByte(c byte) bool {
	switch c {
	case '\n', '\t', ' ', ',', '0':
		return false
	}
	return true
}

func hasNonTrivialByte(s string) bool {
	for i := 0; i < len(s); i++ {
		if nonTrivialByte(s[i]) {
			return true
		}
	}
	return false
}

func allZeros(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// eAdd is E(g_a, Y): some observation has y1 not all zeros, and some has
// y2 not all zeros (Table 2, row add).
func eAdd(obs []Observation) bool {
	var y1ok, y2ok bool
	for _, o := range obs {
		if !allZeros(o.Y1) {
			y1ok = true
		}
		if !allZeros(o.Y2) {
			y2ok = true
		}
	}
	return y1ok && y2ok
}

// eConcat is E(g_c, Y): some observation has nonempty y1, and some has
// nonempty y2 (Table 2, row concat).
func eConcat(obs []Observation) bool {
	var y1ok, y2ok bool
	for _, o := range obs {
		if o.Y1 != "" {
			y1ok = true
		}
		if o.Y2 != "" {
			y2ok = true
		}
	}
	return y1ok && y2ok
}

// eFirst is E(g_f, Y): some observation has y1 ≠ y2, and some observation's
// y2 contains a non-delimiter, non-zero character (Table 2, row first).
func eFirst(obs []Observation) bool {
	var differ, nontrivial bool
	for _, o := range obs {
		if o.Y1 != o.Y2 {
			differ = true
		}
		if hasNonTrivialByte(o.Y2) {
			nontrivial = true
		}
	}
	return differ && nontrivial
}

// eSecond is E(g_s, Y), symmetric to eFirst.
func eSecond(obs []Observation) bool {
	var differ, nontrivial bool
	for _, o := range obs {
		if o.Y1 != o.Y2 {
			differ = true
		}
		if hasNonTrivialByte(o.Y1) {
			nontrivial = true
		}
	}
	return differ && nontrivial
}

// eBackAdd is E(g_ba, Y) for (back d add): eAdd over the observations with
// the trailing delimiter stripped (Table 2, row back-add).
func eBackAdd(d dsl.Delim, obs []Observation) bool {
	var stripped []Observation
	for _, o := range obs {
		ds := string(byte(d))
		if strings.HasSuffix(o.Y1, ds) && strings.HasSuffix(o.Y2, ds) && strings.HasSuffix(o.Y12, ds) {
			stripped = append(stripped, Observation{
				Y1:  strings.TrimSuffix(o.Y1, ds),
				Y2:  strings.TrimSuffix(o.Y2, ds),
				Y12: strings.TrimSuffix(o.Y12, ds),
			})
		}
	}
	return eAdd(stripped)
}

// eRec is E_rec(Y) (Definition B.13): sufficient for eliminating incorrect
// candidates whenever the correct combiner lies in G_rec. Requires an
// observation with y1 ≠ y2, and non-trivial characters in some y1 and some
// y2.
func eRec(obs []Observation) bool {
	var differ, c1, c2 bool
	for _, o := range obs {
		if o.Y1 != o.Y2 {
			differ = true
		}
		if hasNonTrivialByte(o.Y1) {
			c1 = true
		}
		if hasNonTrivialByte(o.Y2) {
			c2 = true
		}
	}
	return differ && c1 && c2
}

// eStitchFirst is E(g_sf, Y) condition (1) (Table 2, row stitch-first):
// some observation where y1's last line equals y2's first line and that
// line starts (after padding) and ends with non-trivial characters.
func eStitchFirst(obs []Observation) bool {
	for _, o := range obs {
		_, l1, ok1 := textio.SplitLastLine(o.Y1)
		l2, _, ok2 := textio.SplitFirstLine(o.Y2)
		if !ok1 || !ok2 || l1 != l2 || l1 == "" {
			continue
		}
		_, depadded := textio.DelPad(l1)
		if depadded == "" {
			continue
		}
		if nonTrivialByte(depadded[0]) && nonTrivialByte(l1[len(l1)-1]) {
			return true
		}
	}
	return false
}

// eStitch2AddFirst is E(g_saf, Y) (Table 2, row stitch2-add-first): an
// observation whose boundary lines share their tail with non-trivial
// leading and trailing characters.
func eStitch2AddFirst(d dsl.Delim, obs []Observation) bool {
	for _, o := range obs {
		_, l1, ok1 := textio.SplitLastLine(o.Y1)
		l2, _, ok2 := textio.SplitFirstLine(o.Y2)
		if !ok1 || !ok2 {
			continue
		}
		_, _, t1, okf1 := textio.FieldPad(byte(d), l1)
		_, _, t2, okf2 := textio.FieldPad(byte(d), l2)
		if !okf1 || !okf2 || t1 != t2 || t1 == "" {
			continue
		}
		if nonTrivialByte(t1[0]) && nonTrivialByte(t1[len(t1)-1]) {
			return true
		}
	}
	return false
}

// sufficientForClass reports whether the observations satisfy the
// class-level sufficiency predicate for the given representative combiner,
// dispatching on the candidate's operator shape. It returns false (i.e.
// "cannot certify") for operators outside G_rec ∪ G_struct.
func sufficientForClass(c dsl.Candidate, obs []Observation) bool {
	switch op := c.Op.(type) {
	case dsl.Add:
		return eAdd(obs)
	case dsl.Concat:
		return eConcat(obs)
	case dsl.First:
		return eFirst(obs)
	case dsl.Second:
		return eSecond(obs)
	case dsl.Back:
		if _, ok := op.B.(dsl.Add); ok {
			return eBackAdd(op.D, obs)
		}
	case dsl.Stitch:
		if _, ok := op.B.(dsl.First); ok {
			return eStitchFirst(obs)
		}
	case dsl.Stitch2:
		_, okAdd := op.B1.(dsl.Add)
		_, okFirst := op.B2.(dsl.First)
		if okAdd && okFirst {
			return eStitch2AddFirst(op.D, obs)
		}
	}
	return false
}
