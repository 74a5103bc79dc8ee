package dsl

import (
	"strings"
	"testing"
	"testing/quick"

	"kumquat/internal/textio"
)

// Property-based tests (testing/quick) for the DSL's algebraic structure,
// complementing the per-rule tests in dsl_test.go.

// sanitize maps arbitrary quick-generated strings into delimiter-free
// tokens over a small alphabet.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteByte(byte('a' + int(r)%4))
	}
	return b.String()
}

func digits(s string) string {
	var b strings.Builder
	b.WriteByte('1') // nonempty, no leading-zero ambiguity
	for _, r := range s {
		b.WriteByte(byte('0' + int(r)%10))
	}
	return b.String()
}

// TestAddCommutative: add y1 y2 == add y2 y1 on L(add).
func TestAddCommutative(t *testing.T) {
	f := func(a, b string) bool {
		y1, y2 := digits(a), digits(b)
		v1, e1 := (Add{}).Eval(nil, y1, y2)
		v2, e2 := (Add{}).Eval(nil, y2, y1)
		return e1 == nil && e2 == nil && v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddAssociative: (a+b)+c == a+(b+c).
func TestAddAssociative(t *testing.T) {
	f := func(a, b, c string) bool {
		x, y, z := digits(a), digits(b), digits(c)
		xy, _ := (Add{}).Eval(nil, x, y)
		l, e1 := (Add{}).Eval(nil, xy, z)
		yz, _ := (Add{}).Eval(nil, y, z)
		r, e2 := (Add{}).Eval(nil, x, yz)
		return e1 == nil && e2 == nil && l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFrontBackRoundTrip: wrapping operands with a delimiter and applying
// front/back recovers the inner operator's result, re-wrapped.
func TestFrontBackRoundTrip(t *testing.T) {
	f := func(a, b string) bool {
		y1, y2 := sanitize(a), sanitize(b)
		inner, err := (Concat{}).Eval(nil, y1, y2)
		if err != nil {
			return false
		}
		fr, e1 := (Front{D: ',', B: Concat{}}).Eval(nil, ","+y1, ","+y2)
		bk, e2 := (Back{D: ',', B: Concat{}}).Eval(nil, y1+",", y2+",")
		return e1 == nil && e2 == nil && fr == ","+inner && bk == inner+","
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFuseElementwise: fuse d b on equal-length element lists applies b
// pairwise — verified against a direct elementwise computation.
func TestFuseElementwise(t *testing.T) {
	f := func(raw []string, k uint8) bool {
		n := int(k)%4 + 2
		e1 := make([]string, n)
		e2 := make([]string, n)
		for i := 0; i < n; i++ {
			var s string
			if i < len(raw) {
				s = raw[i]
			}
			e1[i] = "x" + sanitize(s)
			e2[i] = "y" + sanitize(s)
		}
		y1 := strings.Join(e1, ",")
		y2 := strings.Join(e2, ",")
		got, err := (Fuse{D: ',', B: Concat{}}).Eval(nil, y1, y2)
		if err != nil {
			return false
		}
		want := make([]string, n)
		for i := range want {
			want[i] = e1[i] + e2[i]
		}
		return got == strings.Join(want, ",")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStitchPreservesStreams: stitch output is always a stream whose lines
// come from its operands (possibly with one merged boundary line).
func TestStitchPreservesStreams(t *testing.T) {
	f := func(a, b []string) bool {
		mk := func(raw []string) string {
			lines := make([]string, 0, len(raw)+1)
			for _, l := range raw {
				lines = append(lines, sanitize(l))
			}
			if len(lines) == 0 {
				lines = []string{"z"}
			}
			return textio.JoinLines(lines)
		}
		y1, y2 := mk(a), mk(b)
		v, err := (Stitch{B: First{}}).Eval(nil, y1, y2)
		if err != nil {
			return false
		}
		if !textio.IsStream(v) {
			return false
		}
		n1, n2, nv := len(textio.Lines(y1)), len(textio.Lines(y2)), len(textio.Lines(v))
		return nv == n1+n2 || nv == n1+n2-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCombineKConcatIsJoin: the k-way concat combine equals strings.Join.
func TestCombineKConcatIsJoin(t *testing.T) {
	f := func(raw []string) bool {
		outs := make([]string, len(raw))
		var want strings.Builder
		for i, r := range raw {
			s := sanitize(r)
			if s != "" {
				s += "\n"
			}
			outs[i] = s
			want.WriteString(s)
		}
		got, err := CombineK(nil, Candidate{Op: Concat{}}, outs)
		return err == nil && got == want.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOffsetShiftComposes: combining three numbered substreams pairwise
// with (offset ' ' add) yields globally consecutive numbering.
func TestOffsetShiftComposes(t *testing.T) {
	mk := func(n int) string {
		var b strings.Builder
		for i := 1; i <= n; i++ {
			b.WriteString(strings.Repeat(" ", 0))
			b.WriteString(intToStr(i))
			b.WriteString(" w\n")
		}
		return b.String()
	}
	c := Candidate{Op: Offset{D: ' ', B: Add{}}}
	got, err := CombineK(nil, c, []string{mk(2), mk(3), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := "1 w\n2 w\n3 w\n4 w\n5 w\n6 w\n"
	if got != want {
		t.Errorf("offset add fold = %q, want %q", got, want)
	}
}

func intToStr(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

// TestDomainEvalConsistency: whenever both operands are in L(g) for the
// size-≤-4 operators over a small delimiter set, Eval must not fail.
func TestDomainEvalConsistency(t *testing.T) {
	recOps, structOps := enumerateOps(3, []Delim{','})
	ops := append(append([]Op{}, recOps...), structOps...)
	f := func(a, b string, opIdx uint16) bool {
		op := ops[int(opIdx)%len(ops)]
		y1 := sanitize(a)
		y2 := sanitize(b)
		// Give structured ops stream-shaped operands half the time.
		if int(opIdx)%2 == 0 {
			y1 += "\n"
			y2 += "\n"
		}
		if !op.InDomain(nil, y1) || !op.InDomain(nil, y2) {
			return true // vacuous
		}
		_, err := op.Eval(nil, y1, y2)
		if err != nil {
			// The only legal failure is fuse's element-count mismatch,
			// which is a property of the *pair*, not of each operand.
			return strings.Contains(err.Error(), "element counts differ")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMeasureConsistency: Measure agrees with direct classification.
func TestMeasureConsistency(t *testing.T) {
	cands := Enumerate(4, []Delim{'\n', ' '})
	s := Measure(cands)
	if s.Total() != len(cands) {
		t.Errorf("Measure total %d != %d", s.Total(), len(cands))
	}
	if s.Run != 4 {
		t.Errorf("RunOp count = %d, want 4", s.Run)
	}
}
