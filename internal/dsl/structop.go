package dsl

import (
	"strings"

	"kumquat/internal/textio"
)

// lineFields splits a table line into its padding, first field and tail.
// The padding is zero or more spaces, or a single tab (Definition B.1's
// p ∈ [' '+ | '\t'], relaxed to allow unpadded first fields so the same
// operators cover unpadded tables such as xargs wc -l output).
func lineFields(d Delim, line string) (pad textio.Pad, head, tail string, ok bool) {
	return textio.FieldPad(byte(d), line)
}

// Stitch compares y1's last line with y2's first line and merges them with B
// when equal (the uniq combiner: stitch first). L(stitch b): newline-
// terminated streams whose lines lie in L(b), plus the bare "\n".
type Stitch struct {
	B Op
}

// Class returns StructOpClass.
func (s Stitch) Class() Class { return StructOpClass }

// Size is |g| per Definition 3.6.
func (s Stitch) Size() int { return 1 + s.B.Size() }

// String renders the operator in the DSL's textual form.
func (s Stitch) String() string { return "stitch " + s.B.String() }

// InDomain reports y ∈ L(stitch) per Definition B.1. The structured
// domains walk the stream newline to newline in place and allocate
// nothing: the synthesizer checks them for every candidate on every
// observation, and the composite combiner on every substream.
func (s Stitch) InDomain(env *Env, y string) bool {
	if !textio.IsStream(y) {
		return false
	}
	for rest := y; rest != ""; {
		var line string
		line, rest, _ = textio.SplitFirstLine(rest)
		if !s.B.InDomain(env, line) {
			return false
		}
	}
	return true
}

// Eval treats a bare "\n" as a stream with one empty line rather than
// special-casing it to concatenation as Figure 6 does: the uniform rule is
// what makes (stitch first) correct for uniq when an operand consists of
// empty lines only, matching the synthesis results in the paper's Table 10.
func (s Stitch) Eval(env *Env, y1, y2 string) (string, error) {
	rest1, l1, ok1 := textio.SplitLastLine(y1)
	l2, rest2, ok2 := textio.SplitFirstLine(y2)
	if !ok1 || !ok2 {
		return "", evalErr(s, "operand is not a stream")
	}
	if l1 != l2 {
		return y1 + y2, nil
	}
	v, err := s.B.Eval(env, l1, l2)
	if err != nil {
		return "", err
	}
	return rest1 + v + "\n" + rest2, nil
}

// Stitch2 is the table-aware stitch: it compares the tails (content after
// the first D-separated field, with padding removed) of y1's last line and
// y2's first line; on a match it merges the first fields with B1 and the
// tails with B2, re-padding to preserve column alignment. (stitch2 ' ' add
// first) is the paper's combiner for uniq -c.
type Stitch2 struct {
	D      Delim
	B1, B2 Op
}

// Class returns StructOpClass.
func (s Stitch2) Class() Class { return StructOpClass }

// Size per Definition 3.6: 2 + productions; stitch2 contributes one
// production on top of its two children's (|stitch2 d add first| = 5).
func (s Stitch2) Size() int { return s.B1.Size() + s.B2.Size() - 1 }

// String renders the operator in the DSL's textual form.
func (s Stitch2) String() string {
	return "stitch2 " + s.D.String() + " " + s.B1.String() + " " + s.B2.String()
}

// InDomain reports y ∈ L(stitch2) per Definition B.1, walking the
// stream's lines in place.
func (s Stitch2) InDomain(env *Env, y string) bool {
	if !textio.IsStream(y) {
		return false
	}
	for rest := y; rest != ""; {
		var line string
		line, rest, _ = textio.SplitFirstLine(rest)
		_, head, tail, ok := lineFields(s.D, line)
		if !ok {
			return false
		}
		if !s.B1.InDomain(env, head) || !s.B2.InDomain(env, tail) {
			return false
		}
	}
	return true
}

// Eval applies stitch2 per Figure 6's big-step semantics.
func (s Stitch2) Eval(env *Env, y1, y2 string) (string, error) {
	rest1, l1, ok1 := textio.SplitLastLine(y1)
	l2, rest2, ok2 := textio.SplitFirstLine(y2)
	if !ok1 || !ok2 {
		return "", evalErr(s, "operand is not a stream")
	}
	pad1, h1, t1, okf1 := lineFields(s.D, l1)
	_, h2, t2, okf2 := lineFields(s.D, l2)
	if !okf1 || !okf2 {
		return "", evalErr(s, "line lacks the field delimiter")
	}
	if t1 != t2 {
		return y1 + y2, nil
	}
	h, err := s.B1.Eval(env, h1, h2)
	if err != nil {
		return "", err
	}
	t, err := s.B2.Eval(env, t1, t2)
	if err != nil {
		return "", err
	}
	v := textio.AddPad(pad1, h) + string(s.D) + t
	return rest1 + v + "\n" + rest2, nil
}

// Offset uses the first field of y1's last nonempty line to adjust the
// first field of every line of y2 via B, preserving per-line padding.
// With B = add this combines running-offset outputs (line numbering);
// with B = first/second it appears among the plausible combiners for
// xargs wc -l in Table 10.
type Offset struct {
	D Delim
	B Op
}

// Class returns StructOpClass.
func (o Offset) Class() Class { return StructOpClass }

// Size is |g| per Definition 3.6.
func (o Offset) Size() int { return 1 + o.B.Size() }

// String renders the operator in the DSL's textual form.
func (o Offset) String() string { return "offset " + o.D.String() + " " + o.B.String() }

// InDomain reports y ∈ L(offset) per Definition B.1, walking the
// stream's lines in place.
func (o Offset) InDomain(env *Env, y string) bool {
	if !textio.IsStream(y) {
		return false
	}
	any := false
	for rest := y; rest != ""; {
		var l string
		l, rest, _ = textio.SplitFirstLine(rest)
		if l == "" {
			continue
		}
		_, head, _, ok := lineFields(o.D, l)
		if !ok || !o.B.InDomain(env, head) {
			return false
		}
		any = true
	}
	return any
}

// Eval applies offset per Figure 6's big-step semantics. The output
// assembles in one builder grown to len(y1)+len(y2), so String() hands
// it over without a copy, and y2's lines are walked in place; an
// unterminated final line is still a line.
func (o Offset) Eval(env *Env, y1, y2 string) (string, error) {
	l1, ok := textio.SplitLastNonemptyLine(y1)
	if !ok {
		return "", evalErr(o, "y1 has no nonempty line")
	}
	_, h1, _, okf := lineFields(o.D, l1)
	if !okf {
		return "", evalErr(o, "anchor line lacks the field delimiter")
	}
	var b strings.Builder
	b.Grow(len(y1) + len(y2))
	b.WriteString(y1)
	for rest := y2; rest != ""; {
		var l2 string
		l2, rest, _ = textio.SplitFirstLine(rest)
		if l2 == "" {
			b.WriteByte('\n')
			continue
		}
		pad, h2, t2, okf := lineFields(o.D, l2)
		if !okf {
			return "", evalErr(o, "line lacks the field delimiter")
		}
		h, err := o.B.Eval(env, h1, h2)
		if err != nil {
			return "", err
		}
		b.WriteString(textio.AddPad(pad, h))
		b.WriteByte(byte(o.D))
		b.WriteString(t2)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
