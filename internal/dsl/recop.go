package dsl

import (
	"math/big"
	"strings"

	"kumquat/internal/textio"
)

// Add is numeric addition: L(add) = [0-9]+, add y1 y2 ⇒ intToStr(i1+i2).
// Arbitrary-precision so that long generated digit strings cannot overflow.
type Add struct{}

// Class returns RecOpClass.
func (Add) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (Add) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (Add) String() string { return "add" }

// InDomain reports y ∈ L(add) per Definition B.1.
func (Add) InDomain(_ *Env, y string) bool { return textio.AllDigits(y) }

// Eval applies add per Figure 6's big-step semantics.
func (a Add) Eval(_ *Env, y1, y2 string) (string, error) {
	if !textio.AllDigits(y1) || !textio.AllDigits(y2) {
		return "", evalErr(a, "operand not a digit string")
	}
	i1, _ := new(big.Int).SetString(y1, 10)
	i2, _ := new(big.Int).SetString(y2, 10)
	return new(big.Int).Add(i1, i2).String(), nil
}

// Concat is string concatenation: concat y1 y2 ⇒ y1 ++ y2. L = String.
type Concat struct{}

// Class returns RecOpClass.
func (Concat) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (Concat) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (Concat) String() string { return "concat" }

// InDomain reports y ∈ L(concat) per Definition B.1.
func (Concat) InDomain(_ *Env, _ string) bool { return true }

// Eval applies concat per Figure 6's big-step semantics.
func (Concat) Eval(_ *Env, y1, y2 string) (string, error) { return y1 + y2, nil }

// First selects the left operand: first y1 y2 ⇒ y1. L = String.
type First struct{}

// Class returns RecOpClass.
func (First) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (First) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (First) String() string { return "first" }

// InDomain reports y ∈ L(first) per Definition B.1.
func (First) InDomain(_ *Env, _ string) bool { return true }

// Eval applies first per Figure 6's big-step semantics.
func (First) Eval(_ *Env, y1, _ string) (string, error) { return y1, nil }

// Second selects the right operand: second y1 y2 ⇒ y2. L = String.
type Second struct{}

// Class returns RecOpClass.
func (Second) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (Second) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (Second) String() string { return "second" }

// InDomain reports y ∈ L(second) per Definition B.1.
func (Second) InDomain(_ *Env, _ string) bool { return true }

// Eval applies second per Figure 6's big-step semantics.
func (Second) Eval(_ *Env, _, y2 string) (string, error) { return y2, nil }

// Front strips delimiter D from the front of both operands, applies B, and
// re-attaches D: L(front d b) = {d ++ y | y ∈ L(b)}.
type Front struct {
	D Delim
	B Op
}

// Class returns RecOpClass.
func (f Front) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (f Front) Size() int { return 1 + f.B.Size() }

// String renders the operator in the DSL's textual form.
func (f Front) String() string { return "front " + f.D.String() + " " + f.B.String() }

// InDomain reports y ∈ L(front) per Definition B.1.
func (f Front) InDomain(env *Env, y string) bool {
	return len(y) > 0 && y[0] == byte(f.D) && f.B.InDomain(env, y[1:])
}

// Eval applies front per Figure 6's big-step semantics.
func (f Front) Eval(env *Env, y1, y2 string) (string, error) {
	if len(y1) == 0 || y1[0] != byte(f.D) || len(y2) == 0 || y2[0] != byte(f.D) {
		return "", evalErr(f, "operand lacks front delimiter")
	}
	v, err := f.B.Eval(env, y1[1:], y2[1:])
	if err != nil {
		return "", err
	}
	return string(f.D) + v, nil
}

// Back strips delimiter D from the back of both operands, applies B, and
// re-attaches D: L(back d b) = {y ++ d | y ∈ L(b)}. (back '\n' add) is the
// paper's combiner for wc -l and grep -c.
type Back struct {
	D Delim
	B Op
}

// Class returns RecOpClass.
func (b Back) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (b Back) Size() int { return 1 + b.B.Size() }

// String renders the operator in the DSL's textual form.
func (b Back) String() string { return "back " + b.D.String() + " " + b.B.String() }

// InDomain reports y ∈ L(back) per Definition B.1.
func (b Back) InDomain(env *Env, y string) bool {
	return len(y) > 0 && y[len(y)-1] == byte(b.D) && b.B.InDomain(env, y[:len(y)-1])
}

// Eval applies back per Figure 6's big-step semantics.
func (b Back) Eval(env *Env, y1, y2 string) (string, error) {
	n1, n2 := len(y1), len(y2)
	if n1 == 0 || y1[n1-1] != byte(b.D) || n2 == 0 || y2[n2-1] != byte(b.D) {
		return "", evalErr(b, "operand lacks back delimiter")
	}
	v, err := b.B.Eval(env, y1[:n1-1], y2[:n2-1])
	if err != nil {
		return "", err
	}
	return v + string(b.D), nil
}

// Fuse applies B piecewise to the D-separated elements of its operands,
// which must contain the same number of elements, and joins the results
// with D. The domain requires at least two elements, each in L(b); empty
// elements are admitted when L(b) admits them — slightly wider than
// Definition B.1's y1 ≠ nil, yk ≠ nil, matching the reference
// implementation's behaviour visible in Table 10, where (fuse '\n' first)
// is plausible for head -n 1 even though its outputs end with the
// delimiter.
type Fuse struct {
	D Delim
	B Op
}

// Class returns RecOpClass.
func (f Fuse) Class() Class { return RecOpClass }

// Size is |g| per Definition 3.6.
func (f Fuse) Size() int { return 1 + f.B.Size() }

// String renders the operator in the DSL's textual form.
func (f Fuse) String() string { return "fuse " + f.D.String() + " " + f.B.String() }

// InDomain reports y ∈ L(fuse) per Definition B.1. It walks y from
// delimiter to delimiter in place and allocates nothing: the
// synthesizer asks this of every candidate on every observation.
func (f Fuse) InDomain(env *Env, y string) bool {
	d := byte(f.D)
	i := strings.IndexByte(y, d)
	if i < 0 {
		return false // one element; the domain needs at least two
	}
	for {
		if !f.B.InDomain(env, y[:i]) {
			return false
		}
		y = y[i+1:]
		if i = strings.IndexByte(y, d); i < 0 {
			return f.B.InDomain(env, y)
		}
	}
}

// Eval applies fuse per Figure 6's big-step semantics.
func (f Fuse) Eval(env *Env, y1, y2 string) (string, error) {
	p1 := strings.Split(y1, string(f.D))
	p2 := strings.Split(y2, string(f.D))
	if len(p1) < 2 || len(p2) < 2 {
		return "", evalErr(f, "operand has fewer than two elements")
	}
	if len(p1) != len(p2) {
		return "", evalErr(f, "element counts differ")
	}
	out := make([]string, len(p1))
	for i := range p1 {
		v, err := f.B.Eval(env, p1[i], p2[i])
		if err != nil {
			return "", err
		}
		out[i] = v
	}
	return strings.Join(out, string(f.D)), nil
}
