// Package dsl implements the KumQuat combiner language of Figure 3: the
// operator classes RecOp (add, concat, first, second, front, back, fuse),
// StructOp (stitch, stitch2, offset) and RunOp_f (rerun, merge <flags>),
// with big-step evaluation per Figure 6, legality domains L(g) per
// Definition B.1, combiner sizes per Definition 3.6, and the candidate
// enumeration used by the synthesizer.
package dsl

import (
	"errors"
	"fmt"
)

// Class partitions combiners as in Figure 3. The synthesizer prefers RecOp
// over StructOp over RunOp when building composite combiners (§3.2).
type Class int

const (
	// RecOpClass contains the recursive operators.
	RecOpClass Class = iota
	// StructOpClass contains the structured-stream operators.
	StructOpClass
	// RunOpClass contains the operators that re-execute commands.
	RunOpClass
)

// String names the class as in the paper ("RecOp", "StructOp", "RunOp").
func (c Class) String() string {
	switch c {
	case RecOpClass:
		return "RecOp"
	case StructOpClass:
		return "StructOp"
	case RunOpClass:
		return "RunOp"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Delim is a DSL delimiter (Figure 3): newline, tab, space or comma.
type Delim byte

// Delims lists every delimiter the DSL admits.
var Delims = []Delim{'\n', '\t', ' ', ','}

// String renders the delimiter as a quoted character literal ('\n', '\t',
// ' ' or ','), the form the DSL parser accepts back.
func (d Delim) String() string {
	switch d {
	case '\n':
		return `'\n'`
	case '\t':
		return `'\t'`
	case ' ':
		return `' '`
	case ',':
		return `','`
	default:
		return fmt.Sprintf("'%c'", byte(d))
	}
}

// Merger abstracts the Unix merge invoked by the merge and keyed merge
// combiners ("sort -m <flags>"). unix.SortCmd implements it.
type Merger interface {
	// IsSorted reports whether a stream is ordered under the comparator —
	// the legality domain of merge.
	IsSorted(stream string) bool
	// MergeStreams merges the streams and reports whether every stream
	// was sorted, checked in the same walk; merged is "" when one was not.
	MergeStreams(streams ...string) (merged string, sorted bool)
	// Compare orders two lines under the comparator: negative when a
	// sorts first, 0 when they tie — the keyed merge's key order.
	Compare(a, b string) int
	// Flags returns the comparator flags for display, e.g. "-rn".
	Flags() string
}

// Env supplies the command-dependent context RunOp operators need: the
// black-box command f for rerun, and the merge comparator when f is a sort.
type Env struct {
	// RunF re-executes the command f (rerun's semantics: f(y1 ++ y2)).
	RunF func(string) (string, error)
	// Merge is non-nil when a merge combiner is available for f.
	Merge Merger
}

// Op is a combiner operator: a binary function on strings with an explicit
// legality domain. Eval implements the big-step semantics of Figure 6 and
// returns an error exactly when no evaluation rule applies.
type Op interface {
	// Class returns the operator's grammar class.
	Class() Class
	// Size is |g| per Definition 3.6: two plus the number of productions.
	Size() int
	// InDomain reports y ∈ L(g) per Definition B.1.
	InDomain(env *Env, y string) bool
	// Eval evaluates g y1 y2 per Figure 6.
	Eval(env *Env, y1, y2 string) (string, error)
	fmt.Stringer
}

// evalErr builds the error for a failed evaluation.
func evalErr(op Op, why string) error {
	return fmt.Errorf("dsl: %s: %s", op, why)
}

// ErrNotSorted is the error a merge wraps when an operand is not sorted:
// the operand lies outside L(merge), found by the merge's own walk
// rather than by an InDomain pre-pass.
var ErrNotSorted = errors.New("operand is not sorted")

// unsortedErr is evalErr for a merge over an unsorted operand.
func unsortedErr(op Op) error {
	return fmt.Errorf("dsl: %s: %w", op, ErrNotSorted)
}

// Candidate is an operator applied in a fixed argument order. The
// enumeration treats (g a b) and (g b a) as distinct candidates, matching
// the paper's Table 10 which reports combiners such as
// "(back '\n' add) b a" for tail -n 1.
type Candidate struct {
	Op   Op
	Swap bool
}

// Eval applies the candidate to the two parallel outputs in its argument
// order. Swap is a no-op for merge and the keyed merge (orderFree) — the
// output is determined by the comparator alone, with ties stable by operand position, so honoring
// the reversal would only scramble tie order; keeping the binary path
// consistent with the k-way combine (see prepareK) means a synthesized
// "(merge b a)" behaves identically at every entry point.
func (c Candidate) Eval(env *Env, y1, y2 string) (string, error) {
	if c.Swap && !orderFree(c.Op) {
		y1, y2 = y2, y1
	}
	return c.Op.Eval(env, y1, y2)
}

// orderFree reports whether an operator's output is fixed by its
// comparator, ties taken in operand order, so that Swap is a no-op for
// it: merge and the keyed merge.
func orderFree(op Op) bool {
	switch op.(type) {
	case Merge, KeyMerge:
		return true
	}
	return false
}

// InDomain reports whether both operands lie in L(g).
func (c Candidate) InDomain(env *Env, y1, y2 string) bool {
	return c.Op.InDomain(env, y1) && c.Op.InDomain(env, y2)
}

// Plausible implements Definition 3.9 for a single observation: the operands
// are legal and the evaluation reproduces the serial output y12.
func (c Candidate) Plausible(env *Env, y1, y2, y12 string) bool {
	if !c.InDomain(env, y1, y2) {
		return false
	}
	v, err := c.Eval(env, y1, y2)
	return err == nil && v == y12
}

// String renders the candidate with its argument order, Table 10's
// notation: "(back '\n' add b a)".
func (c Candidate) String() string {
	args := "a b"
	if c.Swap {
		args = "b a"
	}
	return fmt.Sprintf("(%s %s)", c.Op, args)
}

// Size is the size of the underlying operator.
func (c Candidate) Size() int { return c.Op.Size() }

// Class is the class of the underlying operator.
func (c Candidate) Class() Class { return c.Op.Class() }
