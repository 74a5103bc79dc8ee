package dsl

import (
	"fmt"
	"math/big"
	"math/bits"
	"strconv"

	"kumquat/internal/textio"
)

// KeyMerge is the keyed merge, an extension beyond Figure 3's grammar
// for pipeline fragments whose producer sorts and whose consumer
// collapses equal lines: sort | uniq -c, sort | uniq. J is the
// consumer's seam operator, a stitch or a stitch2: every line of an
// operand lies in J's line domain, and its key is what J compares at a
// seam — the whole line under stitch, the text after the first field
// under stitch2. keymerge J y1 y2 merges the operands' lines by key
// under the merge comparator (Env.Merge, the fragment's sort) and joins
// the lines whose keys tie with J's line operator, at every tie rather
// than at the one seam J joins: under uniq -c's (stitch2 ' ' add first)
// a tie adds the counts. It is the aggregator PaSh writes by hand for
// sort | uniq -c, and a join of the kind Farzan & Nicolet synthesize.
//
// Its domain is J's, with keys in strictly ascending order: a
// collapsing consumer's output holds each key once. Like merge it is
// order-free — ties join in operand order and Swap is a no-op — and the
// synthesizer enumerates it for fragment specs only
// (Space.WithKeyMerges), so every single command's search space stays
// the paper's.
type KeyMerge struct {
	J Op
}

// Class returns RunOpClass: like merge, it runs the fragment's sort
// comparator.
func (KeyMerge) Class() Class { return RunOpClass }

// Size is |g| per Definition 3.6: one production on top of J's.
func (k KeyMerge) Size() int { return 1 + k.J.Size() }

// String renders the operator in the DSL's textual form.
func (k KeyMerge) String() string { return "keymerge " + k.J.String() }

// DisplayString renders the keyed merge with its comparator's flags,
// e.g. "keymerge('-r') stitch2 ' ' add first".
func (k KeyMerge) DisplayString(env *Env) string {
	return withFlags(env, "keymerge") + " " + k.J.String()
}

// fields splits a line as J does at a seam: its key — the whole line
// under stitch, the rest after the first field under stitch2 — and,
// under stitch2, its padding and first field. ok reports whether the
// line lies in J's line domain.
func (k KeyMerge) fields(env *Env, line string) (pad textio.Pad, head, key string, ok bool) {
	switch j := k.J.(type) {
	case Stitch:
		return pad, "", line, j.B.InDomain(env, line)
	case Stitch2:
		pad, head, key, ok = lineFields(j.D, line)
		return pad, head, key, ok && j.B1.InDomain(env, head) && j.B2.InDomain(env, key)
	}
	return pad, "", "", false
}

// InDomain reports y ∈ L(keymerge J): a stream whose lines lie in J's
// line domain with strictly ascending keys under the merge comparator.
func (k KeyMerge) InDomain(env *Env, y string) bool {
	if env == nil || env.Merge == nil || !textio.IsStream(y) {
		return false
	}
	prev := ""
	for i, rest := 0, y; rest != ""; i++ {
		var line string
		line, rest, _ = textio.SplitFirstLine(rest)
		_, _, key, ok := k.fields(env, line)
		if !ok || i > 0 && env.Merge.Compare(prev, key) >= 0 {
			return false
		}
		prev = key
	}
	return true
}

// Eval applies the keyed merge to two operands.
func (k KeyMerge) Eval(env *Env, y1, y2 string) (string, error) {
	return k.mergeK(env, []string{y1, y2})
}

// keyCursor walks one operand of a keyed merge: line is its current
// line, split by J into pad, head and key (fields); rest follows it.
type keyCursor struct {
	line, head, key, rest string
	pad                   textio.Pad
	live                  bool
}

// advance moves c to its next line. It fails with ErrNotSorted when the
// next key does not order strictly after the current one, and with an
// evaluation error when the next line lies outside J's line domain.
func (k KeyMerge) advance(env *Env, c *keyCursor) error {
	if c.rest == "" {
		c.live = false
		return nil
	}
	line, rest, _ := textio.SplitFirstLine(c.rest)
	pad, head, key, ok := k.fields(env, line)
	if !ok {
		return evalErr(k, "line outside the seam operator's domain")
	}
	if c.live && env.Merge.Compare(c.key, key) >= 0 {
		return unsortedErr(k)
	}
	c.line, c.head, c.key, c.rest, c.pad, c.live = line, head, key, rest, pad, true
	return nil
}

// mergeK merges the streams by key in one walk: each output line is the
// least key's line, or the join of every operand's line that ties with
// it, in operand order. Empty streams are skipped; every other one must
// be newline-terminated.
func (k KeyMerge) mergeK(env *Env, streams []string) (string, error) {
	if env == nil || env.Merge == nil {
		return "", evalErr(k, "no merge comparator bound in Env")
	}
	cs := make([]keyCursor, 0, len(streams))
	size := 0
	for _, s := range streams {
		if s == "" {
			continue
		}
		if !textio.IsStream(s) {
			return "", evalErr(k, "operand is not a stream")
		}
		c := keyCursor{rest: s}
		if err := k.advance(env, &c); err != nil {
			return "", err
		}
		cs = append(cs, c)
		size += len(s)
	}
	dst := make([]byte, 0, size)
	tied := make([]int, 0, len(cs))
	ws := newJoinScratch(len(cs))
	for {
		tied = tied[:0]
		for i := range cs {
			if !cs[i].live {
				continue
			}
			if len(tied) == 0 {
				tied = append(tied, i)
				continue
			}
			switch c := env.Merge.Compare(cs[i].key, cs[tied[0]].key); {
			case c < 0:
				tied = append(tied[:0], i)
			case c == 0:
				tied = append(tied, i)
			}
		}
		if len(tied) == 0 {
			return textio.View(dst), nil
		}
		if len(tied) == 1 {
			dst = append(dst, cs[tied[0]].line...)
		} else {
			var err error
			if dst, err = k.join(env, dst, cs, tied, &ws); err != nil {
				return "", err
			}
		}
		dst = append(dst, '\n')
		for _, i := range tied {
			if err := k.advance(env, &cs[i]); err != nil {
				return "", err
			}
		}
	}
}

// joinScratch is a keyed merge's workspace for joins, reused across
// ties: the tied lines' first fields and keys (or whole lines), and the
// folded first field while its padding is written.
type joinScratch struct {
	heads, keys []string
	field       []byte
}

// newJoinScratch sizes a workspace for ties of up to k lines: one
// backing array for both line lists, and a field buffer that holds any
// 64-bit count.
func newJoinScratch(k int) joinScratch {
	buf := make([]string, 2*k)
	return joinScratch{heads: buf[:0:k], keys: buf[k:k], field: make([]byte, 0, 24)}
}

// join appends the join of the tied cursors' lines to dst, as J joins
// the two lines of a seam: stitch folds its operator over the lines,
// stitch2 folds B1 over the first fields and B2 over the keys, and
// re-pads the folded field to the first line's column.
func (k KeyMerge) join(env *Env, dst []byte, cs []keyCursor, tied []int, ws *joinScratch) ([]byte, error) {
	ws.heads, ws.keys = ws.heads[:0], ws.keys[:0]
	for _, i := range tied {
		ws.heads, ws.keys = append(ws.heads, cs[i].head), append(ws.keys, cs[i].key)
	}
	switch j := k.J.(type) {
	case Stitch:
		return fold(env, j.B, dst, ws.keys)
	case Stitch2:
		var err error
		if ws.field, err = fold(env, j.B1, ws.field[:0], ws.heads); err != nil {
			return dst, err
		}
		dst = textio.AppendPad(dst, cs[tied[0]].pad, len(ws.field))
		dst = append(append(dst, ws.field...), byte(j.D))
		return fold(env, j.B2, dst, ws.keys)
	}
	return dst, evalErr(k, fmt.Sprintf("%s is not a seam operator", k.J))
}

// fold appends op folded left over xs to dst. The leaf operators write
// in place: first and second pick an operand, concat appends them all,
// and add sums in a uint64 while the sum fits (appendSum), so a tie of
// counts allocates no big.Int. Any other operator folds through Eval.
func fold(env *Env, op Op, dst []byte, xs []string) ([]byte, error) {
	switch op.(type) {
	case First:
		return append(dst, xs[0]...), nil
	case Second:
		return append(dst, xs[len(xs)-1]...), nil
	case Concat:
		for _, x := range xs {
			dst = append(dst, x...)
		}
		return dst, nil
	case Add:
		return appendSum(op, dst, xs)
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		v, err := op.Eval(env, acc, x)
		if err != nil {
			return dst, err
		}
		acc = v
	}
	return append(dst, acc...), nil
}

// appendSum appends the decimal sum of the digit strings xs to dst. A
// sum of operands of at most 19 digits accumulates in a uint64 until it
// would overflow; only a longer operand or an overflowing sum takes
// math/big.
func appendSum(op Op, dst []byte, xs []string) ([]byte, error) {
	var sum uint64
	for _, x := range xs {
		if !textio.AllDigits(x) {
			return dst, evalErr(op, "operand not a digit string")
		}
		if len(x) > 19 {
			return appendBigSum(dst, xs), nil
		}
		var v uint64
		for i := 0; i < len(x); i++ {
			v = v*10 + uint64(x[i]-'0')
		}
		var carry uint64
		if sum, carry = bits.Add64(sum, v, 0); carry != 0 {
			return appendBigSum(dst, xs), nil
		}
	}
	return strconv.AppendUint(dst, sum, 10), nil
}

// appendBigSum is appendSum in arbitrary precision, for digit strings.
func appendBigSum(dst []byte, xs []string) []byte {
	sum, v := new(big.Int), new(big.Int)
	for _, x := range xs {
		v.SetString(x, 10)
		sum.Add(sum, v)
	}
	return sum.Append(dst, 10)
}
