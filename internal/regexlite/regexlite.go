// Package regexlite implements the subset of POSIX Basic Regular Expressions
// (BRE) that the KumQuat benchmark commands use, with a small backtracking
// matcher. Unlike Go's regexp package it supports backreferences
// (\1 .. \9), which the oneliners/nfa-regex benchmark requires
// (pattern \(.\).*\1\(.\).*\2...).
//
// Supported syntax: literal bytes, '.', '*' (and GNU extensions \+ \?),
// bracket expressions [abc], [a-z], [^...] with the POSIX classes
// [:alpha:], [:digit:], [:punct:], [:lower:], [:upper:], [:space:],
// [:alnum:]; anchors ^ (at start) and $ (at end); groups \( \); and
// backreferences \1 .. \9.
//
// The package also provides Example, a generator that produces strings
// matching a pattern. KumQuat preprocessing uses it to build input
// dictionaries from grep/sed patterns (§3.2 of the paper).
package regexlite

import (
	"fmt"
	"math/rand"
	"strings"
)

type quant int

const (
	qOne quant = iota
	qStar
	qPlus
	qQuest
)

type nodeKind int

const (
	nLit nodeKind = iota
	nAny
	nClass
	nGroup
	nBackref
	nStartAnchor
	nEndAnchor
)

type node struct {
	kind   nodeKind
	q      quant
	lit    byte
	set    *[256]bool // for nClass
	negate bool
	seq    []node // for nGroup
	group  int    // group index for nGroup / nBackref
}

// Regexp is a compiled pattern.
type Regexp struct {
	pattern string
	seq     []node
	ngroups int
	icase   bool

	// lit is the whole pattern as a plain string when it is a pure
	// literal (only single-occurrence nLit nodes, no anchors): find then
	// reduces to strings.Index. firstLit holds the pattern's required
	// first byte when the sequence opens with a single-occurrence
	// literal, letting find skip candidate start positions bytewise.
	lit         string
	isLit       bool
	firstLit    byte
	hasFirstLit bool
}

// analyze derives the literal fast-path fields from the parsed sequence.
// Case-insensitive patterns keep the general path: the fast paths are
// exact-byte.
func (re *Regexp) analyze() {
	if re.icase || len(re.seq) == 0 {
		return
	}
	if n := re.seq[0]; n.kind == nLit && n.q == qOne {
		re.firstLit, re.hasFirstLit = n.lit, true
	}
	var b strings.Builder
	for _, n := range re.seq {
		if n.kind != nLit || n.q != qOne {
			return
		}
		b.WriteByte(n.lit)
	}
	re.lit, re.isLit = b.String(), true
}

// Compile parses a BRE pattern.
func Compile(pattern string) (*Regexp, error) {
	p := &parser{src: pattern}
	seq, err := p.parseSeq()
	if err != nil {
		return nil, fmt.Errorf("regexlite: %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("regexlite: %q: unexpected %q at %d", pattern, p.src[p.pos], p.pos)
	}
	re := &Regexp{pattern: pattern, seq: seq, ngroups: p.ngroups}
	re.analyze()
	return re, nil
}

// CompileFold parses a BRE pattern for case-insensitive (ASCII) matching.
func CompileFold(pattern string) (*Regexp, error) {
	re, err := Compile(pattern)
	if err != nil {
		return nil, err
	}
	re.icase = true
	// The exact-byte fast paths do not fold; drop them.
	re.lit, re.isLit = "", false
	re.firstLit, re.hasFirstLit = 0, false
	return re, nil
}

// String returns the source pattern.
func (re *Regexp) String() string { return re.pattern }

type parser struct {
	src     string
	pos     int
	ngroups int
}

func (p *parser) parseSeq() ([]node, error) {
	var seq []node
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case ')':
			// Unescaped ')' is literal in BRE, but inside a group parse we
			// never see it (groups are \( \)). Treat as literal.
			seq = append(seq, node{kind: nLit, lit: c})
			p.pos++
		case '^':
			if len(seq) == 0 {
				seq = append(seq, node{kind: nStartAnchor})
			} else {
				seq = append(seq, node{kind: nLit, lit: '^'})
			}
			p.pos++
		case '$':
			if p.pos == len(p.src)-1 || (p.pos+2 <= len(p.src) && p.src[p.pos+1] == '\\' && p.pos+2 < len(p.src) && p.src[p.pos+2] == ')') {
				seq = append(seq, node{kind: nEndAnchor})
			} else {
				seq = append(seq, node{kind: nLit, lit: '$'})
			}
			p.pos++
		case '.':
			p.pos++
			seq = append(seq, p.quantified(node{kind: nAny}))
		case '*':
			if len(seq) == 0 {
				// Leading '*' is a literal in BRE.
				seq = append(seq, node{kind: nLit, lit: '*'})
				p.pos++
			} else {
				return nil, fmt.Errorf("dangling '*'")
			}
		case '[':
			n, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			seq = append(seq, p.quantified(n))
		case '\\':
			if p.pos+1 >= len(p.src) {
				return nil, fmt.Errorf("trailing backslash")
			}
			e := p.src[p.pos+1]
			switch {
			case e == '(':
				p.pos += 2
				p.ngroups++
				idx := p.ngroups
				inner, err := p.parseGroupBody()
				if err != nil {
					return nil, err
				}
				seq = append(seq, p.quantified(node{kind: nGroup, seq: inner, group: idx}))
			case e == ')':
				return nil, fmt.Errorf("unmatched \\)")
			case e >= '1' && e <= '9':
				p.pos += 2
				seq = append(seq, p.quantified(node{kind: nBackref, group: int(e - '0')}))
			case e == '+':
				if len(seq) == 0 {
					return nil, fmt.Errorf("dangling \\+")
				}
				seq[len(seq)-1].q = qPlus
				p.pos += 2
			case e == '?':
				if len(seq) == 0 {
					return nil, fmt.Errorf("dangling \\?")
				}
				seq[len(seq)-1].q = qQuest
				p.pos += 2
			case e == 'n':
				p.pos += 2
				seq = append(seq, p.quantified(node{kind: nLit, lit: '\n'}))
			case e == 't':
				p.pos += 2
				seq = append(seq, p.quantified(node{kind: nLit, lit: '\t'}))
			default:
				// Escaped literal: \. \* \$ \^ \[ \\ etc.
				p.pos += 2
				seq = append(seq, p.quantified(node{kind: nLit, lit: e}))
			}
		default:
			p.pos++
			seq = append(seq, p.quantified(node{kind: nLit, lit: c}))
		}
	}
	return seq, nil
}

// parseGroupBody parses until the matching \).
func (p *parser) parseGroupBody() ([]node, error) {
	var seq []node
	for p.pos < len(p.src) {
		if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == ')' {
			p.pos += 2
			return seq, nil
		}
		sub := &parser{src: p.src, pos: p.pos, ngroups: p.ngroups}
		n, err := sub.parseOne(len(seq) == 0)
		if err != nil {
			return nil, err
		}
		p.pos = sub.pos
		p.ngroups = sub.ngroups
		seq = append(seq, n)
	}
	return nil, fmt.Errorf("unterminated group")
}

// parseOne parses a single (possibly quantified) element; first indicates
// whether it would be the first element of its sequence (affects ^ and *).
func (p *parser) parseOne(first bool) (node, error) {
	c := p.src[p.pos]
	switch c {
	case '^':
		p.pos++
		if first {
			return node{kind: nStartAnchor}, nil
		}
		return node{kind: nLit, lit: '^'}, nil
	case '$':
		p.pos++
		return node{kind: nEndAnchor}, nil
	case '.':
		p.pos++
		return p.quantified(node{kind: nAny}), nil
	case '[':
		n, err := p.parseClass()
		if err != nil {
			return node{}, err
		}
		return p.quantified(n), nil
	case '\\':
		if p.pos+1 >= len(p.src) {
			return node{}, fmt.Errorf("trailing backslash")
		}
		e := p.src[p.pos+1]
		switch {
		case e == '(':
			p.pos += 2
			p.ngroups++
			idx := p.ngroups
			inner, err := p.parseGroupBody()
			if err != nil {
				return node{}, err
			}
			return p.quantified(node{kind: nGroup, seq: inner, group: idx}), nil
		case e >= '1' && e <= '9':
			p.pos += 2
			return p.quantified(node{kind: nBackref, group: int(e - '0')}), nil
		default:
			p.pos += 2
			return p.quantified(node{kind: nLit, lit: e}), nil
		}
	default:
		p.pos++
		return p.quantified(node{kind: nLit, lit: c}), nil
	}
}

func (p *parser) quantified(n node) node {
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
		n.q = qStar
	}
	return n
}

var posixClasses = map[string]func(byte) bool{
	"alpha": func(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' },
	"digit": func(b byte) bool { return b >= '0' && b <= '9' },
	"lower": func(b byte) bool { return b >= 'a' && b <= 'z' },
	"upper": func(b byte) bool { return b >= 'A' && b <= 'Z' },
	"space": func(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r' },
	"alnum": func(b byte) bool {
		return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
	},
	"punct": func(b byte) bool {
		return b > ' ' && b < 0x7f && !(b >= 'a' && b <= 'z') && !(b >= 'A' && b <= 'Z') && !(b >= '0' && b <= '9')
	},
}

func (p *parser) parseClass() (node, error) {
	// p.src[p.pos] == '['
	p.pos++
	var set [256]bool
	negate := false
	if p.pos < len(p.src) && p.src[p.pos] == '^' {
		negate = true
		p.pos++
	}
	first := true
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ']' && !first {
			p.pos++
			return node{kind: nClass, set: &set, negate: negate}, nil
		}
		first = false
		// POSIX class [:name:]
		if c == '[' && p.pos+1 < len(p.src) && p.src[p.pos+1] == ':' {
			end := strings.Index(p.src[p.pos+2:], ":]")
			if end < 0 {
				return node{}, fmt.Errorf("unterminated [: :]")
			}
			name := p.src[p.pos+2 : p.pos+2+end]
			fn, ok := posixClasses[name]
			if !ok {
				return node{}, fmt.Errorf("unknown class [:%s:]", name)
			}
			for b := 0; b < 256; b++ {
				if fn(byte(b)) {
					set[b] = true
				}
			}
			p.pos += 2 + end + 2
			continue
		}
		if c == '\\' && p.pos+1 < len(p.src) {
			// grep BREs treat backslash literally inside []; but accept \n, \t.
			switch p.src[p.pos+1] {
			case 'n':
				set['\n'] = true
				p.pos += 2
				continue
			case 't':
				set['\t'] = true
				p.pos += 2
				continue
			}
		}
		// Range a-z (not if '-' is last char before ])
		if p.pos+2 < len(p.src) && p.src[p.pos+1] == '-' && p.src[p.pos+2] != ']' {
			lo, hi := c, p.src[p.pos+2]
			if lo > hi {
				return node{}, fmt.Errorf("inverted range %c-%c", lo, hi)
			}
			for b := lo; ; b++ {
				set[b] = true
				if b == hi {
					break
				}
			}
			p.pos += 3
			continue
		}
		set[c] = true
		p.pos++
	}
	return node{}, fmt.Errorf("unterminated class")
}

// --- matching ---

type matchState struct {
	input  string
	caps   [10][2]int // group start/end, -1 when unset
	icase  bool
	budget int // backtracking steps left in the current find
}

func foldByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 32
	}
	return b
}

func (m *matchState) byteEq(a, b byte) bool {
	if m.icase {
		return foldByte(a) == foldByte(b)
	}
	return a == b
}

// matchSeq attempts to match seq starting at position pos; cont is invoked
// with the end position on success. Returns true when a full match is found.
func (m *matchState) matchSeq(seq []node, pos int, cont func(int) bool) bool {
	if m.budget <= 0 {
		return false
	}
	m.budget--
	if len(seq) == 0 {
		return cont(pos)
	}
	n := seq[0]
	rest := seq[1:]
	step := func(p int) bool { return m.matchSeq(rest, p, cont) }
	switch n.q {
	case qOne:
		return m.matchNode(n, pos, step)
	case qQuest:
		if m.matchNode(n, pos, step) {
			return true
		}
		return step(pos)
	case qStar, qPlus:
		min := 0
		if n.q == qPlus {
			min = 1
		}
		return m.matchRepeat(n, pos, 0, min, step)
	}
	return false
}

// matchRepeat implements greedy repetition with backtracking.
func (m *matchState) matchRepeat(n node, pos, count, min int, cont func(int) bool) bool {
	if m.budget <= 0 {
		return false
	}
	// Greedy: try one more repetition first.
	if m.matchNode(n, pos, func(p int) bool {
		if p == pos {
			// Zero-width iteration (possible with groups): stop expanding.
			return false
		}
		return m.matchRepeat(n, p, count+1, min, cont)
	}) {
		return true
	}
	if count >= min {
		return cont(pos)
	}
	return false
}

// matchNode matches a single occurrence of node n at pos.
func (m *matchState) matchNode(n node, pos int, cont func(int) bool) bool {
	switch n.kind {
	case nLit:
		if pos < len(m.input) && m.byteEq(m.input[pos], n.lit) {
			return cont(pos + 1)
		}
	case nAny:
		if pos < len(m.input) && m.input[pos] != '\n' {
			return cont(pos + 1)
		}
	case nClass:
		if pos < len(m.input) {
			c := m.input[pos]
			in := n.set[c]
			if m.icase && !in {
				in = n.set[foldByte(c)] || n.set[c-32+64*0] // fold both directions
				if c >= 'a' && c <= 'z' {
					in = in || n.set[c-32]
				}
			}
			if in != n.negate {
				return cont(pos + 1)
			}
		}
	case nStartAnchor:
		if pos == 0 {
			return cont(pos)
		}
	case nEndAnchor:
		if pos == len(m.input) {
			return cont(pos)
		}
	case nGroup:
		savedS, savedE := m.caps[n.group][0], m.caps[n.group][1]
		m.caps[n.group][0] = pos
		ok := m.matchSeq(n.seq, pos, func(p int) bool {
			savedEnd := m.caps[n.group][1]
			m.caps[n.group][1] = p
			if cont(p) {
				return true
			}
			m.caps[n.group][1] = savedEnd
			return false
		})
		if !ok {
			m.caps[n.group][0], m.caps[n.group][1] = savedS, savedE
		}
		return ok
	case nBackref:
		s, e := m.caps[n.group][0], m.caps[n.group][1]
		if s < 0 || e < s {
			return false
		}
		ref := m.input[s:e]
		if pos+len(ref) <= len(m.input) {
			seg := m.input[pos : pos+len(ref)]
			eq := seg == ref
			if m.icase {
				eq = strings.EqualFold(seg, ref)
			}
			if eq {
				return cont(pos + len(ref))
			}
		}
	}
	return false
}

const defaultBudget = 2_000_000

// find locates the leftmost match in input starting at or after from
// and returns its bounds. A literal pattern is strings.Index and needs no
// state (m may be nil); any other runs the backtracker on m, whose caps
// then hold the match's groups. The backtracking budget is shared across
// all start positions of the call so pathological patterns degrade to a
// non-match instead of hanging.
func (re *Regexp) find(m *matchState, input string, from int) (start, end int, ok bool) {
	if re.isLit {
		i := strings.Index(input[from:], re.lit)
		if i < 0 {
			return 0, 0, false
		}
		return from + i, from + i + len(re.lit), true
	}
	m.budget = defaultBudget
	for start := from; start <= len(input); start++ {
		if re.hasFirstLit {
			// The match must open with this byte; skip ahead to its next
			// occurrence instead of attempting every position.
			j := strings.IndexByte(input[start:], re.firstLit)
			if j < 0 {
				break
			}
			start += j
		}
		for i := range m.caps {
			m.caps[i] = [2]int{-1, -1}
		}
		if m.matchSeq(re.seq, start, func(p int) bool { end = p; return true }) {
			return start, end, true
		}
		// A pattern with a ^ anchor can only match at 0.
		if len(re.seq) > 0 && re.seq[0].kind == nStartAnchor {
			break
		}
	}
	return 0, 0, false
}

// state returns the match state find needs for input: nil for a literal
// pattern, which has none.
func (re *Regexp) state(input string) *matchState {
	if re.isLit {
		return nil
	}
	return &matchState{input: input, icase: re.icase}
}

// MatchString reports whether input contains a match of the pattern.
func (re *Regexp) MatchString(input string) bool {
	_, _, ok := re.find(re.state(input), input, 0)
	return ok
}

// expandRepl appends a sed-style replacement for the match [start, end)
// to dst: & is the whole match, \1..\9 are groups (read from m; a literal
// pattern, whose m is nil, has none), \& and \\ are literals.
func expandRepl(dst []byte, repl, input string, start, end int, m *matchState) []byte {
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		switch {
		case c == '&':
			dst = append(dst, input[start:end]...)
		case c == '\\' && i+1 < len(repl):
			e := repl[i+1]
			if e >= '1' && e <= '9' {
				if m != nil {
					dst = append(dst, m.group(int(e-'0'))...)
				}
			} else if e == 'n' {
				dst = append(dst, '\n')
			} else if e == 't' {
				dst = append(dst, '\t')
			} else {
				dst = append(dst, e)
			}
			i++
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// group returns the text of capture group i of the last match, or ""
// when unset.
func (m *matchState) group(i int) string {
	s, e := m.caps[i][0], m.caps[i][1]
	if s < 0 || e < s {
		return ""
	}
	return m.input[s:e]
}

// ReplaceFirst appends input to dst with its leftmost match replaced by
// repl (sed s/// without g). ok is false when nothing matches; dst is then
// returned as it was, so the caller can keep input itself.
func (re *Regexp) ReplaceFirst(dst []byte, input, repl string) (_ []byte, ok bool) {
	return re.replace(dst, input, repl, false)
}

// ReplaceAll appends input to dst with every non-overlapping match
// replaced by repl (sed s///g). ok is false when nothing matches; dst is
// then returned as it was.
func (re *Regexp) ReplaceAll(dst []byte, input, repl string) (_ []byte, ok bool) {
	return re.replace(dst, input, repl, true)
}

// replace is ReplaceFirst, or ReplaceAll when all is set. After an empty
// match the byte at its position is copied and the search resumes one
// byte later. As in GNU sed, an empty match that starts where the
// previous match ended is no match at all: s/a*/X/g turns "a" into "X",
// not "XX".
func (re *Regexp) replace(dst []byte, input, repl string, all bool) (_ []byte, ok bool) {
	m := re.state(input)
	pos, prev := 0, -1 // prev is where the last replaced match ended
	for pos <= len(input) {
		start, end, found := re.find(m, input, pos)
		if !found {
			break
		}
		dst = append(dst, input[pos:start]...)
		if start < end || start != prev {
			dst = expandRepl(dst, repl, input, start, end, m)
			ok, prev = true, end
			if !all {
				pos = end
				break
			}
		}
		if start < end {
			pos = end
			continue
		}
		if end < len(input) {
			dst = append(dst, input[end])
		}
		pos = end + 1
	}
	if !ok {
		return dst, false
	}
	if pos <= len(input) {
		dst = append(dst, input[pos:]...)
	}
	return dst, true
}

// Example generates a string that matches the pattern, using rng for
// choices. Star atoms repeat 1–2 times (so examples are nonempty and
// exercise the pattern), classes prefer letters and digits, and
// backreferences copy the generated group text. Anchors contribute nothing.
// KumQuat preprocessing calls this to build dictionaries from grep patterns.
func (re *Regexp) Example(rng *rand.Rand) string {
	var groups [10]string
	var b strings.Builder
	genSeq(re.seq, rng, &b, &groups)
	return b.String()
}

func genSeq(seq []node, rng *rand.Rand, b *strings.Builder, groups *[10]string) {
	for _, n := range seq {
		reps := 1
		switch n.q {
		case qStar, qPlus:
			reps = 1 + rng.Intn(2)
		case qQuest:
			reps = rng.Intn(2)
		}
		for r := 0; r < reps; r++ {
			genNode(n, rng, b, groups)
		}
	}
}

func genNode(n node, rng *rand.Rand, b *strings.Builder, groups *[10]string) {
	switch n.kind {
	case nLit:
		b.WriteByte(n.lit)
	case nAny:
		b.WriteByte(byte('a' + rng.Intn(26)))
	case nClass:
		b.WriteByte(pickFromClass(n, rng))
	case nGroup:
		var sub strings.Builder
		genSeq(n.seq, rng, &sub, groups)
		groups[n.group] = sub.String()
		b.WriteString(sub.String())
	case nBackref:
		b.WriteString(groups[n.group])
	}
}

// pickFromClass chooses a member byte, preferring letters, then digits,
// then any printable member.
func pickFromClass(n node, rng *rand.Rand) byte {
	member := func(c byte) bool { return n.set[c] != n.negate }
	var letters, digits, printable []byte
	for c := byte(0x20); c < 0x7f; c++ {
		if !member(c) {
			continue
		}
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			letters = append(letters, c)
		case c >= '0' && c <= '9':
			digits = append(digits, c)
		default:
			printable = append(printable, c)
		}
	}
	pool := letters
	if len(pool) == 0 {
		pool = digits
	}
	if len(pool) == 0 {
		pool = printable
	}
	if len(pool) == 0 {
		return 'x'
	}
	return pool[rng.Intn(len(pool))]
}
