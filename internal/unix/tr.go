package unix

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// trCmd implements GNU tr for the flag combinations the benchmarks use:
// translate, -c (complement SET1), -d (delete), -s (squeeze), and their
// combinations (-cs, -sc, -d with -c). Set syntax: literal characters,
// ranges a-z, escapes \n \t \\ and octal \012, POSIX classes [:lower:] etc.,
// and the [c*] / [c*n] repetition notation (e.g. '[\012*]').
//
// As in GNU tr, plain brackets are ordinary characters: '[a-z]' denotes
// '[', the range a-z, and ']' — which is why the classic scripts write
// tr '[a-z]' '[A-Z]' with brackets on both sides.
type trCmd struct {
	spec       string
	complement bool
	del        bool
	squeeze    bool
	set1       trSet
	set2       trSet // empty when deleting or squeezing only

	// The tables are indexed by byte. The 0/1 ones are uint8 so that Run
	// combines them arithmetically instead of branching on them.
	xlate    [256]byte  // what each byte is written as; the identity unless translated
	deleted  [256]uint8 // 1 when the input byte is deleted
	squeezed [256]uint8 // 1 when repeats of the output byte are squeezed
	newlines bool       // some other byte translates to '\n'
	plain    bool       // no byte is deleted or squeezed: every byte is one lookup
}

func newTr(spec string, args []string, _ *Env) (Command, error) {
	t := &trCmd{spec: spec}
	var sets []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 && len(sets) == 0 {
			for _, f := range a[1:] {
				switch f {
				case 'c', 'C':
					t.complement = true
				case 'd':
					t.del = true
				case 's':
					t.squeeze = true
				default:
					return nil, fmt.Errorf("tr: unsupported flag -%c", f)
				}
			}
			continue
		}
		sets = append(sets, a)
	}
	if len(sets) == 0 || len(sets) > 2 {
		return nil, fmt.Errorf("tr: need 1 or 2 sets, got %d", len(sets))
	}
	var err error
	t.set1, err = expandTrSet(sets[0], false, 0)
	if err != nil {
		return nil, err
	}
	if len(sets) == 2 {
		t.set2, err = expandTrSet(sets[1], true, t.set1.size())
		if err != nil {
			return nil, err
		}
	}
	t.compile()
	return t, nil
}

func (t *trCmd) compile() {
	inSet1 := [256]bool{}
	for _, r := range t.set1 {
		inSet1[r.c] = true
	}
	member1 := func(c int) bool { return inSet1[c] != t.complement }
	for c := range t.xlate {
		t.xlate[c] = byte(c)
	}

	switch {
	case t.del:
		for c := 0; c < 256; c++ {
			if member1(c) {
				t.deleted[c] = 1
			}
		}
		if t.squeeze {
			for _, r := range t.set2 {
				t.squeezed[r.c] = 1
			}
		}
	case len(t.set2) == 0:
		// squeeze-only: squeeze members of SET1 (complemented if -c).
		for c := 0; c < 256; c++ {
			if member1(c) {
				t.squeezed[c] = 1
			}
		}
	default:
		if t.complement {
			// Complemented translation: every byte not in SET1 maps to the
			// corresponding SET2 byte; GNU pads SET2 with its last byte, and
			// with -c effectively everything maps to the last byte unless
			// SET2 is long enough to cover the (ordered) complement.
			var idx uint64
			for c := 0; c < 256; c++ {
				if !inSet1[c] {
					t.xlate[c] = t.set2.at(idx)
					idx++
				}
			}
		} else {
			// Each SET1 byte maps to the SET2 byte at its last position,
			// so a run of one byte maps as its last copy does.
			var end uint64
			for _, r := range t.set1 {
				end += r.n
				t.xlate[r.c] = t.set2.at(end - 1)
			}
		}
		if t.squeeze {
			// Squeeze repeats of SET2 members in the output.
			for _, r := range t.set2 {
				t.squeezed[r.c] = 1
			}
		}
	}
	t.plain = true
	for c := 0; c < 256; c++ {
		t.newlines = t.newlines || c != '\n' && t.deleted[c] == 0 && t.xlate[c] == '\n'
		t.plain = t.plain && t.deleted[c] == 0 && t.squeezed[c] == 0
	}
}

func (t *trCmd) Spec() string { return t.spec }

// Run processes the raw byte stream (tr is not line-oriented; squeezing
// crosses line boundaries, which is exactly why concat is an incorrect
// combiner for tr -s and KumQuat synthesizes rerun for it).
//
// A plain translation, which deletes and squeezes nothing, is one table
// lookup a byte. Every other flag combination is one table-driven loop:
// each byte is translated and stored at the write index, and the index
// advances unless the byte is deleted or squeezed into the byte written
// before it — a conditional increment, not a branch. The output is never
// longer than the input, so it goes into one buffer of the input's size,
// returned as a view.
func (t *trCmd) Run(input string) (string, error) {
	out := make([]byte, len(input))
	if t.plain {
		translate(out, input, &t.xlate)
		return textio.View(out), nil
	}
	w := 0
	last := uint(256) // the byte last written; 256 equals no byte
	for i := 0; i < len(input); i++ {
		b := input[i]
		c := t.xlate[b]
		out[w] = c
		var repeat uint8
		if uint(c) == last {
			repeat = 1
		}
		w += int(1 ^ (t.deleted[b] | t.squeezed[c]&repeat))
		// A squeezed byte equals last already, so only a deletion keeps
		// last from moving; the update waits on no other condition.
		if t.deleted[b] == 0 {
			last = uint(c)
		}
	}
	return textio.View(out[:w]), nil
}

// translate writes xlate of each byte of in to out, which is as long.
// No byte waits on another, as none moves the write index, so eight
// lookups a step, checked against the bounds once, overlap.
func translate(out []byte, in string, xlate *[256]byte) {
	out = out[:len(in)]
	i := 0
	for ; i+8 <= len(out); i += 8 {
		o, s := out[i:i+8:i+8], in[i:i+8]
		o[0], o[1], o[2], o[3] = xlate[s[0]], xlate[s[1]], xlate[s[2]], xlate[s[3]]
		o[4], o[5], o[6], o[7] = xlate[s[4]], xlate[s[5]], xlate[s[6]], xlate[s[7]]
	}
	for ; i < len(out); i++ {
		out[i] = xlate[in[i]]
	}
}

// trRun is n copies of byte c, n ≥ 1 once the set is expanded.
type trRun struct {
	c byte
	n uint64
}

// trSet is an expanded tr SET as runs of one byte, so a [c*n] repeat costs
// one run however large n is — the set is never materialized byte by byte.
type trSet []trRun

// maxTrSetLen is the longest set and the largest [c*n] count GNU tr
// accepts (SIZE_MAX-1 on a 64-bit host).
const maxTrSetLen = math.MaxUint64 - 1

// size returns the number of bytes the set denotes.
func (s trSet) size() uint64 {
	var n uint64
	for _, r := range s {
		n += r.n
	}
	return n
}

// at returns the byte at position i, or the last byte when i is past the
// end: GNU pads SET2 with its last byte. s must not be empty.
func (s trSet) at(i uint64) byte {
	for _, r := range s {
		if i < r.n {
			return r.c
		}
		i -= r.n
	}
	return s[len(s)-1].c
}

// trRepeatCount parses the n of [c*n]: octal when it starts with 0, as in
// GNU tr; empty means 0, which asks for a fill.
func trRepeatCount(digits string) (uint64, error) {
	if digits == "" {
		return 0, nil
	}
	base := 10
	if digits[0] == '0' {
		base = 8
	}
	n, err := strconv.ParseUint(digits, base, 64)
	if err != nil || n > maxTrSetLen {
		return 0, fmt.Errorf("tr: invalid repeat count '%s' in [c*n] construct", digits)
	}
	return n, nil
}

// expandTrSet expands a tr SET description into runs. In SET2 one [c*]
// or [c*0] repeats c as often as makes the whole set as long as SET1,
// whose size is set1Len; SET1 rejects them.
func expandTrSet(s string, isSet2 bool, set1Len uint64) (trSet, error) {
	var out trSet
	var size uint64
	fill := -1 // index in out of the [c*] run, sized once the set is read
	tooMany := false
	add := func(c byte, n uint64) {
		if n > maxTrSetLen-size {
			tooMany = true
			return
		}
		if n > 0 {
			out = append(out, trRun{c, n})
			size += n
		}
	}
	i := 0
	readChar := func() (byte, error) {
		c := s[i]
		if c != '\\' {
			i++
			return c, nil
		}
		if i+1 >= len(s) {
			return 0, fmt.Errorf("tr: trailing backslash in set")
		}
		e := s[i+1]
		switch {
		case e == 'n':
			i += 2
			return '\n', nil
		case e == 't':
			i += 2
			return '\t', nil
		case e == '\\':
			i += 2
			return '\\', nil
		case e >= '0' && e <= '7':
			// octal escape, up to 3 digits
			v := 0
			j := i + 1
			for j < len(s) && j < i+4 && s[j] >= '0' && s[j] <= '7' {
				v = v*8 + int(s[j]-'0')
				j++
			}
			i = j
			return byte(v), nil
		default:
			i += 2
			return e, nil
		}
	}
	for i < len(s) {
		// POSIX class [:name:]
		if strings.HasPrefix(s[i:], "[:") {
			end := strings.Index(s[i:], ":]")
			if end >= 0 {
				name := s[i+2 : i+end]
				fn, ok := posixTrClasses[name]
				if !ok {
					return nil, fmt.Errorf("tr: unknown class [:%s:]", name)
				}
				for c := 0; c < 256; c++ {
					if fn(byte(c)) {
						add(byte(c), 1)
					}
				}
				i += end + 2
				continue
			}
		}
		// Repetition [c*] or [c*n]
		if s[i] == '[' && i+2 < len(s) {
			save := i
			i++
			c, err := readChar()
			if err != nil {
				return nil, err
			}
			if i < len(s) && s[i] == '*' {
				j := i + 1
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
				if j < len(s) && s[j] == ']' {
					n, err := trRepeatCount(s[i+1 : j])
					if err != nil {
						return nil, err
					}
					switch {
					case n > 0:
						add(c, n)
					case !isSet2:
						return nil, fmt.Errorf("tr: the [c*] repeat construct may not appear in string1")
					case fill >= 0:
						return nil, fmt.Errorf("tr: only one [c*] repeat construct may appear in string2")
					default:
						fill = len(out)
						out = append(out, trRun{c: c})
					}
					i = j + 1
					continue
				}
			}
			i = save
		}
		c, err := readChar()
		if err != nil {
			return nil, err
		}
		// Range c-hi
		if i < len(s) && s[i] == '-' && i+1 < len(s) {
			i++
			hi, err := readChar()
			if err != nil {
				return nil, err
			}
			if c > hi {
				return nil, fmt.Errorf("tr: inverted range %c-%c", c, hi)
			}
			for x := int(c); x <= int(hi); x++ {
				add(byte(x), 1)
			}
			continue
		}
		add(c, 1)
	}
	if tooMany {
		return nil, fmt.Errorf("tr: too many characters in set")
	}
	if fill >= 0 {
		if size < set1Len {
			out[fill].n = set1Len - size
		} else {
			out = append(out[:fill], out[fill+1:]...)
		}
	}
	return out, nil
}

var posixTrClasses = map[string]func(byte) bool{
	"alpha": func(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' },
	"digit": func(b byte) bool { return b >= '0' && b <= '9' },
	"lower": func(b byte) bool { return b >= 'a' && b <= 'z' },
	"upper": func(b byte) bool { return b >= 'A' && b <= 'Z' },
	"space": func(b byte) bool {
		return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
	},
	"alnum": func(b byte) bool {
		return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
	},
	"punct": func(b byte) bool {
		return b > ' ' && b < 0x7f && !(b >= 'a' && b <= 'z') && !(b >= 'A' && b <= 'Z') && !(b >= '0' && b <= '9')
	},
}

// PureTranslate reports whether this tr invocation maps lines independently
// (no squeeze and no newline involvement), i.e. whether it is a LineMapper.
func (t *trCmd) pureTranslate() bool {
	if t.squeeze {
		return false
	}
	return t.deleted['\n'] == 0 && t.xlate['\n'] == '\n'
}

// LineFunc implements LineMapper for tr invocations without cross-line
// effects: every line is translated into the function's scratch, grown
// to at least the line's length, by Run's loops without the squeeze
// (which a line mapper never has): the plain lookup when nothing is
// deleted, the write index otherwise. Translating a byte *to* '\n'
// splits the line; only a tr whose tables do that looks for the splits.
func (t *trCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		if cap(buf) < len(line) {
			buf = make([]byte, max(len(line), 2*cap(buf)))
		}
		b := buf[:len(line)]
		if t.plain {
			translate(b, line, &t.xlate)
		} else {
			w := 0
			for i := 0; i < len(line); i++ {
				c := line[i]
				b[w] = t.xlate[c]
				w += int(1 ^ t.deleted[c])
			}
			b = b[:w]
		}
		if !t.newlines {
			emit(textio.View(b))
			return
		}
		for {
			i := bytes.IndexByte(b, '\n')
			if i < 0 {
				emit(textio.View(b))
				return
			}
			emit(textio.View(b[:i]))
			b = b[i+1:]
		}
	}
}

// AsLineMapper returns the command as a LineMapper when its flags permit
// line-independent processing.
func (t *trCmd) AsLineMapper() (LineMapper, bool) {
	if t.pureTranslate() {
		return t, true
	}
	return nil, false
}
