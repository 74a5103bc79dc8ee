package unix

import (
	"fmt"
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
	set1       []byte
	set2       []byte // empty when deleting or squeezing only

	// The tables are indexed by byte. The 0/1 ones are uint8 so that Run
	// combines them arithmetically instead of branching on them.
	xlate    [256]byte  // what each byte is written as; the identity unless translated
	deleted  [256]uint8 // 1 when the input byte is deleted
	squeezed [256]uint8 // 1 when repeats of the output byte are squeezed
	affected [256]bool  // deleted or translated to a different byte
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
	t.set1, err = expandTrSet(sets[0], 0)
	if err != nil {
		return nil, err
	}
	if len(sets) == 2 {
		t.set2, err = expandTrSet(sets[1], len(t.set1))
		if err != nil {
			return nil, err
		}
	}
	t.compile()
	return t, nil
}

func (t *trCmd) compile() {
	inSet1 := [256]bool{}
	for _, c := range t.set1 {
		inSet1[c] = true
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
		if t.squeeze && len(t.set2) > 0 {
			for _, c := range t.set2 {
				t.squeezed[c] = 1
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
		set2 := t.set2
		last := set2[len(set2)-1]
		if t.complement {
			// Complemented translation: every byte not in SET1 maps to the
			// corresponding SET2 byte; GNU pads SET2 with its last byte, and
			// with -c effectively everything maps to the last byte unless
			// SET2 is long enough to cover the (ordered) complement.
			idx := 0
			for c := 0; c < 256; c++ {
				if !inSet1[c] {
					if idx < len(set2) {
						t.xlate[c] = set2[idx]
					} else {
						t.xlate[c] = last
					}
					idx++
				}
			}
		} else {
			for i, c := range t.set1 {
				if i < len(set2) {
					t.xlate[c] = set2[i]
				} else {
					t.xlate[c] = last
				}
			}
		}
		if t.squeeze {
			// Squeeze repeats of SET2 members in the output.
			for _, c := range set2 {
				t.squeezed[c] = 1
			}
		}
	}
	for c := 0; c < 256; c++ {
		t.affected[c] = t.deleted[c] == 1 || t.xlate[c] != byte(c)
	}
}

func (t *trCmd) Spec() string { return t.spec }

// Run processes the raw byte stream (tr is not line-oriented; squeezing
// crosses line boundaries, which is exactly why concat is an incorrect
// combiner for tr -s and KumQuat synthesizes rerun for it).
//
// It is one table-driven loop for every flag combination: each byte is
// translated and stored at the write index, and the index advances unless
// the byte is deleted or squeezed into the byte written before it — a
// conditional increment, not a branch. The output is never longer than
// the input, so it goes into one buffer of the input's size, returned as a
// view.
func (t *trCmd) Run(input string) (string, error) {
	out := make([]byte, len(input))
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

// expandTrSet expands a tr SET description into bytes. targetLen is used by
// the [c*] notation in SET2 (repeat to match SET1's length); 0 means SET1.
func expandTrSet(s string, targetLen int) ([]byte, error) {
	var out []byte
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
						out = append(out, byte(c))
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
				n := 0
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					n = n*10 + int(s[j]-'0')
					j++
				}
				if j < len(s) && s[j] == ']' {
					if n == 0 {
						n = targetLen - len(out)
						if n < 1 {
							n = 1
						}
					}
					for k := 0; k < n; k++ {
						out = append(out, c)
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
				out = append(out, byte(x))
			}
			continue
		}
		out = append(out, c)
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
	return !t.affected['\n']
}

// LineFunc implements LineMapper for tr invocations without cross-line
// effects: lines with no affected byte pass through untouched; others are
// rewritten into the function's scratch in one pass. Translating a byte
// *to* '\n' splits the line.
func (t *trCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		changed := false
		for i := 0; i < len(line); i++ {
			if t.affected[line[i]] {
				changed = true
				break
			}
		}
		if !changed {
			emit(line)
			return
		}
		b := buf[:0] // a local for the byte loop; stored back once
		split := false
		for i := 0; i < len(line); i++ {
			c := line[i]
			if t.deleted[c] == 1 {
				continue
			}
			c = t.xlate[c]
			if c == '\n' {
				split = true
			}
			b = append(b, c)
		}
		buf = b
		if !split {
			emit(textio.View(b))
			return
		}
		start := 0
		for i := 0; i <= len(b); i++ {
			if i == len(b) || b[i] == '\n' {
				emit(textio.View(b[start:i]))
				start = i + 1
			}
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
