package unix

import (
	"fmt"
	"strconv"
	"strings"

	"kumquat/internal/regexlite"
	"kumquat/internal/textio"
)

// sedCmd implements the sed scripts the benchmarks use:
//
//	s<D>PAT<D>REPL<D>[g]   substitution with any delimiter (s/…/…/, s;…;…;)
//	Nd                     delete line N
//	Nq                     quit after printing N lines (sed 100q, sed 5q)
//
// Substitution patterns are BREs with groups; replacements support & and \N.
type sedCmd struct {
	spec string

	// substitution
	sub     bool
	re      *regexlite.Regexp
	pattern string
	repl    string
	global  bool

	// address command
	addr int
	op   byte // 'd' or 'q', 0 when substitution
}

func newSed(spec string, args []string, _ *Env) (Command, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("sed: need exactly one script, got %d args", len(args))
	}
	script := args[0]
	s := &sedCmd{spec: spec}
	if strings.HasPrefix(script, "s") && len(script) > 2 {
		d := script[1]
		parts := splitUnescaped(script[2:], d)
		if len(parts) < 2 {
			return nil, fmt.Errorf("sed: bad substitution %q", script)
		}
		pat, repl := parts[0], parts[1]
		flags := ""
		if len(parts) >= 3 {
			flags = parts[2]
		}
		re, err := regexlite.Compile(pat)
		if err != nil {
			return nil, err
		}
		s.sub = true
		s.re = re
		s.pattern = pat
		s.repl = repl
		s.global = strings.Contains(flags, "g")
		return s, nil
	}
	// Address command: Nd or Nq.
	if len(script) >= 2 {
		op := script[len(script)-1]
		if op == 'd' || op == 'q' {
			n, err := strconv.Atoi(script[:len(script)-1])
			if err == nil && n >= 1 {
				s.addr = n
				s.op = op
				return s, nil
			}
		}
	}
	return nil, fmt.Errorf("sed: unsupported script %q", script)
}

// splitUnescaped splits s on d, keeping backslash-escaped delimiters inside
// the parts (an escaped delimiter stays escaped for the regex parser).
func splitUnescaped(s string, d byte) []string {
	var parts []string
	var cur []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			cur = append(cur, c, s[i+1])
			i++
			continue
		}
		if c == d {
			parts = append(parts, string(cur))
			cur = cur[:0]
			continue
		}
		cur = append(cur, c)
	}
	parts = append(parts, string(cur))
	return parts
}

func (s *sedCmd) Spec() string { return s.spec }

func (s *sedCmd) Run(input string) (string, error) {
	if s.sub {
		return RunLines(s, input), nil
	}
	lines := textio.Lines(input)
	var out []string
	switch s.op {
	case 'd':
		for i, l := range lines {
			if i+1 != s.addr {
				out = append(out, l)
			}
		}
	case 'q':
		out = lines
		if len(out) > s.addr {
			out = out[:s.addr]
		}
	}
	return textio.JoinLines(out), nil
}

// LineFunc implements LineMapper for substitutions, which are per-line.
// Lines without a match pass through unchanged; a rewritten line is built
// in the function's scratch and emitted as a view of it.
func (s *sedCmd) LineFunc(emit EmitFunc) EmitFunc {
	replace := s.re.ReplaceFirst
	if s.global {
		replace = s.re.ReplaceAll
	}
	var buf []byte
	return func(line string) {
		b, ok := replace(buf[:0], line, s.repl)
		if !ok {
			emit(line)
			return
		}
		buf = b
		emit(textio.View(b))
	}
}

// AsLineMapper reports line-independence (substitutions only; Nd and Nq
// depend on absolute line position).
func (s *sedCmd) AsLineMapper() (LineMapper, bool) {
	if s.sub {
		return s, true
	}
	return nil, false
}

// Literals exposes numeric literals in address scripts (sed 100q → 100),
// which preprocessing uses to seed input shapes near the threshold (§3.2).
func (s *sedCmd) Literals() []int {
	if s.op != 0 {
		return []int{s.addr}
	}
	return nil
}

// Pattern returns the substitution's BRE source ("" for address scripts);
// preprocessing mines it for dictionary strings that actually match.
func (s *sedCmd) Pattern() string { return s.pattern }
