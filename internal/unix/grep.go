package unix

import (
	"fmt"
	"strconv"
	"strings"

	"kumquat/internal/regexlite"
	"kumquat/internal/textio"
)

// grepCmd implements grep with BRE patterns and the flags the benchmarks
// combine: -c (count), -v (invert), -i (ignore case), -vc, -vi.
type grepCmd struct {
	spec    string
	re      *regexlite.Regexp
	pattern string
	count   bool
	invert  bool
}

func newGrep(spec string, args []string, _ *Env) (Command, error) {
	g := &grepCmd{spec: spec}
	icase := false
	var pattern string
	seenPattern := false
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 && !seenPattern {
			for _, f := range a[1:] {
				switch f {
				case 'c':
					g.count = true
				case 'v':
					g.invert = true
				case 'i':
					icase = true
				default:
					return nil, fmt.Errorf("grep: unsupported flag -%c", f)
				}
			}
			continue
		}
		if seenPattern {
			return nil, fmt.Errorf("grep: unexpected argument %q", a)
		}
		pattern = a
		seenPattern = true
	}
	if !seenPattern {
		return nil, fmt.Errorf("grep: missing pattern")
	}
	var err error
	if icase {
		g.re, err = regexlite.CompileFold(pattern)
	} else {
		g.re, err = regexlite.Compile(pattern)
	}
	if err != nil {
		return nil, err
	}
	g.pattern = pattern
	return g, nil
}

func (g *grepCmd) Spec() string { return g.spec }

// Pattern returns the BRE source, which KumQuat preprocessing mines for the
// input dictionary (§3.2: "KumQuat extracts this regular expression and
// generates a dictionary of strings that match").
func (g *grepCmd) Pattern() string { return g.pattern }

func (g *grepCmd) keep(line string) bool {
	return g.re.MatchString(line) != g.invert
}

func (g *grepCmd) Run(input string) (string, error) {
	if g.count {
		n := 0
		for _, l := range textio.Lines(input) {
			if g.keep(l) {
				n++
			}
		}
		return strconv.Itoa(n) + "\n", nil
	}
	return RunLines(g, input), nil
}

// LineFunc implements LineMapper for the filtering (non -c) mode: a kept
// line is emitted as-is, a dropped one produces nothing.
func (g *grepCmd) LineFunc(emit EmitFunc) EmitFunc {
	return func(line string) {
		if g.keep(line) {
			emit(line)
		}
	}
}

// AsLineMapper reports line-independence: true unless counting.
func (g *grepCmd) AsLineMapper() (LineMapper, bool) {
	if g.count {
		return nil, false
	}
	return g, true
}
