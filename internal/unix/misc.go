package unix

import (
	"fmt"
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// catCmd: identity over the stream. `cat $IN` at the head of a pipeline is
// handled by the pipeline parser (it becomes the input source); a mid-
// pipeline cat is the identity command. It keeps the Env only when its
// operand names a file.
type catCmd struct {
	spec string
	env  *Env
	file string
}

func newCat(spec string, args []string, env *Env) (Command, error) {
	c := &catCmd{spec: spec}
	if len(args) > 1 {
		return nil, fmt.Errorf("cat: at most one file operand supported")
	}
	if len(args) == 1 && args[0] != "-" {
		c.env, c.file = env, args[0]
	}
	return c, nil
}

func (c *catCmd) Spec() string { return c.spec }

// ReadsEnv reports whether Run's output depends on the simulated file
// system (cat with a file operand): such results must not be reused
// across environments.
func (c *catCmd) ReadsEnv() bool { return c.env != nil }

func (c *catCmd) Run(input string) (string, error) {
	if c.env != nil {
		return c.env.FS.Read(c.file)
	}
	return input, nil
}

// LineFunc implements LineMapper for stdin cat: the identity map.
func (c *catCmd) LineFunc(emit EmitFunc) EmitFunc { return emit }

// AsLineMapper: stdin cat is the identity line map.
func (c *catCmd) AsLineMapper() (LineMapper, bool) {
	if c.env != nil {
		return nil, false
	}
	return c, true
}

// revCmd reverses each line (rev(1)).
type revCmd struct{ spec string }

func newRev(spec string, args []string, _ *Env) (Command, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("rev: arguments not supported")
	}
	return &revCmd{spec: spec}, nil
}

func (r *revCmd) Spec() string { return r.spec }

func (r *revCmd) Run(input string) (string, error) { return RunLines(r, input), nil }

// LineFunc implements LineMapper: the reversed line is built in scratch.
func (r *revCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		b := append(buf[:0], line...)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		buf = b
		emit(textio.View(b))
	}
}

// fmtCmd implements fmt -wN for the one width the benchmarks use (fmt -w1:
// every word on its own line).
type fmtCmd struct {
	spec  string
	width int
}

func newFmt(spec string, args []string, _ *Env) (Command, error) {
	f := &fmtCmd{spec: spec, width: 75}
	for i := 0; i < len(args); i++ {
		w, ok := strings.CutPrefix(args[i], "-w")
		if !ok {
			return nil, fmt.Errorf("fmt: unsupported argument %q", args[i])
		}
		if w == "" {
			if i++; i == len(args) {
				return nil, fmt.Errorf("fmt: -w needs a width")
			}
			w = args[i]
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fmt: invalid width %q", w)
		}
		f.width = n
	}
	return f, nil
}

func (f *fmtCmd) Spec() string { return f.spec }

func (f *fmtCmd) Run(input string) (string, error) { return RunLines(f, input), nil }

// LineFunc implements LineMapper: it greedily packs words into lines of at
// most width characters; with -w1 every word lands on its own line. Words
// longer than the width get a line of their own, as in GNU fmt, and a
// blank line stays one empty line.
func (f *fmtCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		b := buf[:0]
		fs := textio.Fields(line)
		for {
			w, ok := fs.Next()
			if !ok {
				break
			}
			switch {
			case len(b) == 0:
			case len(b)+1+len(w) <= f.width:
				b = append(b, ' ')
			default:
				emit(textio.View(b))
				b = b[:0]
			}
			b = append(b, w...)
		}
		buf = b
		emit(textio.View(b))
	}
}

// colCmd implements col -bx: -b removes backspace sequences (char pairs
// "X\b" delete both), -x converts tabs to spaces at 8-column stops.
type colCmd struct {
	spec         string
	noBackspace  bool
	tabsToSpaces bool
}

func newCol(spec string, args []string, _ *Env) (Command, error) {
	c := &colCmd{spec: spec}
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			return nil, fmt.Errorf("col: unexpected argument %q", a)
		}
		for _, f := range a[1:] {
			switch f {
			case 'b':
				c.noBackspace = true
			case 'x':
				c.tabsToSpaces = true
			default:
				return nil, fmt.Errorf("col: unsupported flag -%c", f)
			}
		}
	}
	return c, nil
}

func (c *colCmd) Spec() string { return c.spec }

func (c *colCmd) Run(input string) (string, error) { return RunLines(c, input), nil }

// LineFunc implements LineMapper: one pass per line into scratch, whose
// length is the output column the tab stops count from.
func (c *colCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		b := buf[:0]
		for i := 0; i < len(line); i++ {
			ch := line[i]
			switch {
			case ch == '\b' && c.noBackspace:
				// col -b: a backspace erases the previous character.
				if len(b) > 0 {
					b = b[:len(b)-1]
				}
			case ch == '\t' && c.tabsToSpaces:
				for n := 8 - len(b)%8; n > 0; n-- {
					b = append(b, ' ')
				}
			default:
				b = append(b, ch)
			}
		}
		buf = b
		emit(textio.View(b))
	}
}

// iconvCmd implements iconv -f utf-8 -t ascii//translit: transliterate
// common accented Latin letters to their ASCII base and replace anything
// else non-ASCII with '?', GNU-style.
type iconvCmd struct{ spec string }

func newIconv(spec string, args []string, _ *Env) (Command, error) {
	// Accept and validate the benchmark's fixed argument form.
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-f", "-t":
			i++ // charset operand
		default:
			if !strings.Contains(args[i], "ascii") && !strings.Contains(args[i], "utf") {
				return nil, fmt.Errorf("iconv: unsupported argument %q", args[i])
			}
		}
	}
	return &iconvCmd{spec: spec}, nil
}

func (ic *iconvCmd) Spec() string { return ic.spec }

func (ic *iconvCmd) Run(input string) (string, error) { return RunLines(ic, input), nil }

var translitTable = map[rune]string{
	'á': "a", 'à': "a", 'â': "a", 'ä': "a", 'ã': "a", 'å': "a",
	'é': "e", 'è': "e", 'ê': "e", 'ë': "e",
	'í': "i", 'ì': "i", 'î': "i", 'ï': "i",
	'ó': "o", 'ò': "o", 'ô': "o", 'ö': "o", 'õ': "o",
	'ú': "u", 'ù': "u", 'û': "u", 'ü': "u",
	'ç': "c", 'ñ': "n", 'ß': "ss", 'æ': "ae", 'œ': "oe",
	'Á': "A", 'À': "A", 'Â': "A", 'Ä': "A", 'Ã': "A", 'Å': "A",
	'É': "E", 'È': "E", 'Ê': "E", 'Ë': "E",
	'Í': "I", 'Ì': "I", 'Î': "I", 'Ï': "I",
	'Ó': "O", 'Ò': "O", 'Ô': "O", 'Ö': "O", 'Õ': "O",
	'Ú': "U", 'Ù': "U", 'Û': "U", 'Ü': "U",
	'Ç': "C", 'Ñ': "N", '’': "'", '‘': "'", '“': "\"", '”': "\"",
	'—': "-", '–': "-", '…': "...",
}

// LineFunc implements LineMapper: ASCII lines pass through untouched,
// others are transliterated rune by rune into scratch.
func (ic *iconvCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	return func(line string) {
		if isASCII(line) {
			emit(line)
			return
		}
		b := buf[:0]
		for _, r := range line {
			if r < 0x80 {
				b = append(b, byte(r))
			} else if t, ok := translitTable[r]; ok {
				b = append(b, t...)
			} else {
				b = append(b, '?')
			}
		}
		buf = b
		emit(textio.View(b))
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// commCmd implements comm -23 - FILE: lines unique to stdin, with both
// inputs required to be sorted in C collation (unsorted input is an error,
// which is what makes the §3.2 probes choose sorted input generation for
// comm-based commands).
type commCmd struct {
	spec     string
	env      *Env
	file1    string // "-" for stdin, else an FS file
	file     string
	suppress [3]bool // columns 1..3
}

func newComm(spec string, args []string, env *Env) (Command, error) {
	c := &commCmd{spec: spec, env: env}
	var operands []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") && len(a) > 1 && a != "-" {
			for _, f := range a[1:] {
				switch f {
				case '1':
					c.suppress[0] = true
				case '2':
					c.suppress[1] = true
				case '3':
					c.suppress[2] = true
				default:
					return nil, fmt.Errorf("comm: unsupported flag -%c", f)
				}
			}
			continue
		}
		operands = append(operands, a)
	}
	if len(operands) != 2 {
		return nil, fmt.Errorf("comm: expected two operands, got %v", operands)
	}
	c.file1 = operands[0]
	c.file = operands[1]
	return c, nil
}

func (c *commCmd) Spec() string { return c.spec }

// NeedsSortedInput marks this command for sorted input generation.
func (c *commCmd) NeedsSortedInput() bool { return true }

// MultiInput reports whether comm reads two files (no stdin): such
// invocations are outside the single-stream synthesis model.
func (c *commCmd) MultiInput() bool { return c.file1 != "-" }

// ReadsEnv reports that Run's output depends on the simulated file
// system (the dictionary operand), so results must not be reused across
// environments.
func (c *commCmd) ReadsEnv() bool { return true }

func (c *commCmd) Run(input string) (string, error) {
	first := input
	if c.file1 != "-" {
		var err error
		first, err = c.env.FS.Read(c.file1)
		if err != nil {
			return "", fmt.Errorf("comm: %s", err)
		}
	}
	dict, err := c.env.FS.Read(c.file)
	if err != nil {
		return "", fmt.Errorf("comm: %s", err)
	}
	a := textio.Lines(first)
	b := textio.Lines(dict)
	if !sortedC(a) {
		return "", fmt.Errorf("comm: file 1 is not in sorted order")
	}
	if !sortedC(b) {
		return "", fmt.Errorf("comm: file 2 is not in sorted order")
	}
	var out strings.Builder
	emit := func(col int, line string) {
		if c.suppress[col-1] {
			return
		}
		indent := 0
		if col >= 2 && !c.suppress[0] {
			indent++
		}
		if col == 3 && !c.suppress[1] {
			indent++
		}
		out.WriteString(strings.Repeat("\t", indent))
		out.WriteString(line)
		out.WriteByte('\n')
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch cmp := strings.Compare(a[i], b[j]); {
		case cmp < 0:
			emit(1, a[i])
			i++
		case cmp > 0:
			emit(2, b[j])
			j++
		default:
			emit(3, a[i])
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(1, a[i])
	}
	for ; j < len(b); j++ {
		emit(2, b[j])
	}
	return out.String(), nil
}

func sortedC(lines []string) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			return false
		}
	}
	return true
}
