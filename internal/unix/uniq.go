package unix

import (
	"fmt"
	"strconv"

	"kumquat/internal/textio"
)

// uniqCmd implements uniq and uniq -c: collapse runs of equal consecutive
// lines; -c prefixes each surviving line with its run count formatted GNU
// style ("%7d "), which is the padded-table shape the stitch2 combiner's
// delPad/addPad semantics are built around.
type uniqCmd struct {
	spec  string
	count bool
}

func newUniq(spec string, args []string, _ *Env) (Command, error) {
	u := &uniqCmd{spec: spec}
	for _, a := range args {
		switch a {
		case "-c":
			u.count = true
		default:
			return nil, fmt.Errorf("uniq: unsupported argument %q", a)
		}
	}
	return u, nil
}

func (u *uniqCmd) Spec() string { return u.spec }

// Run walks adjacent lines in place, with textio.Lines' boundaries: "\n"
// is one empty line, and an unterminated last line counts. The first
// terminated repeat of a line starts a run, and the copies after it are
// counted by galloping over the input (copies, as the merge front does)
// rather than line by line; a line that is not repeated pays nothing
// for it. The output is one buffer, sized to the input, that only a -c
// table of short runs can outgrow.
func (u *uniqCmd) Run(input string) (string, error) {
	if input == "" {
		return "", nil
	}
	b := make([]byte, 0, len(input)+1)
	line, rest, _ := textio.SplitFirstLine(input)
	for {
		n := 1
		next, more := "", false
		for rest != "" {
			var terminated bool
			next, rest, terminated = textio.SplitFirstLine(rest)
			if next != line {
				more = true
				break
			}
			n++
			if terminated {
				// A run: its copies from this one on, by galloping.
				w := len(line) + 1
				from := len(input) - len(rest) - w
				m := copies(input, from, w)
				n += m - 1
				rest = input[from+m*w:]
			}
		}
		if u.count {
			b = appendCount(b, n)
		}
		b = append(b, line...)
		b = append(b, '\n')
		if !more {
			return textio.View(b), nil
		}
		line = next
	}
}

// appendCount appends n as uniq -c formats it: "%7d ".
func appendCount(b []byte, n int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < 7; i++ {
		b = append(b, ' ')
	}
	b = append(b, d...)
	return append(b, ' ')
}
