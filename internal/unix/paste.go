package unix

import (
	"fmt"
	"slices"
	"strings"

	"kumquat/internal/textio"
)

// pasteCmd implements paste FILE... with "-" for standard input: it joins
// the i-th lines of its operands with tabs. The poets trigram scripts use
// it to align a word list with its shifted copies. paste processes multiple
// input streams, so it is one of the commands the paper excludes from
// combiner synthesis (footnote 5); the planner runs it serially. It
// keeps the Env only when an operand names a file.
type pasteCmd struct {
	spec  string
	env   *Env
	files []string
}

func newPaste(spec string, args []string, env *Env) (Command, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("paste: need at least one operand")
	}
	return &pasteCmd{spec: spec, env: namesFile(args, env), files: args}, nil
}

// namesFile is env when some operand names a file (is not "-"), else
// nil: a command that reads only its input keeps no Env.
func namesFile(operands []string, env *Env) *Env {
	if slices.ContainsFunc(operands, func(f string) bool { return f != "-" }) {
		return env
	}
	return nil
}

func (p *pasteCmd) Spec() string { return p.spec }

// ReadsEnv: paste reads every operand but "-" from the Env's files.
func (p *pasteCmd) ReadsEnv() bool { return p.env != nil }

// MultiInput marks commands that read several input streams; the
// synthesizer skips them (no single-stream combiner model applies).
func (p *pasteCmd) MultiInput() bool { return true }

func (p *pasteCmd) Run(input string) (string, error) {
	columns := make([][]string, len(p.files))
	rows := 0
	for i, f := range p.files {
		var content string
		if f == "-" {
			content = input
		} else {
			var err error
			content, err = p.env.FS.Read(f)
			if err != nil {
				return "", fmt.Errorf("paste: %s", err)
			}
		}
		columns[i] = textio.Lines(content)
		if len(columns[i]) > rows {
			rows = len(columns[i])
		}
	}
	var b strings.Builder
	for r := 0; r < rows; r++ {
		parts := make([]string, len(columns))
		for c := range columns {
			if r < len(columns[c]) {
				parts[c] = columns[c][r]
			}
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String(), nil
}
