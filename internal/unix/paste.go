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
// combiner synthesis (footnote 5); the planner runs it serially.
type pasteCmd struct {
	spec  string
	env   *Env
	files []string
}

func newPaste(spec string, args []string, env *Env) (Command, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("paste: need at least one operand")
	}
	return &pasteCmd{spec: spec, env: env, files: args}, nil
}

func (p *pasteCmd) Spec() string { return p.spec }

// ReadsEnv: paste reads every operand but "-" from the Env's files.
func (p *pasteCmd) ReadsEnv() bool {
	return slices.ContainsFunc(p.files, func(f string) bool { return f != "-" })
}

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
