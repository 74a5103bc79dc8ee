package unix

import (
	"fmt"
	"slices"
	"strings"

	"kumquat/internal/textio"
)

// This file implements the benchmark commands that do not process a single
// input stream: ls, mkfifo and rm (no data stream at all), diff and
// two-file comm (multiple input streams), and the bi-grams helper function.
// The paper excludes all of these from combiner synthesis (footnote 5);
// the planner runs them serially.

// noStream marks commands outside the f : Stream → Stream model.
type noStream struct{}

// NonStream identifies the command as outside the synthesis model.
func (noStream) NonStream() bool { return true }

// lsCmd lists the FS corpus under a directory prefix, emitting base names
// (the poets scripts re-attach the directory with sed "s;^;$IN;").
type lsCmd struct {
	noStream
	spec string
	env  *Env
	dir  string
}

func newLs(spec string, args []string, env *Env) (Command, error) {
	l := &lsCmd{spec: spec, env: env}
	if len(args) > 1 {
		return nil, fmt.Errorf("ls: at most one directory operand supported")
	}
	if len(args) == 1 {
		l.dir = args[0]
	}
	return l, nil
}

func (l *lsCmd) Spec() string { return l.spec }

// ReadsEnv: ls lists the Env's files.
func (l *lsCmd) ReadsEnv() bool { return true }

func (l *lsCmd) Run(string) (string, error) {
	prefix := l.dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var b strings.Builder
	for _, name := range l.env.FS.NamesUnder(prefix) {
		b.WriteString(strings.TrimPrefix(name, prefix))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// mkfifoCmd is a no-op in the in-memory environment: the named pipes the
// scripts create are modelled by FS files written by output redirects.
type mkfifoCmd struct {
	noStream
	spec string
}

func newMkfifo(spec string, _ []string, _ *Env) (Command, error) {
	return &mkfifoCmd{spec: spec}, nil
}

func (m *mkfifoCmd) Spec() string               { return m.spec }
func (m *mkfifoCmd) Run(string) (string, error) { return "", nil }

// rmCmd removes FS files; missing operands are ignored (like rm -f).
type rmCmd struct {
	noStream
	spec  string
	env   *Env
	names []string
}

func newRm(spec string, args []string, env *Env) (Command, error) {
	return &rmCmd{spec: spec, env: env, names: args}, nil
}

func (r *rmCmd) Spec() string { return r.spec }

// ReadsEnv: rm writes the Env's files.
func (r *rmCmd) ReadsEnv() bool { return true }

func (r *rmCmd) Run(string) (string, error) {
	for _, n := range r.names {
		r.env.FS.Remove(n)
	}
	return "", nil
}

// diffCmd implements diff FILE1 FILE2 for the benchmark's use on two
// sorted streams: a merge walk emitting "< line" for lines only in FILE1
// and "> line" for lines only in FILE2. -B (ignore blank lines) is
// accepted.
type diffCmd struct {
	spec         string
	env          *Env
	ignoreBlanks bool
	files        []string
}

func newDiff(spec string, args []string, env *Env) (Command, error) {
	d := &diffCmd{spec: spec, env: env}
	for _, a := range args {
		if a == "-B" {
			d.ignoreBlanks = true
			continue
		}
		if strings.HasPrefix(a, "-") && a != "-" {
			return nil, fmt.Errorf("diff: unsupported flag %q", a)
		}
		d.files = append(d.files, a)
	}
	if len(d.files) != 2 {
		return nil, fmt.Errorf("diff: need two operands")
	}
	return d, nil
}

func (d *diffCmd) Spec() string { return d.spec }

// ReadsEnv: diff reads every operand but "-" from the Env's files.
func (d *diffCmd) ReadsEnv() bool {
	return slices.ContainsFunc(d.files, func(f string) bool { return f != "-" })
}

// MultiInput: diff reads two input streams.
func (d *diffCmd) MultiInput() bool { return true }

func (d *diffCmd) read(name, stdin string) (string, error) {
	if name == "-" {
		return stdin, nil
	}
	return d.env.FS.Read(name)
}

func (d *diffCmd) Run(input string) (string, error) {
	c1, err := d.read(d.files[0], input)
	if err != nil {
		return "", fmt.Errorf("diff: %s", err)
	}
	c2, err := d.read(d.files[1], input)
	if err != nil {
		return "", fmt.Errorf("diff: %s", err)
	}
	clean := func(lines []string) []string {
		if !d.ignoreBlanks {
			return lines
		}
		out := lines[:0:0]
		for _, l := range lines {
			if strings.TrimSpace(l) != "" {
				out = append(out, l)
			}
		}
		return out
	}
	a, b := clean(textio.Lines(c1)), clean(textio.Lines(c2))
	var out strings.Builder
	emit := func(marker string, line string) {
		out.WriteString(marker)
		out.WriteString(line)
		out.WriteByte('\n')
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			emit("< ", a[i])
			i++
		default:
			emit("> ", b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		emit("< ", a[i])
	}
	for ; j < len(b); j++ {
		emit("> ", b[j])
	}
	return out.String(), nil
}

// bigramsAuxCmd stands in for the oneliners bi-grams.sh shell function: it
// pairs each input line (one word per line) with its successor. No DSL
// combiner exists for it (the boundary-crossing pair cannot be rebuilt from
// the two output substreams), so synthesis correctly rejects it and the
// planner runs it serially — the paper counts it among the function-call
// stages it cannot parallelize.
type bigramsAuxCmd struct {
	spec string
}

func newBigramsAux(spec string, args []string, _ *Env) (Command, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("bigrams_aux: arguments not supported")
	}
	return &bigramsAuxCmd{spec: spec}, nil
}

func (b *bigramsAuxCmd) Spec() string { return b.spec }

func (b *bigramsAuxCmd) Run(input string) (string, error) {
	lines := textio.Lines(input)
	var out strings.Builder
	for i := 0; i+1 < len(lines); i++ {
		out.WriteString(lines[i])
		out.WriteByte(' ')
		out.WriteString(lines[i+1])
		out.WriteByte('\n')
	}
	return out.String(), nil
}
