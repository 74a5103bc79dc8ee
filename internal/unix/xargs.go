package unix

import (
	"fmt"
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// xargsCmd implements the xargs invocations the benchmarks use. Input items
// are whitespace-separated tokens (file names); the sub-command is applied
// to them:
//
//	xargs cat           concatenate file contents in item order
//	xargs file          one "name: type" line per item
//	xargs -L 1 wc -l    one "count name" line per input line
//
// A missing file is an error, which is what drives the probe behaviour in
// §3.2 (xargs fails on word-list probes, succeeds on file-name lists).
type xargsCmd struct {
	spec    string
	env     *Env
	perLine bool   // -L 1
	sub     string // "cat", "file" or "wc"
	wcFlag  string
}

func newXargs(spec string, args []string, env *Env) (Command, error) {
	x := &xargsCmd{spec: spec, env: env}
	i := 0
	for i < len(args) {
		a := args[i]
		switch {
		case a == "-L" && i+1 < len(args):
			n, err := strconv.Atoi(args[i+1])
			if err != nil || n != 1 {
				return nil, fmt.Errorf("xargs: only -L 1 is supported")
			}
			x.perLine = true
			i += 2
		case strings.HasPrefix(a, "-L"):
			if a[2:] != "1" {
				return nil, fmt.Errorf("xargs: only -L 1 is supported")
			}
			x.perLine = true
			i++
		default:
			goto subcmd
		}
	}
subcmd:
	if i >= len(args) {
		return nil, fmt.Errorf("xargs: missing sub-command")
	}
	switch args[i] {
	case "cat", "file":
		x.sub = args[i]
		if i+1 != len(args) {
			return nil, fmt.Errorf("xargs: unexpected arguments after %s", args[i])
		}
	case "wc":
		x.sub = "wc"
		if i+1 >= len(args) || args[i+1] != "-l" {
			return nil, fmt.Errorf("xargs: only wc -l is supported")
		}
	default:
		return nil, fmt.Errorf("xargs: unsupported sub-command %q", args[i])
	}
	return x, nil
}

func (x *xargsCmd) Spec() string { return x.spec }

// ReadsEnv: xargs reads the file each input item names.
func (x *xargsCmd) ReadsEnv() bool { return true }

// NeedsFileNames marks this command for the file-name input dictionary.
func (x *xargsCmd) NeedsFileNames() bool { return true }

func (x *xargsCmd) Run(input string) (string, error) {
	var b strings.Builder
	process := func(items []string) error {
		for _, name := range items {
			content, err := x.env.FS.Read(name)
			if err != nil {
				return fmt.Errorf("xargs: %s", err)
			}
			switch x.sub {
			case "cat":
				b.WriteString(content)
			case "file":
				fmt.Fprintf(&b, "%s: %s\n", name, classifyFile(name, content))
			case "wc":
				fmt.Fprintf(&b, "%d %s\n", textio.CountByte('\n', content), name)
			}
		}
		return nil
	}
	if x.perLine {
		// One field slice reused across every line of the run (the shared
		// kernel recycles its capacity; strings.Fields allocated per line).
		var items []string
		ls := textio.ScanLines(input)
		for i := 0; i < ls.Len(); i++ {
			items = textio.AppendFields(items[:0], ls.Line(i))
			if len(items) == 0 {
				continue
			}
			if err := process(items); err != nil {
				return "", err
			}
		}
		return b.String(), nil
	}
	items := textio.AppendFields(nil, input)
	if err := process(items); err != nil {
		return "", err
	}
	return b.String(), nil
}

// classifyFile is the deterministic stand-in for file(1)'s magic detection.
func classifyFile(name, content string) string {
	switch {
	case strings.HasPrefix(content, "#!"):
		line, _, _ := strings.Cut(content[2:], "\n")
		return strings.TrimSpace(line) + " script, ASCII text executable"
	case content == "":
		return "empty"
	case strings.HasSuffix(name, ".sh"):
		return "ASCII text"
	default:
		return "ASCII text"
	}
}

// fileCmd implements file(1) over stdin lines (each input line names a
// file). Only used through xargs in the benchmarks, but parseable directly.
type fileCmd struct {
	spec string
	env  *Env
}

func newFile(spec string, args []string, env *Env) (Command, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("file: arguments not supported")
	}
	return &fileCmd{spec: spec, env: env}, nil
}

func (f *fileCmd) Spec() string { return f.spec }

// ReadsEnv: file reads the file each input line names.
func (f *fileCmd) ReadsEnv() bool { return true }

func (f *fileCmd) Run(input string) (string, error) {
	var b strings.Builder
	for _, name := range textio.Lines(input) {
		content, err := f.env.FS.Read(name)
		if err != nil {
			return "", fmt.Errorf("file: %s", err)
		}
		fmt.Fprintf(&b, "%s: %s\n", name, classifyFile(name, content))
	}
	return b.String(), nil
}
