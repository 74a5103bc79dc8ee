package unix

import (
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// A line count reads no line: wc -l's output depends on the number of
// newlines in its input and on nothing else. Two optional capability
// declarations, in the manner of OrderInsensitive, say what a line
// mapper in front of it does to that number: a command declares one by
// having the method its probe asks for. The dataflow optimizer's
// dead-mappers rule reads them to drop the mappers whose output only
// the count observes; Chain.Stepwise counts a mapper's lines without
// writing them.

// PreservesLines reports whether c declares one line out for every line
// in: for its exact flag set, its Run never fails, returns exactly as
// many lines as it reads (an unterminated last line counts as one), and
// ends its output in a newline whenever its input ends in one. A command
// that does not declare it is taken not to.
func PreservesLines(c Command) bool {
	lp, ok := c.(interface{ PreservesLines() bool })
	return ok && lp.PreservesLines()
}

// TerminatesLines reports whether c declares that its Run's output is
// empty or ends in a newline, whatever the input: an unterminated last
// line comes out terminated. A command that does not declare it is
// taken not to (tr and cat pass an unterminated line through).
func TerminatesLines(c Command) bool {
	lt, ok := c.(interface{ TerminatesLines() bool })
	return ok && lt.TerminatesLines()
}

// CountsLines reports whether c is a line count, wc -l, which reads
// line boundaries and nothing else (wc, wc -w and grep -c read more).
func CountsLines(c Command) bool {
	w, ok := c.(*wcCmd)
	return ok && w.lines && !w.words && !w.bytes
}

// PreservesLines: a plain translation, which deletes and squeezes
// nothing, keeps every byte; if it maps no byte to or from a newline,
// every line stays one line. (A deletion may empty an unterminated last
// line, which is then no line at all.)
func (t *trCmd) PreservesLines() bool { return t.plain && t.pureTranslate() && !t.newlines }

// PreservesLines: a substitution whose replacement writes no newline
// rewrites each line into one (the line driver terminates it); & and \N
// splice text of the line, which holds no newline.
func (s *sedCmd) PreservesLines() bool {
	if !s.sub {
		return false
	}
	for i := 0; i < len(s.repl); i++ {
		switch c := s.repl[i]; {
		case c == '\n':
			return false
		case c == '\\' && i+1 < len(s.repl):
			if s.repl[i+1] == 'n' {
				return false
			}
			i++
		}
	}
	return true
}

// TerminatesLines: a substitution's Run is the line driver.
func (s *sedCmd) TerminatesLines() bool { return s.sub }

// PreservesLines: every form of cut selects one span of each line.
func (c *cutCmd) PreservesLines() bool { return true }

// TerminatesLines: cut's Run is the line driver.
func (c *cutCmd) TerminatesLines() bool { return true }

// TerminatesLines: grep's Run is the line driver, or -c's one count
// line.
func (g *grepCmd) TerminatesLines() bool { return true }

// countLines is a line mapper piped into wc -l, run as one pass that
// writes no line: it returns wc -l's output and the volume of the lines
// the mapper would write, len(lm.Run(input)). The terminated lines go
// through the mapper's line function, each emitted line counting once
// plus its embedded newlines (sed 's/a/\n/') and its length plus one;
// the unterminated tail goes through the mapper's own Run, as Chain.Run
// sends it.
func countLines(lm LineMapper, input string) (count string, volume int64, err error) {
	lines := 0
	cut := strings.LastIndexByte(input, '\n') + 1
	mapLine := lm.LineFunc(func(line string) {
		lines += 1 + textio.CountByte('\n', line)
		volume += int64(len(line)) + 1
	})
	for rest := input[:cut]; rest != ""; {
		i := strings.IndexByte(rest, '\n')
		mapLine(rest[:i])
		rest = rest[i+1:]
	}
	if tail := input[cut:]; tail != "" {
		out, err := lm.Run(tail)
		if err != nil {
			return "", 0, err
		}
		lines += textio.CountByte('\n', out)
		volume += int64(len(out))
	}
	return strconv.Itoa(lines) + "\n", volume, nil
}
