package unix

import (
	"errors"
	"fmt"
	"strings"
)

// Chain is a pipeline fragment, `a | b | c`, run as one command: the one
// way commands compose (Parse, fused regions, executor segments). Its
// Spec, the members' specs joined by " | ", flattens nested chains into
// the script a cluster worker runs.
type Chain struct {
	spec    string
	members []Command
	// mappers is every member's line mapper, or nil unless all are one.
	mappers []LineMapper
}

// NewChain composes members in pipe order.
func NewChain(members ...Command) *Chain {
	c := &Chain{members: members, mappers: make([]LineMapper, len(members))}
	specs := make([]string, len(members))
	for i, m := range members {
		specs[i] = m.Spec()
		if lm, ok := AsLineMapper(m); ok && c.mappers != nil {
			c.mappers[i] = lm
		} else {
			c.mappers = nil
		}
	}
	c.spec = strings.Join(specs, " | ")
	return c
}

// Spec returns the members' specs joined by " | ".
func (c *Chain) Spec() string { return c.spec }

// Members lists a chain's members in pipe order, or cmd itself when it
// is not a chain.
func Members(cmd Command) []Command {
	if c, ok := cmd.(*Chain); ok {
		return c.members
	}
	return []Command{cmd}
}

// AsLineMapper reports the chain as a line mapper when every member is.
func (c *Chain) AsLineMapper() (LineMapper, bool) { return c, c.mappers != nil }

// Run is the members' Run in turn (Stepwise). A line-mapper chain makes
// it one pass — LineFunc over the terminated lines, then the tail through
// each member's own Run (tr leaves it unterminated) — which agrees, as a
// line mapper's Run of whole lines is whole lines.
func (c *Chain) Run(input string) (string, error) {
	if c.mappers == nil {
		return c.Stepwise(input, nil)
	}
	cut := strings.LastIndexByte(input, '\n') + 1
	out, tail := RunLines(c, input[:cut]), input[cut:]
	if tail == "" {
		return out, nil
	}
	tail, err := c.Stepwise(tail, nil)
	return out + tail, err
}

// Stepwise runs each member over the previous one's output, recording
// member m's output volume in bytesOut[m] when bytesOut is non-nil.
// Two pairs of members run as one pass that writes no intermediate
// stream. A line mapper followed by wc -l counts the lines the mapper
// emits (countLines), whose volume it still reports. Without bytesOut, a
// bytewise sort followed by uniq -c counts the sort's records into uniq
// -c's table, and the sorted stream, whose volume is not asked for, is
// never written (SortCmd.countRuns). A failure is the failing member's
// StageError.
func (c *Chain) Stepwise(input string, bytesOut []int64) (string, error) {
	for m := 0; m < len(c.members); m++ {
		cmd := c.members[m]
		var next Command
		if m+1 < len(c.members) {
			next = c.members[m+1]
		}
		if lm, ok := AsLineMapper(cmd); ok && CountsLines(next) {
			count, volume, err := countLines(lm, input)
			if err != nil {
				return "", Failure(cmd, err)
			}
			if bytesOut != nil {
				bytesOut[m], bytesOut[m+1] = volume, int64(len(count))
			}
			input = count
			m++
			continue
		}
		if sc, ok := cmd.(*SortCmd); ok && bytesOut == nil && sc.countsRuns(next) {
			input = sc.countRuns(input)
			m++
			continue
		}
		out, err := cmd.Run(input)
		if err != nil {
			return "", Failure(cmd, err)
		}
		if bytesOut != nil {
			bytesOut[m] = int64(len(out))
		}
		input = out
	}
	return input, nil
}

// LineFunc composes a line-mapper chain's line functions back to front.
// Each emitted line is fully processed downstream before its member sees
// the next, so members' transient scratch views live exactly as long as
// needed and the lines come out as staged execution makes them.
func (c *Chain) LineFunc(emit EmitFunc) EmitFunc {
	for d := len(c.mappers) - 1; d >= 0; d-- {
		emit = c.mappers[d].LineFunc(emit)
	}
	return emit
}

// StageError is a failure tagged with the single command it came from.
type StageError struct {
	Spec string
	Err  error
}

func (e *StageError) Error() string { return fmt.Sprintf("stage %q: %v", e.Spec, e.Err) }
func (e *StageError) Unwrap() error { return e.Err }

// Failure tags cmd's failure with its stage: the member a chain already
// named, or cmd itself.
func Failure(cmd Command, err error) *StageError {
	var se *StageError
	if !errors.As(err, &se) {
		se = &StageError{Spec: cmd.Spec(), Err: err}
	}
	return se
}
