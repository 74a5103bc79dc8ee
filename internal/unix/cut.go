package unix

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// cutCmd implements cut -c LIST (character ranges) and cut -d C -f LIST
// (delimited fields). As in GNU cut, selected positions are emitted in
// input order regardless of the order they appear in LIST (so -f 3,1 prints
// fields 1 and 3), and lines without the delimiter pass through whole.
type cutCmd struct {
	spec   string
	chars  bool
	fields bool
	delim  byte
	ranges []cutRange
}

type cutRange struct{ lo, hi int } // 1-based inclusive; hi=maxInt for open

const cutOpen = 1 << 30

func newCut(spec string, args []string, _ *Env) (Command, error) {
	c := &cutCmd{spec: spec, delim: '\t'}
	for i := 0; i < len(args); i++ {
		a := args[i]
		take := func(flag string) (string, error) {
			if a == flag {
				if i+1 >= len(args) {
					return "", fmt.Errorf("cut: %s needs a value", flag)
				}
				i++
				return args[i], nil
			}
			return strings.TrimPrefix(a, flag), nil
		}
		switch {
		case a == "-c" || strings.HasPrefix(a, "-c"):
			v, err := take("-c")
			if err != nil {
				return nil, err
			}
			c.chars = true
			if err := c.parseList(v); err != nil {
				return nil, err
			}
		case a == "-f" || strings.HasPrefix(a, "-f"):
			v, err := take("-f")
			if err != nil {
				return nil, err
			}
			c.fields = true
			if err := c.parseList(v); err != nil {
				return nil, err
			}
		case a == "-d" || strings.HasPrefix(a, "-d"):
			v, err := take("-d")
			if err != nil {
				return nil, err
			}
			if len(v) != 1 {
				return nil, fmt.Errorf("cut: delimiter must be one byte, got %q", v)
			}
			c.delim = v[0]
		default:
			return nil, fmt.Errorf("cut: unsupported argument %q", a)
		}
	}
	if c.chars == c.fields {
		return nil, fmt.Errorf("cut: need exactly one of -c or -f")
	}
	return c, nil
}

// parseList appends LIST's ranges and normalizes the whole list: sorted
// by start, with overlapping and adjacent ranges merged. Output follows
// input order whatever the order of LIST, so normalizing changes no
// output, and it leaves a list of disjoint ranges with gaps between them.
func (c *cutCmd) parseList(list string) error {
	for _, part := range strings.Split(list, ",") {
		lo, hi, found := strings.Cut(part, "-")
		r := cutRange{}
		var err error
		r.lo, err = strconv.Atoi(lo)
		if err != nil || r.lo < 1 {
			return fmt.Errorf("cut: bad list %q", list)
		}
		if !found {
			r.hi = r.lo
		} else if hi == "" {
			r.hi = cutOpen
		} else {
			r.hi, err = strconv.Atoi(hi)
			if err != nil || r.hi < r.lo {
				return fmt.Errorf("cut: bad list %q", list)
			}
		}
		c.ranges = append(c.ranges, r)
	}
	sort.Slice(c.ranges, func(i, j int) bool { return c.ranges[i].lo < c.ranges[j].lo })
	merged := c.ranges[:1]
	for _, r := range c.ranges[1:] {
		last := &merged[len(merged)-1]
		if r.lo-1 > last.hi {
			merged = append(merged, r)
		} else if r.hi > last.hi {
			last.hi = r.hi
		}
	}
	c.ranges = merged
	return nil
}

func (c *cutCmd) Spec() string { return c.spec }

// FieldDelim returns the -d delimiter in field mode (0 in character mode);
// preprocessing injects it into generated words so the field structure is
// exercised (§3.2 literal extraction).
func (c *cutCmd) FieldDelim() byte {
	if c.fields {
		return c.delim
	}
	return 0
}

func (c *cutCmd) Run(input string) (string, error) {
	return RunLines(c, input), nil
}

// LineFunc implements LineMapper: cut is line-independent. Each of the
// normalized ranges selects one contiguous span of the line: bytes lo to
// hi in -c mode, and in -f mode everything from the start of field lo to
// the end of field hi (or of the last field), the delimiters between
// them included. A single range is emitted as a view of its span; only a
// list of several is assembled in the function's scratch, the spans
// joined by the delimiter in -f mode. The field walk stops after the last
// selected field. In -f mode lines without the delimiter pass through
// whole.
func (c *cutCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	if c.chars {
		return func(line string) {
			b := buf[:0] // a local for the appends; stored back once
			for _, r := range c.ranges {
				span := line[min(r.lo-1, len(line)):min(r.hi, len(line))]
				if len(c.ranges) == 1 {
					emit(span)
					return
				}
				b = append(b, span...)
			}
			buf = b
			emit(textio.View(b))
		}
	}
	d := c.delim
	return func(line string) {
		if strings.IndexByte(line, d) < 0 {
			emit(line)
			return
		}
		b := buf[:0]
		// field starts at byte start; start passes len(line) once the
		// line has no more fields.
		field, start := 1, 0
		for i, r := range c.ranges {
			for ; field < r.lo && start <= len(line); field++ {
				start += fieldLen(line[start:], d) + 1
			}
			if start > len(line) {
				break
			}
			end := start + fieldLen(line[start:], d)
			for field < r.hi && end < len(line) {
				end++
				field++
				end += fieldLen(line[end:], d)
			}
			if len(c.ranges) == 1 {
				emit(line[start:end])
				return
			}
			if i > 0 {
				b = append(b, d)
			}
			b = append(b, line[start:end]...)
			field, start = field+1, end+1
		}
		buf = b
		emit(textio.View(b))
	}
}

// fieldLen returns the length of the field s starts with: the bytes
// before the first delimiter d, or all of s.
func fieldLen(s string, d byte) int {
	if i := strings.IndexByte(s, d); i >= 0 {
		return i
	}
	return len(s)
}
