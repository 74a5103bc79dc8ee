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
	return nil
}

func (c *cutCmd) selected(pos int) bool {
	for _, r := range c.ranges {
		if pos >= r.lo && pos <= r.hi {
			return true
		}
	}
	return false
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

// LineFunc implements LineMapper: cut is line-independent. A single
// contiguous -c range is a substring view of the input; everything else is
// assembled in the function's scratch. Field mode passes delimiter-free
// lines through whole, and splits the rest through the shared field
// kernel (no per-line field slice). The byte loops append to a local and
// store the grown scratch back once per line.
func (c *cutCmd) LineFunc(emit EmitFunc) EmitFunc {
	var buf []byte
	switch {
	case c.chars && len(c.ranges) == 1:
		lo, hi := c.ranges[0].lo-1, c.ranges[0].hi
		return func(line string) {
			emit(line[min(lo, len(line)):min(hi, len(line))])
		}
	case c.chars:
		return func(line string) {
			b := buf[:0]
			for i := 0; i < len(line); i++ {
				if c.selected(i + 1) {
					b = append(b, line[i])
				}
			}
			buf = b
			emit(textio.View(b))
		}
	}
	return func(line string) {
		if strings.IndexByte(line, c.delim) < 0 {
			emit(line)
			return
		}
		b := buf[:0]
		fs := textio.FieldsByte(line, c.delim)
		field, wrote := 0, false
		for {
			f, ok := fs.Next()
			if !ok {
				break
			}
			field++
			if !c.selected(field) {
				continue
			}
			if wrote {
				b = append(b, c.delim)
			}
			b = append(b, f...)
			wrote = true
		}
		buf = b
		emit(textio.View(b))
	}
}
