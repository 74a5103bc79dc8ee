package dsl

import (
	"fmt"
	"strings"
)

// ParseCandidate parses the DSL's textual form back into a Candidate — the
// inverse of Candidate.String(). Accepted forms:
//
//	concat
//	(concat a b)
//	(back '\n' add b a)
//	stitch2 ' ' add first
//	merge('-rn') a b
//	keymerge('-r') stitch2 ' ' add first
//	rerun
//
// Outer parentheses and the trailing argument order ("a b" or "b a",
// default "a b") are optional. Merge flags are accepted and ignored at the
// operator level (the comparator is bound via Env at evaluation time).
func ParseCandidate(src string) (Candidate, error) {
	p := &combParser{toks: tokenizeCombiner(src)}
	c, err := p.parseCandidate()
	if err != nil {
		return Candidate{}, fmt.Errorf("dsl: parse %q: %w", src, err)
	}
	return c, nil
}

// tokenizeCombiner splits into words, parens and quoted delimiters.
func tokenizeCombiner(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j < len(src) {
				toks = append(toks, src[i:j+1])
				i = j + 1
			} else {
				toks = append(toks, src[i:])
				i = len(src)
			}
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t()'", rune(src[j])) {
				j++
			}
			word := src[i:j]
			i = j
			// merge('-rn') and keymerge('-r') glue flags; re-attach a
			// following quoted part.
			if (word == "merge" || word == "keymerge") && i < len(src) && src[i] == '(' {
				k := strings.IndexByte(src[i:], ')')
				if k >= 0 {
					word += src[i : i+k+1]
					i += k + 1
				}
			}
			toks = append(toks, word)
		}
	}
	return toks
}

type combParser struct {
	toks []string
	pos  int
}

func (p *combParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *combParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *combParser) parseCandidate() (Candidate, error) {
	outer := false
	if p.peek() == "(" {
		outer = true
		p.next()
	}
	op, err := p.parseOp()
	if err != nil {
		return Candidate{}, err
	}
	c := Candidate{Op: op}
	switch {
	case p.peek() == "a":
		p.next()
		if p.next() != "b" {
			return Candidate{}, fmt.Errorf(`expected "a b"`)
		}
	case p.peek() == "b":
		p.next()
		if p.next() != "a" {
			return Candidate{}, fmt.Errorf(`expected "b a"`)
		}
		c.Swap = true
	}
	if outer {
		if p.next() != ")" {
			return Candidate{}, fmt.Errorf("missing closing parenthesis")
		}
	}
	if p.pos != len(p.toks) {
		return Candidate{}, fmt.Errorf("trailing tokens %v", p.toks[p.pos:])
	}
	return c, nil
}

func (p *combParser) parseDelim() (Delim, error) {
	t := p.next()
	switch t {
	case `'\n'`:
		return '\n', nil
	case `'\t'`:
		return '\t', nil
	case `' '`:
		return ' ', nil
	case `','`:
		return ',', nil
	}
	if len(t) == 3 && t[0] == '\'' && t[2] == '\'' {
		return Delim(t[1]), nil
	}
	return 0, fmt.Errorf("expected delimiter, got %q", t)
}

func (p *combParser) parseOp() (Op, error) {
	t := p.next()
	switch {
	case t == "add":
		return Add{}, nil
	case t == "concat":
		return Concat{}, nil
	case t == "first":
		return First{}, nil
	case t == "second":
		return Second{}, nil
	case t == "rerun":
		return Rerun{}, nil
	case t == "merge" || strings.HasPrefix(t, "merge("):
		return Merge{}, nil
	case t == "keymerge" || strings.HasPrefix(t, "keymerge("):
		j, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		switch j.(type) {
		case Stitch, Stitch2:
			return KeyMerge{J: j}, nil
		}
		return nil, fmt.Errorf("keymerge over %s, want a stitch or stitch2", j)
	case t == "front", t == "back", t == "fuse", t == "offset":
		d, err := p.parseDelim()
		if err != nil {
			return nil, err
		}
		b, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		switch t {
		case "front":
			return Front{D: d, B: b}, nil
		case "back":
			return Back{D: d, B: b}, nil
		case "fuse":
			return Fuse{D: d, B: b}, nil
		default:
			return Offset{D: d, B: b}, nil
		}
	case t == "stitch":
		b, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		return Stitch{B: b}, nil
	case t == "stitch2":
		d, err := p.parseDelim()
		if err != nil {
			return nil, err
		}
		b1, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		b2, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		return Stitch2{D: d, B1: b1, B2: b2}, nil
	case t == "(":
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("missing closing parenthesis in sub-expression")
		}
		return op, nil
	}
	return nil, fmt.Errorf("unknown operator %q", t)
}
