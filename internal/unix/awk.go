package unix

import (
	"fmt"
	"strconv"
	"strings"

	"kumquat/internal/textio"
)

// awkCmd is a mini-awk interpreter covering the programs in the benchmark
// suite:
//
//	$1 >= 1000                      pattern-only rules (implicit print)
//	$1 >= 2 {print $2}              pattern + action
//	length >= 16                    length of $0
//	{$1=$1};1                       field re-join (whitespace squeeze)
//	{print $2, $0}  {print NF}      print lists joined with OFS
//	$1 == 2 {print $2, $3}          equality-gated print (Table 9's
//	                                unsupported command)
//
// plus -v VAR=VALUE (only OFS is meaningful to these programs). Comparison
// follows awk: numeric when both operands look numeric, string otherwise.
type awkCmd struct {
	spec  string
	rules []awkRule
	ofs   string
}

type awkRule struct {
	pattern awkExpr // nil = always
	actions []awkStmt
}

type awkStmt struct {
	print bool
	args  []awkExpr // empty print = print $0
	// assignment $n = expr
	assignField int
	assignExpr  awkExpr
}

// awkExpr evaluates to a string/number dual value in a line context.
type awkExpr interface {
	eval(ctx *awkCtx) awkVal
}

type awkVal struct {
	s       string
	n       float64
	numeric bool // true when the value originated as a number or looks numeric
}

func strVal(s string) awkVal {
	if n, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil && s != "" {
		return awkVal{s: s, n: n, numeric: true}
	}
	return awkVal{s: s}
}

func numVal(n float64) awkVal {
	return awkVal{s: formatAwkNum(n), n: n, numeric: true}
}

func formatAwkNum(n float64) string {
	if n == float64(int64(n)) {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(n, 'g', 6, 64)
}

type awkCtx struct {
	line    string
	fields  []string
	rebuilt bool
	ofs     string
}

func (c *awkCtx) field(i int) string {
	if i == 0 {
		if c.rebuilt {
			return strings.Join(c.fields, c.ofs)
		}
		return c.line
	}
	if i-1 < len(c.fields) {
		return c.fields[i-1]
	}
	return ""
}

type exprField struct{ idx int }
type exprNF struct{}
type exprLength struct{}
type exprNum struct{ v float64 }
type exprStr struct{ v string }
type exprCmp struct {
	op   string
	l, r awkExpr
}

func (e exprField) eval(c *awkCtx) awkVal { return strVal(c.field(e.idx)) }
func (exprNF) eval(c *awkCtx) awkVal      { return numVal(float64(len(c.fields))) }
func (exprLength) eval(c *awkCtx) awkVal  { return numVal(float64(len(c.field(0)))) }
func (e exprNum) eval(*awkCtx) awkVal     { return numVal(e.v) }
func (e exprStr) eval(*awkCtx) awkVal     { return awkVal{s: e.v} }

func (e exprCmp) eval(c *awkCtx) awkVal {
	l, r := e.l.eval(c), e.r.eval(c)
	var cmp int
	if l.numeric && r.numeric {
		switch {
		case l.n < r.n:
			cmp = -1
		case l.n > r.n:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(l.s, r.s)
	}
	var ok bool
	switch e.op {
	case "==":
		ok = cmp == 0
	case "!=":
		ok = cmp != 0
	case "<":
		ok = cmp < 0
	case "<=":
		ok = cmp <= 0
	case ">":
		ok = cmp > 0
	case ">=":
		ok = cmp >= 0
	}
	if ok {
		return numVal(1)
	}
	return numVal(0)
}

// awkUnescape interprets C escape sequences in -v values, as awk does.
func awkUnescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func newAwk(spec string, args []string, _ *Env) (Command, error) {
	a := &awkCmd{spec: spec, ofs: " "}
	var program string
	seenProg := false
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-v" && i+1 < len(args):
			i++
			k, v, ok := strings.Cut(args[i], "=")
			if !ok {
				return nil, fmt.Errorf("awk: bad -v %q", args[i])
			}
			if k == "OFS" {
				a.ofs = awkUnescape(v)
			}
		case !seenProg:
			program = args[i]
			seenProg = true
		default:
			return nil, fmt.Errorf("awk: unexpected argument %q", args[i])
		}
	}
	if !seenProg {
		return nil, fmt.Errorf("awk: missing program")
	}
	rules, err := parseAwkProgram(program)
	if err != nil {
		return nil, fmt.Errorf("awk: %w", err)
	}
	a.rules = rules
	return a, nil
}

// parseAwkProgram parses rules separated by ';' at top level.
func parseAwkProgram(src string) ([]awkRule, error) {
	var rules []awkRule
	for _, part := range splitAwkRules(src) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule, err := parseAwkRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("empty program")
	}
	return rules, nil
}

// splitAwkRules splits on top-level ';' (not inside braces or quotes).
func splitAwkRules(src string) []string {
	var parts []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			inStr = !inStr
		case '{':
			if !inStr {
				depth++
			}
		case '}':
			if !inStr {
				depth--
			}
		case ';':
			if !inStr && depth == 0 {
				parts = append(parts, src[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, src[start:])
	return parts
}

func parseAwkRule(src string) (awkRule, error) {
	var rule awkRule
	brace := strings.IndexByte(src, '{')
	patSrc := src
	actSrc := ""
	if brace >= 0 {
		patSrc = strings.TrimSpace(src[:brace])
		end := strings.LastIndexByte(src, '}')
		if end < brace {
			return rule, fmt.Errorf("unbalanced braces in %q", src)
		}
		if rest := strings.TrimSpace(src[end+1:]); rest != "" {
			return rule, fmt.Errorf("trailing input %q after action", rest)
		}
		actSrc = strings.TrimSpace(src[brace+1 : end])
	}
	if patSrc != "" {
		p := &awkParser{src: patSrc}
		e, err := p.parseExpr()
		if err != nil {
			return rule, err
		}
		if p.pos != len(p.src) {
			return rule, fmt.Errorf("trailing input in pattern %q", patSrc)
		}
		rule.pattern = e
	}
	if brace >= 0 {
		stmts, err := parseAwkActions(actSrc)
		if err != nil {
			return rule, err
		}
		rule.actions = stmts
	} else {
		rule.actions = []awkStmt{{print: true}}
	}
	return rule, nil
}

func parseAwkActions(src string) ([]awkStmt, error) {
	var stmts []awkStmt
	for _, s := range strings.Split(src, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "print") {
			rest := strings.TrimSpace(strings.TrimPrefix(s, "print"))
			st := awkStmt{print: true}
			if rest != "" {
				for _, argSrc := range strings.Split(rest, ",") {
					p := &awkParser{src: strings.TrimSpace(argSrc)}
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					st.args = append(st.args, e)
				}
			}
			stmts = append(stmts, st)
			continue
		}
		// assignment: $N = expr
		lhs, rhs, ok := strings.Cut(s, "=")
		if ok && strings.HasPrefix(strings.TrimSpace(lhs), "$") {
			idxStr := strings.TrimSpace(lhs)[1:]
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 || idx > maxAwkAssignField {
				return nil, fmt.Errorf("bad assignment target %q", lhs)
			}
			p := &awkParser{src: strings.TrimSpace(rhs)}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, awkStmt{assignField: idx, assignExpr: e})
			continue
		}
		return nil, fmt.Errorf("unsupported statement %q", s)
	}
	return stmts, nil
}

// maxAwkAssignField bounds the N of a `$N = expr` assignment: assigning
// past NF grows every line's field list to N, so an unbounded N would let
// one program text allocate without limit.
const maxAwkAssignField = 1 << 12

type awkParser struct {
	src string
	pos int
}

func (p *awkParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

// parseExpr parses term [cmpop term].
func (p *awkParser) parseExpr() (awkExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	for _, op := range []string{">=", "<=", "==", "!=", ">", "<"} {
		if strings.HasPrefix(p.src[p.pos:], op) {
			p.pos += len(op)
			p.skipSpace()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			return exprCmp{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *awkParser) parseTerm() (awkExpr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '$':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if start == p.pos {
			return nil, fmt.Errorf("bad field reference")
		}
		idx, _ := strconv.Atoi(p.src[start:p.pos])
		return exprField{idx: idx}, nil
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, err
		}
		return exprNum{v: v}, nil
	case c == '"':
		end := strings.IndexByte(p.src[p.pos+1:], '"')
		if end < 0 {
			return nil, fmt.Errorf("unterminated string")
		}
		v := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return exprStr{v: v}, nil
	case strings.HasPrefix(p.src[p.pos:], "length"):
		p.pos += len("length")
		return exprLength{}, nil
	case strings.HasPrefix(p.src[p.pos:], "NF"):
		p.pos += len("NF")
		return exprNF{}, nil
	}
	return nil, fmt.Errorf("unsupported term at %q", p.src[p.pos:])
}

func (a *awkCmd) Spec() string { return a.spec }

func (a *awkCmd) Run(input string) (string, error) {
	return RunLines(a, input), nil
}

// LineFunc implements LineMapper: each benchmark awk program is a pure
// per-line map/filter. The line context (field slice included) and the
// print buffer are reused across lines.
func (a *awkCmd) LineFunc(emit EmitFunc) EmitFunc {
	ctx := &awkCtx{ofs: a.ofs}
	var buf []byte
	return func(line string) {
		ctx.line, ctx.rebuilt = line, false
		ctx.fields = textio.AppendFields(ctx.fields[:0], line)
		for _, r := range a.rules {
			if r.pattern != nil {
				v := r.pattern.eval(ctx)
				truthy := v.n != 0
				if !v.numeric {
					truthy = v.s != ""
				}
				if !truthy {
					continue
				}
			}
			for _, st := range r.actions {
				switch {
				case st.print:
					if len(st.args) == 0 {
						emit(ctx.field(0))
						continue
					}
					b := buf[:0]
					for i, e := range st.args {
						if i > 0 {
							b = append(b, ctx.ofs...)
						}
						b = append(b, e.eval(ctx).s...)
					}
					buf = b
					emit(textio.View(b))
				case st.assignExpr != nil:
					v := st.assignExpr.eval(ctx)
					if st.assignField == 0 {
						// $0 = v replaces the record and re-splits its fields.
						ctx.line, ctx.rebuilt = v.s, false
						ctx.fields = textio.AppendFields(ctx.fields[:0], ctx.line)
						continue
					}
					for len(ctx.fields) < st.assignField {
						ctx.fields = append(ctx.fields, "")
					}
					ctx.fields[st.assignField-1] = v.s
					ctx.rebuilt = true
				}
			}
		}
	}
}

// CompareLiterals exposes numeric comparison constants ($1 >= 1000 → 1000),
// which preprocessing turns into dictionary words so generated inputs
// exercise both branches of the comparison (§3.2). Equality-gated constants
// are excluded: reproducing the paper's preprocessing, which does not mine
// them (the reason Table 9 lists awk "$1 == 2 ..." as unsupported).
func (a *awkCmd) CompareLiterals() []int {
	var out []int
	for _, r := range a.rules {
		if cmp, ok := r.pattern.(exprCmp); ok && cmp.op != "==" && cmp.op != "!=" {
			if n, ok := cmp.r.(exprNum); ok {
				out = append(out, int(n.v))
			}
			if n, ok := cmp.l.(exprNum); ok {
				out = append(out, int(n.v))
			}
		}
	}
	return out
}

// GatedEquality reports whether any rule is gated on field equality with a
// constant ($1 == 2 …): the class Table 9 documents as unsupported because
// random inputs essentially never satisfy the gate.
func (a *awkCmd) GatedEquality() bool {
	for _, r := range a.rules {
		if cmp, ok := r.pattern.(exprCmp); ok && cmp.op == "==" {
			return true
		}
	}
	return false
}
