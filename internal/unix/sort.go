package unix

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"kumquat/internal/textio"
)

// SortCmd implements GNU sort with C collation for the flag combinations in
// the benchmarks: plain, -n, -r, -f, -u, -k POS[n], -m, and combinations
// (-rn, -nr, -k1n). --parallel=N is accepted and ignored (the paper's
// experimental setup forces --parallel=1 to keep stages serial).
//
// The comparator is exported (Less) because the DSL's merge combiner is
// "sort -m <flags>" with the same flags (§3.1 RunOp).
type SortCmd struct {
	spec     string
	Numeric  bool
	Reverse  bool
	Fold     bool
	Unique   bool
	Merge    bool
	Key      int  // 1-based field for -k; 0 = whole line
	KeyNum   bool // numeric modifier on -k
	KeyRev   bool // r modifier on -k
	flagsStr string
	ord      ordering
}

func newSort(spec string, args []string, _ *Env) (Command, error) {
	s := &SortCmd{spec: spec}
	var flagTokens []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-k" && i+1 < len(args):
			i++
			if err := s.parseKey(args[i]); err != nil {
				return nil, err
			}
			flagTokens = append(flagTokens, "-k", args[i])
		case strings.HasPrefix(a, "-k"):
			if err := s.parseKey(a[2:]); err != nil {
				return nil, err
			}
			flagTokens = append(flagTokens, a)
		case strings.HasPrefix(a, "--parallel"):
			// ignored: our stages are in-process
		case strings.HasPrefix(a, "-") && len(a) > 1:
			for _, f := range a[1:] {
				switch f {
				case 'n':
					s.Numeric = true
				case 'r':
					s.Reverse = true
				case 'f':
					s.Fold = true
				case 'u':
					s.Unique = true
				case 'm':
					s.Merge = true
				case 's':
					// stability: output is always that of a stable sort
				default:
					return nil, fmt.Errorf("sort: unsupported flag -%c", f)
				}
			}
			flagTokens = append(flagTokens, a)
		default:
			return nil, fmt.Errorf("sort: unexpected argument %q", a)
		}
	}
	s.flagsStr = strings.Join(flagTokens, " ")
	s.ord = ordering{
		field:   s.Key,
		numeric: s.Numeric || (s.Key > 0 && s.KeyNum),
		fold:    s.Fold,
		keyRev:  s.Reverse || s.KeyRev,
		lineRev: s.Reverse,
		unique:  s.Unique,
	}
	s.ord.bytewise = s.ord.field == 0 && !s.ord.numeric && !s.ord.fold
	return s, nil
}

func (s *SortCmd) parseKey(spec string) error {
	// Supported: "N", "Nn", "Nr", "Nnr" (field N with modifiers).
	i := 0
	n := 0
	for i < len(spec) && spec[i] >= '0' && spec[i] <= '9' {
		n = n*10 + int(spec[i]-'0')
		i++
	}
	if n == 0 {
		return fmt.Errorf("sort: bad key %q", spec)
	}
	s.Key = n
	for ; i < len(spec); i++ {
		switch spec[i] {
		case 'n':
			s.KeyNum = true
		case 'r':
			s.KeyRev = true
		case '.', ',':
			// ignore sub-positions and end keys (not used by benchmarks)
			return nil
		default:
			return fmt.Errorf("sort: bad key modifier %q", spec)
		}
	}
	return nil
}

// Flags returns the flag string (e.g. "-rn"), used to label the merge
// combiner as merge('-rn') in synthesis results.
func (s *SortCmd) Flags() string { return s.flagsStr }

func (s *SortCmd) Spec() string { return s.spec }

// ordering is a sort's flags resolved once, at parse time, into the
// decisions every comparison would otherwise re-derive.
type ordering struct {
	field   int  // 1-based key field; 0 = whole line
	numeric bool // -n, or n on -k
	fold    bool // -f
	keyRev  bool // -r or r on -k: reverse the key comparison
	lineRev bool // -r: reverse the last-resort comparison as well
	unique  bool // -u: no last resort; key-equal lines are duplicates
	// bytewise: the key is the whole line compared bytewise, so key ties
	// are byte-identical lines and the last resort can never decide.
	bytewise bool
}

// sortLine is a line with its comparison key computed once, so sorting
// and merging never re-extract a field, re-parse a number or re-fold case
// inside a comparison.
type sortLine struct {
	line string
	key  string  // the field, case-folded under -f; unused under -n
	num  float64 // the key's numeric value under -n
}

// setKey stores line and its comparison key in l. It writes through a
// pointer rather than returning a sortLine so that re-keying a merge
// cursor in place costs field stores, not a struct copy.
func (o *ordering) setKey(l *sortLine, line string) {
	l.line = line
	k := line
	if o.field > 0 {
		k = textio.Field(line, o.field)
	}
	if o.numeric {
		l.num = numValue(k)
		return
	}
	if o.fold {
		k = foldASCII(k)
	}
	l.key = k
}

// foldASCII upper-cases a–z and leaves every other byte alone, as GNU
// sort -f does under LC_ALL=C. A key with nothing to fold is returned as
// it is; otherwise the folded copy is the one allocation.
func foldASCII(k string) string {
	i := 0
	for i < len(k) && (k[i] < 'a' || k[i] > 'z') {
		i++
	}
	if i == len(k) {
		return k
	}
	b := make([]byte, len(k))
	copy(b, k)
	for ; i < len(b); i++ {
		if 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return textio.View(b)
}

// compare is the one GNU ordering, as a three-way comparison over cached
// keys: the key comparison, reversed under -r or a key's r, falling back
// to a bytewise whole-line last resort (reversed only under -r) on key
// ties. Under -u the last resort is skipped: key-equal lines are
// duplicates and compare equal. It takes pointers because a merge
// cursor's key has just been stored field by field, and reloading it as
// a by-value struct stalls store forwarding on every comparison.
func (o *ordering) compare(a, b *sortLine) int {
	var c int
	switch {
	case !o.numeric:
		c = strings.Compare(a.key, b.key)
	case a.num < b.num:
		c = -1
	case a.num > b.num:
		c = 1
	}
	if o.keyRev {
		c = -c
	}
	if c != 0 || o.unique || o.bytewise {
		return c
	}
	c = strings.Compare(a.line, b.line)
	if o.lineRev {
		c = -c
	}
	return c
}

// numValue parses a GNU-sort-style leading numeric value under LC_ALL=C:
// optional blanks, an optional '-', digits with an optional decimal part.
// Anything else — a leading '+' included — is 0.
func numValue(sv string) float64 {
	i := 0
	for i < len(sv) && (sv[i] == ' ' || sv[i] == '\t') {
		i++
	}
	neg := i < len(sv) && sv[i] == '-'
	if neg {
		i++
	}
	var v float64
	digits := false
	for ; i < len(sv) && sv[i] >= '0' && sv[i] <= '9'; i++ {
		v = v*10 + float64(sv[i]-'0')
		digits = true
	}
	if i < len(sv) && sv[i] == '.' {
		scale := 0.1
		for i++; i < len(sv) && sv[i] >= '0' && sv[i] <= '9'; i++ {
			v += float64(sv[i]-'0') * scale
			scale /= 10
			digits = true
		}
	}
	if !digits {
		return 0
	}
	if neg {
		v = -v
	}
	return v
}

// Less is the full GNU ordering on two lines.
func (s *SortCmd) Less(a, b string) bool {
	var ka, kb sortLine
	s.ord.setKey(&ka, a)
	s.ord.setKey(&kb, b)
	return s.ord.compare(&ka, &kb) < 0
}

// IsSorted reports whether the stream is already ordered under this
// command's comparator — the legality domain of the merge combiner, which
// synthesis checks on every merge operand. It walks the stream with a
// merge cursor, so it allocates nothing unless -f folds a key.
func (s *SortCmd) IsSorted(stream string) bool {
	c := mergeCursor{s: stream}
	if !c.advance(&s.ord) {
		return true
	}
	prev := c.cur
	for c.advance(&s.ord) {
		if s.ord.compare(&c.cur, &prev) < 0 {
			return false
		}
		prev = c.cur
	}
	return true
}

func (s *SortCmd) Run(input string) (string, error) {
	if s.Merge {
		// Single input: merging one stream is the identity (plus -u dedup).
		if !s.IsSorted(input) {
			return "", fmt.Errorf("sort: -m: input is not sorted")
		}
		return s.MergeStreams(input), nil
	}
	lines := textio.Lines(input)
	o := &s.ord
	if o.bytewise {
		// Ties are byte-identical lines, so an unstable sort is
		// indistinguishable from a stable one, reversed or not.
		radixSort(lines, 0)
		if o.keyRev {
			slices.Reverse(lines)
		}
		if o.unique {
			lines = slices.Compact(lines)
		}
		return textio.JoinLines(lines), nil
	}
	ks := make([]sortLine, len(lines))
	for i, l := range lines {
		o.setKey(&ks[i], l)
	}
	cmp := func(a, b sortLine) int { return o.compare(&a, &b) }
	if o.unique {
		// Key-equal lines can differ; dedup keeps the first in input order.
		slices.SortStableFunc(ks, cmp)
		ks = slices.CompactFunc(ks, func(a, b sortLine) bool { return cmp(a, b) == 0 })
	} else {
		// The last resort breaks every tie between distinct lines.
		slices.SortFunc(ks, cmp)
	}
	lines = lines[:len(ks)]
	for i := range ks {
		lines[i] = ks[i].line
	}
	return textio.JoinLines(lines), nil
}

// radixCutoff is the bucket size at or below which radixSort hands a
// bucket to multikeySort: there, clearing and scanning 257 counters per
// byte of depth costs more than partitioning the bucket.
const radixCutoff = 512

// radixSort sorts lines bytewise in place, given that they all share
// their first depth bytes. It is an MSD radix sort (American flag sort):
// one pass counts the lines per byte at depth — lines that end there
// first, in a bucket of their own — and a second permutes every line into
// its bucket by following cycles, so it needs no scratch. The lines that
// ended are byte-identical and already in order. Every other bucket is
// sorted one byte deeper by recursion, except the largest, which the loop
// takes itself. Each recursive call therefore gets at most half the
// lines, so the stack stays O(log n) deep however long the shared
// prefixes run. Buckets of at most radixCutoff lines go to multikeySort.
//
// The order is unstable, which only lines that compare equal could
// observe, and those are byte-identical.
func radixSort(lines []string, depth int) {
	for len(lines) > radixCutoff {
		// Bucket 0 holds the lines that end at depth, bucket 1+b those
		// whose byte at depth is b.
		var next, end [257]int
		for _, l := range lines {
			end[radixKey(l, depth)]++
		}
		sum, largest := 0, 0
		for k := range end {
			n := end[k]
			next[k] = sum
			sum += n
			end[k] = sum
			if n > end[largest]-next[largest] {
				largest = k
			}
		}
		for k := range next {
			for next[k] < end[k] {
				l := lines[next[k]]
				for b := radixKey(l, depth); b != k; b = radixKey(l, depth) {
					lines[next[b]], l = l, lines[next[b]]
					next[b]++
				}
				lines[next[k]] = l
				next[k]++
			}
		}
		// next[k] is now end[k]: bucket k spans lines[start:end[k]].
		start := end[0]
		for k := 1; k < len(end); k++ {
			if k != largest {
				radixSort(lines[start:end[k]], depth+1)
			}
			start = end[k]
		}
		if largest == 0 {
			return
		}
		lines = lines[end[largest-1]:end[largest]]
		depth++
	}
	multikeySort(lines, depth)
}

// radixKey is the bucket of l at depth: 0 once l has ended, 1+l[depth]
// before.
func radixKey(l string, depth int) int {
	if depth < len(l) {
		return int(l[depth]) + 1
	}
	return 0
}

// insertionCutoff is the size at or below which multikeySort finishes
// with insertion sort.
const insertionCutoff = 8

// multikeySort is Bentley and Sedgewick's multikey quicksort over lines
// that share their first depth bytes: a three-way partition around one
// line's byte at depth, the lesser and greater parts sorted at the same
// depth, the equal part one byte deeper — unless its lines have ended
// there, which makes them byte-identical. A run of lines sharing a long
// prefix costs one pass per byte and no counters.
func multikeySort(lines []string, depth int) {
	for len(lines) > insertionCutoff {
		p := radixKey(lines[len(lines)/2], depth)
		lt, gt := 0, len(lines)
		for i := 0; i < gt; {
			switch k := radixKey(lines[i], depth); {
			case k < p:
				lines[lt], lines[i] = lines[i], lines[lt]
				lt++
				i++
			case k > p:
				gt--
				lines[gt], lines[i] = lines[i], lines[gt]
			default:
				i++
			}
		}
		multikeySort(lines[:lt], depth)
		multikeySort(lines[gt:], depth)
		if p == 0 {
			return
		}
		lines = lines[lt:gt]
		depth++
	}
	insertionSort(lines, depth)
}

// insertionSort sorts lines that share their first depth bytes, comparing
// only what follows them.
func insertionSort(lines []string, depth int) {
	for i := 1; i < len(lines); i++ {
		l := lines[i]
		j := i
		for ; j > 0 && l[depth:] < lines[j-1][depth:]; j-- {
			lines[j] = lines[j-1]
		}
		lines[j] = l
	}
}

// mergeCursor walks one pre-sorted stream line by line without
// materializing its lines: cur is the current line with its key, next the
// offset of the line after it. idx is the stream's position in the merge
// argument list — the tie-stability key.
type mergeCursor struct {
	s    string
	next int
	cur  sortLine
	idx  int
}

// advance moves to the next line and computes its key; ok is false once
// the stream is exhausted. Line boundaries follow textio.Lines: a trailing
// newline does not produce an empty final line, an unterminated final line
// counts.
func (c *mergeCursor) advance(o *ordering) bool {
	start := c.next
	if start >= len(c.s) {
		return false
	}
	end := len(c.s)
	if j := strings.IndexByte(c.s[start:], '\n'); j >= 0 {
		end = start + j
	}
	o.setKey(&c.cur, c.s[start:end])
	c.next = end + 1
	return true
}

// mergeFront is the k-way merge front shared by MergeStreams and
// MergeReader: a hand-rolled binary min-heap of stream cursors ordered by
// (line under the ordering, stream index), so the merge is stable by
// argument position, and -u dedup applied as lines leave the front. The
// heap holds pointers, so restoring it moves no cursor; at k = 2 it is a
// two-cursor loop, one comparison per line.
type mergeFront struct {
	o    *ordering
	h    []*mergeCursor // heap order; h[0] holds the next line
	last sortLine       // the last line emitted under -u
	have bool
}

func (s *SortCmd) newFront(streams []string) mergeFront {
	cs := make([]mergeCursor, len(streams))
	f := mergeFront{o: &s.ord, h: make([]*mergeCursor, 0, len(streams))}
	for i, st := range streams {
		c := &cs[i]
		c.s, c.idx = st, i
		if c.advance(f.o) {
			f.h = append(f.h, c)
		}
	}
	for i := len(f.h)/2 - 1; i >= 0; i-- {
		f.down(i)
	}
	return f
}

// before orders two cursors by their current lines, then stream index.
func (f *mergeFront) before(a, b *mergeCursor) bool {
	if c := f.o.compare(&a.cur, &b.cur); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// down restores the heap below slot i.
func (f *mergeFront) down(i int) {
	h := f.h
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && f.before(h[r], h[m]) {
			m = r
		}
		if !f.before(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// next returns the next merged line (without its terminator); ok is false
// once every stream is exhausted.
func (f *mergeFront) next() (line string, ok bool) {
	for len(f.h) > 0 {
		c := f.h[0]
		line = c.cur.line
		dup := f.o.unique && f.have && f.o.compare(&f.last, &c.cur) == 0
		if f.o.unique && !dup {
			f.last, f.have = c.cur, true
		}
		if !c.advance(f.o) {
			n := len(f.h) - 1
			f.h[0] = f.h[n]
			f.h = f.h[:n]
		}
		f.down(0)
		if !dup {
			return line, true
		}
	}
	return "", false
}

// MergeStreams merges k pre-sorted streams under this comparator, as the
// Unix script "sort -m <flags> $*" does in the paper's k-way combiner
// implementation (§3.5). Stability: ties are taken from earlier streams.
//
// Each output line costs O(log k) comparisons over keys computed once per
// line, no stream is ever split into a []string, and the output is
// written once into a builder sized to the input (exact unless -u drops
// lines).
func (s *SortCmd) MergeStreams(streams ...string) string {
	f := s.newFront(streams)
	size := 0
	for _, st := range streams {
		size += len(st)
		if !textio.IsStream(st) && st != "" {
			size++ // the terminator an unterminated final line gains
		}
	}
	var b strings.Builder
	b.Grow(size)
	for line, ok := f.next(); ok; line, ok = f.next() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// mergeReader is the lazy form of MergeStreams: an io.Reader that produces
// the merged stream on demand, so a downstream streaming stage can consume
// the k-way merge without the combined stream ever being materialized (the
// dataflow optimizer's push-sort-merge rewrite).
type mergeReader struct {
	f       mergeFront
	pending string // unread bytes of the current line
	nl      bool   // the current line's terminator is still unread
}

// MergeReader returns a reader over the k-way merge of pre-sorted streams
// under this comparator. The bytes read are exactly MergeStreams(streams...)
// — same front, same tie stability, same -u dedup — but produced
// incrementally: each Read advances the merge front just far enough to fill
// the caller's buffer.
func (s *SortCmd) MergeReader(streams ...string) io.Reader {
	return &mergeReader{f: s.newFront(streams)}
}

func (mr *mergeReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if mr.pending == "" && !mr.nl {
			line, ok := mr.f.next()
			if !ok {
				if n == 0 {
					return 0, io.EOF
				}
				break
			}
			mr.pending, mr.nl = line, true
		}
		c := copy(p[n:], mr.pending)
		mr.pending = mr.pending[c:]
		n += c
		if mr.pending == "" && n < len(p) {
			p[n] = '\n'
			n++
			mr.nl = false
		}
	}
	return n, nil
}
