package unix

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"strings"

	"kumquat/internal/par"
	"kumquat/internal/textio"
)

// SortCmd implements GNU sort with C collation for the flag combinations in
// the benchmarks: plain, -n, -r, -f, -u, -k N[n][r], -m, and combinations
// (-rn, -nr, -k1n). --parallel=N is accepted and ignored (the paper's
// experimental setup forces --parallel=1 to keep stages serial). Flags
// and key forms outside that set (-s, -b, -k N.M, -k N,M) fail to parse.
//
// The ordering is exported through IsSorted and MergeStreams because the
// DSL's merge combiner is "sort -m <flags>" with the same flags (§3.1
// RunOp).
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
	// Supported: "N", "Nn", "Nr", "Nnr" (field N with modifiers). A start
	// character (N.M) or an end field (N,M) is refused, not ignored.
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
		default:
			return fmt.Errorf("sort: bad key modifier %q", spec)
		}
	}
	return nil
}

// Flags returns the flag string (e.g. "-rn"), used to label the merge
// combiner as merge('-rn') in synthesis results.
func (s *SortCmd) Flags() string { return s.flagsStr }

// NumericKeys reports whether the ordering compares keys as numbers (-n,
// -k Nn). Synthesis then draws signed integers into its inputs: over
// words alone every numeric key reads 0, and sort -un keeps one line.
func (s *SortCmd) NumericKeys() bool { return s.ord.numeric }

func (s *SortCmd) Spec() string { return s.spec }

// ordering is a sort's flags resolved once, at parse time, into the
// decisions every comparison would otherwise re-derive.
type ordering struct {
	field   int  // 1-based key field (see fieldKey); 0 = whole line
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
	key  string  // the key, case-folded under -f; unused under -n
	num  float64 // the key's numeric value under -n
}

// setKey stores line and its comparison key in l. It writes through a
// pointer rather than returning a sortLine so that re-keying a merge
// cursor in place costs field stores, not a struct copy.
func (o *ordering) setKey(l *sortLine, line string) {
	l.line = line
	k := line
	if o.field > 0 {
		k = fieldKey(line, o.field)
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

// fieldKey is GNU sort's key for -k n without -b or -t under LC_ALL=C:
// the line from the end of field n−1 to its end. A field is a run of
// blanks (space and tab) followed by a run of non-blanks, so the key
// keeps the blanks before field n: "-k 2" orders "b  z" before "a y".
// A line of fewer fields has the empty key. Under -n the value is the
// same as the field's alone, since numValue skips leading blanks and
// reads a prefix.
func fieldKey(line string, n int) string {
	i := 0
	for ; n > 1; n-- {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
	}
	return line[i:]
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

// IsSorted reports whether the stream is already ordered under this
// command's comparator — the legality domain of the merge combiner, which
// synthesis checks on every observed merge operand (a combine checks it
// inside MergeStreams instead). It walks the stream with a merge cursor,
// so it allocates nothing unless -f folds a key.
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
		// Single input: merging one stream is the identity (plus -u
		// dedup), and the walk that copies it checks its order.
		out, sorted := s.MergeStreams(1, input)
		if !sorted {
			return "", fmt.Errorf("sort: -m: input is not sorted")
		}
		return out, nil
	}
	if input == "" {
		return "", nil
	}
	n := lineCount(input)
	o := &s.ord
	if !o.bytewise {
		return sortKeyed(o, input, n), nil
	}
	recs := s.sortedRecs(input, n)
	if o.unique {
		recs = slices.CompactFunc(recs, func(a, b lineRec) bool { return a.line(input) == b.line(input) })
	}
	return writeLines(input, recs, o.unique), nil
}

// lineCount is the number of lines of input: its newlines, plus an
// unterminated last line.
func lineCount(input string) int {
	n := strings.Count(input, "\n")
	if input != "" && input[len(input)-1] != '\n' {
		n++
	}
	return n
}

// sortedRecs sorts the n lines of input under a bytewise ordering and
// returns their records in output order: one per distinct line with its
// count when the collapse takes, one per line otherwise. A bytewise
// ordering's ties are byte-identical lines, so its output is the
// distinct lines sorted, each repeated, and an unstable sort is
// indistinguishable from a stable one, reversed or not.
func (s *SortCmd) sortedRecs(input string, n int) []lineRec {
	recs := make([]lineRec, n)
	if n < collapseCutoff {
		fillLines(input, recs)
	} else if distinct, ok := collapseLines(input, recs, n/collapseFraction); ok {
		recs = distinct
	} else {
		fillLines(input, recs)
	}
	radixSort(input, recs, 0)
	if s.ord.keyRev {
		slices.Reverse(recs)
	}
	return recs
}

// countsRuns reports whether the chain `s | next` may run as s.countRuns:
// s is a bytewise sort without -u or -m, and next is a plain uniq -c.
func (s *SortCmd) countsRuns(next Command) bool {
	u, ok := next.(*uniqCmd)
	return ok && u.count && s.ord.bytewise && !s.Unique && !s.Merge
}

// countRuns is `sort | uniq -c` in one pass (see countsRuns): uniq -c's
// table of the sorted stream, written from the sort's records without
// writing the sorted stream and reading it back. A collapsed record
// already holds its line's count; uncollapsed records of one line lie
// next to each other once sorted, and their run is counted here.
func (s *SortCmd) countRuns(input string) string {
	if input == "" {
		return ""
	}
	recs := s.sortedRecs(input, lineCount(input))
	size := 0
	for _, r := range recs {
		size += r.n + 9 // "%7d " and the terminator
	}
	b := make([]byte, 0, size)
	for i := 0; i < len(recs); {
		r := recs[i]
		line, n := r.line(input), r.count
		for i++; i < len(recs) && recs[i].line(input) == line; i++ {
			n += recs[i].count
		}
		b = appendCount(b, n)
		b = append(b, line...)
		b = append(b, '\n')
	}
	return textio.View(b)
}

// Compare orders two lines under this command's comparator, as a merge
// of its outputs orders them: negative when a sorts first, 0 when they
// tie. The keyed merge combiner (dsl.KeyMerge) orders its keys with it.
func (s *SortCmd) Compare(a, b string) int {
	if s.ord.bytewise {
		if s.ord.keyRev {
			return strings.Compare(b, a)
		}
		return strings.Compare(a, b)
	}
	var x, y sortLine
	s.ord.setKey(&x, a)
	s.ord.setKey(&y, b)
	return s.ord.compare(&x, &y)
}

// sortKeyed sorts the n lines of input under a keyed ordering, computing
// each line's key once as it walks the input.
func sortKeyed(o *ordering, input string, n int) string {
	ks := make([]sortLine, n)
	off := 0
	for i := range ks {
		end := len(input)
		if j := strings.IndexByte(input[off:], '\n'); j >= 0 {
			end = off + j
		}
		o.setKey(&ks[i], input[off:end])
		off = end + 1
	}
	c := func(a, b sortLine) int { return o.compare(&a, &b) }
	if o.unique {
		// Key-equal lines can differ; dedup keeps the first in input order.
		slices.SortStableFunc(ks, c)
		ks = slices.CompactFunc(ks, func(a, b sortLine) bool { return c(a, b) == 0 })
	} else {
		// The last resort breaks every tie between distinct lines.
		slices.SortFunc(ks, c)
	}
	size := 0
	for _, k := range ks {
		size += len(k.line) + 1
	}
	out := make([]byte, 0, size)
	for _, k := range ks {
		out = append(out, k.line...)
		out = append(out, '\n')
	}
	return textio.View(out)
}

// lineRec is one line of a sort's input, or one distinct line with the
// number of times it occurs: its bytes are input[off:off+n], and off is
// its first occurrence. Every field is an int, so one layout holds any
// input length.
type lineRec struct {
	off, n, count int
}

func (r *lineRec) line(input string) string { return input[r.off : r.off+r.n] }

// collapseCutoff is the line count below which a bytewise Run does not
// look for repeated lines: under it the collapse saves tens of microseconds a
// sort at best, and all-distinct input still pays for hashing a quarter
// of its lines (BenchmarkCollapse; the table is in DESIGN.md).
const collapseCutoff = 2048

// collapseFraction bounds the collapse: Run sorts distinct lines only
// while at most one line in collapseFraction is distinct, where
// BenchmarkCollapse has the collapse winning at every size from the
// cutoff up. Past that, the hashing done so far is lost and every line
// is sorted.
const collapseFraction = 4

// collapseStart is the size, in records, of the collapse table before it
// first grows: the word-frequency script's chunks hold a few thousand
// distinct words, so the table starts in L1 and grows to what they need.
const collapseStart = 1024

// sortSeed seeds collapseLines' hash of lines of 8 bytes or more, and
// shortSeed its hash of shorter ones. Both are drawn per process, so no
// input built offline collides in the table.
var (
	sortSeed  = maphash.MakeSeed()
	shortSeed = [2]uint64{maphash.String(sortSeed, "s0"), maphash.String(sortSeed, "s1")}
)

// collapseLines counts the byte-identical lines of input in an
// open-addressing table at the front of recs, which must be zero and hold
// at least 4·limit records and at least one. The table starts at
// collapseStart records and doubles when it passes load ½, as long as the
// doubled table and the records it holds fit in recs side by side (see
// growTable). So the table tracks the distinct lines, and its load stays
// at most about ⅝ at the limit. If at most limit lines are distinct, it packs
// them, in no order, at the front of recs and returns them with ok set;
// otherwise recs holds garbage.
//
// Where 8 bytes remain, a line's first 8 are one load, and the SWAR
// zero-byte test on that word XOR 0x0a in every byte finds a newline
// among them. A line under 8 bytes is then that word masked to its
// length, and shortKey packs it with its length into the key the table
// holds in place of the length: a short line is hashed by shortHash and
// matched by one comparison with the record, with no call and no read of
// the input. A line of 8 bytes or more is found by IndexByte, hashed by
// maphash and compared as a string. Within 8 bytes of input's end,
// tailWord loads the bytes left, so a short line's key depends on its
// bytes only, never on where it is.
func collapseLines(input string, recs []lineRec, limit int) (distinct []lineRec, ok bool) {
	const ones, highs, newlines = 0x0101010101010101, 0x8080808080808080, 0x0a0a0a0a0a0a0a0a
	size := collapseStart
	for size > len(recs) {
		size >>= 1
	}
	tab := recs[:size]
	used := 0
	for off := 0; off < len(input); {
		var x uint64
		if off+8 <= len(input) {
			x = load8(input, off)
		} else {
			x = tailWord(input, off)
		}
		t := x ^ newlines
		n := len(input) - off // the line runs to the end unless a newline is found
		if z := (t - ones) &^ t & highs; z != 0 {
			n = bits.TrailingZeros64(z) / 8
		}
		var key int
		var h uint64
		if n < 8 {
			key = shortKey(x, n)
			h = shortHash(key)
		} else {
			n, h = longLine(input, off)
			key = n
		}
		mask := uint64(len(tab) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			r := &tab[i]
			if r.count == 0 {
				if used == limit {
					return nil, false
				}
				*r = lineRec{off: off, n: key, count: 1}
				used++
				if 2*used > len(tab) && 2*len(tab)+used < len(recs) {
					tab = growTable(input, recs, tab, used)
				}
				break
			}
			if r.n == key && (key < 0 || r.line(input) == input[off:off+n]) {
				r.count++
				break
			}
		}
		off += n + 1
	}
	n := 0
	for _, r := range tab {
		if r.count > 0 {
			if r.n < 0 {
				r.n = ^r.n & 7
			}
			tab[n] = r
			n++
		}
	}
	return tab[:n], true
}

// shortKey is the key of a line of n < 8 bytes whose first bytes are the
// little-endian word x: its bytes and its length, complemented, so that
// it is negative and never equals a long line's length.
func shortKey(x uint64, n int) int { return ^int(x&(1<<(8*n)-1)<<3 | uint64(n)) }

// shortHash is the hash of a short line's key: a seeded multiply, its
// 128-bit product folded.
func shortHash(key int) uint64 {
	hi, lo := bits.Mul64(uint64(key)^shortSeed[0], shortSeed[1])
	return hi ^ lo
}

// longLine returns the length and hash of the line of input that starts
// at off, given that it is at least 8 bytes long.
func longLine(input string, off int) (n int, h uint64) {
	n = len(input) - off
	if j := strings.IndexByte(input[off+8:], '\n'); j >= 0 {
		n = 8 + j
	}
	return n, maphash.String(sortSeed, input[off:off+n])
}

// load8 returns s[off:off+8] as a little-endian word, in one load.
func load8(s string, off int) uint64 {
	b := s[off : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// tailWord returns the fewer than 8 bytes of s from off as a
// little-endian word, zero past the end of s — which the newline test
// never takes for a newline.
func tailWord(s string, off int) uint64 {
	var w uint64
	for i := len(s) - 1; i >= off; i-- {
		w = w<<8 | uint64(s[i])
	}
	return w
}

// growTable doubles the collapse table tab, which holds used records at
// the front of recs: it moves them to the tail of recs, emptying tab as
// it goes, and rehashes them into the doubled table. The caller checks
// that the doubled table ends before that tail. So no table ever reaches
// a tail, and the doubled table's new half is still as zero as recs was
// given.
func growTable(input string, recs, tab []lineRec, used int) []lineRec {
	// Every slot is copied and the index advances past a record only, so
	// a half-full table costs no mispredicted branches. held has one slot
	// more than the records, for the copies of the empty slots after the
	// last one.
	held := recs[len(recs)-used-1:]
	j := 0
	for i := range tab {
		held[j] = tab[i]
		j += min(tab[i].count, 1)
		tab[i] = lineRec{}
	}
	tab = recs[:2*len(tab)]
	mask := uint64(len(tab) - 1)
	for _, r := range held[:used] {
		var h uint64
		if r.n < 0 {
			h = shortHash(r.n)
		} else {
			h = maphash.String(sortSeed, r.line(input))
		}
		i := h & mask
		for tab[i].count > 0 {
			i = (i + 1) & mask
		}
		tab[i] = r
	}
	return tab
}

// fillLines makes recs, which has one record per line, the line table
// of input.
func fillLines(input string, recs []lineRec) {
	off := 0
	for i := range recs {
		end := len(input)
		if j := strings.IndexByte(input[off:], '\n'); j >= 0 {
			end = off + j
		}
		recs[i] = lineRec{off: off, n: end - off, count: 1}
		off = end + 1
	}
}

// writeLines writes each record's line, terminated, count times — once
// under once — into one buffer of the output's exact size.
func writeLines(input string, recs []lineRec, once bool) string {
	size := 0
	for _, r := range recs {
		if once {
			r.count = 1
		}
		size += r.count * (r.n + 1)
	}
	out := make([]byte, size)
	w := 0
	for _, r := range recs {
		start := w
		w += copy(out[w:], r.line(input))
		out[w] = '\n'
		w++
		if once {
			continue
		}
		// Double the copy until the line's run is written.
		for end := start + r.count*(w-start); w < end; {
			w += copy(out[w:end], out[start:w])
		}
	}
	return textio.View(out)
}

// radixCutoff is the bucket size at or below which radixSort hands a
// bucket to multikeySort: there, clearing and scanning 257 counters per
// byte of depth costs more than partitioning the bucket.
const radixCutoff = 512

// radixSort sorts records bytewise by their lines in input, in place,
// given that the lines all share their first depth bytes. It is an MSD
// radix sort (American flag sort): one pass counts the records per byte
// at depth — lines that end there first, in a bucket of their own — and a
// second permutes every record into its bucket by following cycles, so
// it needs no scratch. The lines that ended are byte-identical and
// already in order. Every other bucket is sorted one byte deeper by
// recursion, except the largest, which the loop takes itself. Each
// recursive call therefore gets at most half the records, so the stack
// stays O(log n) deep however long the shared prefixes run. Buckets of
// at most radixCutoff records go to multikeySort.
//
// The order is unstable, which only lines that compare equal could
// observe, and those are byte-identical.
func radixSort(input string, recs []lineRec, depth int) {
	for len(recs) > radixCutoff {
		// Bucket 0 holds the lines that end at depth, bucket 1+b those
		// whose byte at depth is b.
		var next, end [257]int
		for i := range recs {
			end[radixKey(input, &recs[i], depth)]++
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
				r := recs[next[k]]
				for b := radixKey(input, &r, depth); b != k; b = radixKey(input, &r, depth) {
					recs[next[b]], r = r, recs[next[b]]
					next[b]++
				}
				recs[next[k]] = r
				next[k]++
			}
		}
		// next[k] is now end[k]: bucket k spans recs[start:end[k]].
		start := end[0]
		for k := 1; k < len(end); k++ {
			if k != largest {
				radixSort(input, recs[start:end[k]], depth+1)
			}
			start = end[k]
		}
		if largest == 0 {
			return
		}
		recs = recs[end[largest-1]:end[largest]]
		depth++
	}
	multikeySort(input, recs, depth)
}

// radixKey is the bucket of r's line at depth: 0 once the line has
// ended, 1+its byte at depth before.
func radixKey(input string, r *lineRec, depth int) int {
	if depth < r.n {
		return int(input[r.off+depth]) + 1
	}
	return 0
}

// insertionCutoff is the size at or below which multikeySort finishes
// with insertion sort.
const insertionCutoff = 8

// multikeySort is Bentley and Sedgewick's multikey quicksort over
// records whose lines share their first depth bytes: a three-way
// partition around one line's byte at depth, the lesser and greater
// parts sorted at the same depth, the equal part one byte deeper —
// unless its lines have ended there, which makes them byte-identical. A
// run of lines sharing a long prefix costs one pass per byte and no
// counters.
func multikeySort(input string, recs []lineRec, depth int) {
	for len(recs) > insertionCutoff {
		p := radixKey(input, &recs[len(recs)/2], depth)
		lt, gt := 0, len(recs)
		for i := 0; i < gt; {
			switch k := radixKey(input, &recs[i], depth); {
			case k < p:
				recs[lt], recs[i] = recs[i], recs[lt]
				lt++
				i++
			case k > p:
				gt--
				recs[gt], recs[i] = recs[i], recs[gt]
			default:
				i++
			}
		}
		multikeySort(input, recs[:lt], depth)
		multikeySort(input, recs[gt:], depth)
		if p == 0 {
			return
		}
		recs = recs[lt:gt]
		depth++
	}
	insertionSort(input, recs, depth)
}

// insertionSort sorts records whose lines share their first depth bytes,
// comparing only what follows them.
func insertionSort(input string, recs []lineRec, depth int) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		l := input[r.off+depth : r.off+r.n]
		j := i
		for ; j > 0 && l < input[recs[j-1].off+depth:recs[j-1].off+recs[j-1].n]; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
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

// mergeFront is the k-way merge front of one MergeStreams key range: a
// hand-rolled binary min-heap of stream cursors ordered by (line under
// the ordering, stream index), so the merge is stable by argument
// position, and -u dedup applied as lines leave the front. The heap holds
// pointers, so restoring it moves no cursor; at k = 2 it is a two-cursor
// loop, one comparison per line.
//
// The front also checks that the popped lines never descend, which holds
// exactly when every stream is sorted: if a stream has x followed by a
// lesser y, y joins the heap as x leaves it, so the next line popped
// orders no later than y, and so before x. Only two lines popped in a
// row from the same cursor can descend — a line from another cursor was
// already in the heap when its predecessor was popped as the least — so
// only those pairs are compared. The first descent ends the merge.
//
// That comparison also finds runs. When it ties and the cursor's line is
// terminated, the line and the copies of it that follow in the stream
// are counted by galloping (copies) and leave the front in one copy, and
// the heap is restored once. A tie is a byte-identical line, except
// under -u, where every tie and so every copy of it is dropped. The
// copies would have been popped next, one by one, from the same cursor:
// every other cursor's line orders after the cursor's line, or ties with
// it at a higher stream index, and a byte-identical copy compares the
// same. Input with no repeated lines never ties that comparison, so it
// pays nothing for the runs.
type mergeFront struct {
	o       *ordering
	h       []*mergeCursor // heap order; h[0] holds the next line
	last    sortLine       // the last line popped
	prev    *mergeCursor   // the cursor last popped; nil before the first pop
	descent bool           // the merge stopped at a line that orders before its predecessor
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

// write merges the front into dst, each line terminated, and returns how
// many bytes it wrote; dst must hold the merged output. It stops at the
// first descent.
func (f *mergeFront) write(dst []byte) int {
	n := 0
	for len(f.h) > 0 {
		c := f.h[0]
		emit := true
		if c == f.prev || f.o.unique && f.prev != nil {
			cmp := f.o.compare(&c.cur, &f.last)
			if cmp < 0 {
				f.descent = true
				return n
			}
			if cmp == 0 {
				emit = !f.o.unique
				if c.next <= len(c.s) {
					// A run: c's line and the copies after it, terminated.
					u := len(c.cur.line) + 1
					from := c.next - u
					c.next = from + copies(c.s, from, u)*u
					if emit {
						n += copy(dst[n:], c.s[from:c.next])
					}
					emit = false
				}
			}
		}
		f.last, f.prev = c.cur, c
		if emit {
			n += copy(dst[n:], c.cur.line)
			dst[n] = '\n'
			n++
		}
		if !c.advance(f.o) {
			k := len(f.h) - 1
			f.h[0] = f.h[k]
			f.h = f.h[:k]
		}
		f.down(0)
	}
	return n
}

// copies returns the largest m such that s[from:from+m·u] is m copies of
// s[from:from+u], given that s holds those u bytes. It gallops: the
// copies found so far are compared with as many bytes after them,
// doubling m while they match, and then the step halves down to one
// copy. A run of m copies costs O(log m) comparisons over O(m·u) bytes.
func copies(s string, from, u int) int {
	m := 1
	for end := from + 2*m*u; end <= len(s) && s[from+m*u:end] == s[from:from+m*u]; end = from + 2*m*u {
		m *= 2
	}
	for step := m / 2; step > 0; step /= 2 {
		if end := from + (m+step)*u; end <= len(s) && s[from+m*u:end] == s[from:from+step*u] {
			m += step
		}
	}
	return m
}

// MergeRangeCutoff is the total input size below which MergeStreams
// merges in one heap whatever its width: under it, cutting the streams
// and starting a goroutine per range cost about what the ranges save
// (BenchmarkMergeWidth; the table is in DESIGN.md).
const MergeRangeCutoff = 16 << 10

// MergeStreams merges k pre-sorted streams under this comparator, as the
// Unix script "sort -m <flags> $*" does in the paper's k-way combiner
// implementation (§3.5), and reports whether every stream was in fact
// sorted — the merge combiner's domain, checked in the same walk. When
// sorted is false, merged is "". Stability: ties are taken from earlier
// streams.
//
// width is how many key ranges may merge concurrently (see mergeRanges),
// never more than GOMAXPROCS; at width 1, or below MergeRangeCutoff
// bytes, one heap merges it all.
// A line costs O(log k) comparisons over keys computed once per line,
// plus at most one that checks its order — except in a run of m
// byte-identical lines from one stream, which the front copies whole
// from its second line on, for O(log m) comparisons over the run's bytes
// and one heap restore (see mergeFront). No stream is ever split into a
// []string.
func (s *SortCmd) MergeStreams(width int, streams ...string) (merged string, sorted bool) {
	size := 0
	for _, st := range streams {
		size += len(st)
	}
	if size < MergeRangeCutoff {
		width = 1
	}
	return s.mergeRanges(min(width, runtime.GOMAXPROCS(0)), streams)
}

// mergeRanges is MergeStreams split into p key ranges merged
// concurrently. The p−1 splitters are the lines at the byte quantiles of
// the largest stream; every stream is cut at each splitter's upper bound
// (cutRanges), and range i merges, with its own front, the pieces between
// cut i and cut i+1. Each range writes at its own offset into one output
// buffer sized to the input, so without -u the output is exact and
// needs no concatenation; under -u the gaps dedup left are closed before
// returning.
//
// The bytes are MergeStreams' at any p: a line lands in range i exactly
// when it orders after splitter i−1 and not after splitter i, so lines
// that compare equal share a range — tie order by stream index and -u
// dedup never cross a cut — and every line of range i orders before
// every line of range i+1. Sortedness stays exact too: each front checks
// the lines inside its range, and each pair a cut separates is in order
// by construction (see cutRanges).
func (s *SortCmd) mergeRanges(p int, streams []string) (string, bool) {
	p = max(p, 1)
	k := len(streams)
	// cuts[i*k+j] is where range i begins in stream j; row p is the end.
	cuts := make([]int, (p+1)*k)
	for j, st := range streams {
		cuts[p*k+j] = len(st)
	}
	s.cutRanges(streams, p, cuts)
	pieces := make([]string, p*k)
	offs := make([]int, p+1) // where each range's output begins
	for i := 0; i < p; i++ {
		n := 0
		for j, st := range streams {
			lo, hi := cuts[i*k+j], cuts[(i+1)*k+j]
			pieces[i*k+j] = st[lo:hi]
			n += hi - lo
			if hi > lo && hi == len(st) && st[hi-1] != '\n' {
				n++ // the terminator an unterminated final line gains
			}
		}
		offs[i+1] = offs[i] + n
	}
	out := make([]byte, offs[p])
	wrote := make([]int, p)
	descent := make([]bool, p)
	par.For(p, p, func(i int) {
		f := s.newFront(pieces[i*k : (i+1)*k])
		wrote[i] = f.write(out[offs[i]:offs[i+1]])
		descent[i] = f.descent
	})
	n := 0
	for i := range p {
		if descent[i] {
			return "", false
		}
		if n != offs[i] {
			copy(out[n:], out[offs[i]:offs[i]+wrote[i]])
		}
		n += wrote[i]
	}
	return textio.View(out[:n]), true
}

// cutRanges fills rows 1 to p−1 of cuts (see mergeRanges). Splitter i is
// the line holding byte i·len/p of the largest stream, and cut i in a
// stream is the first line at or after cut i−1 that orders strictly
// after splitter i, found by bisecting byte offsets snapped to line
// starts — no line index is built. On sorted streams the splitters
// ascend and each cut is the splitter's upper bound; on any input,
// searching from the previous cut keeps the cuts monotone, so the pieces
// always tile every stream.
//
// The pair of lines a cut separates is in order on any input, so the
// order check need not look at it: a cut strictly inside a stream ends
// the bisection with the line before it probed as not after the
// splitter and the line at it probed as after, so the two compare
// through the splitter. A cut that did not move separates the pair the
// one before it did.
func (s *SortCmd) cutRanges(streams []string, p int, cuts []int) {
	k := len(streams)
	big := ""
	for _, st := range streams {
		if len(st) > len(big) {
			big = st
		}
	}
	if big == "" {
		return // every stream is empty and every cut 0
	}
	var split, l sortLine
	for i := 1; i < p; i++ {
		start, end := lineAt(big, 0, i*len(big)/p)
		s.ord.setKey(&split, big[start:end])
		for j, st := range streams {
			lo, hi := cuts[(i-1)*k+j], len(st)
			for lo < hi {
				start, end := lineAt(st, lo, lo+(hi-lo)/2)
				s.ord.setKey(&l, st[start:end])
				if s.ord.compare(&l, &split) > 0 {
					hi = start
				} else {
					lo = min(end+1, len(st))
				}
			}
			cuts[i*k+j] = lo
		}
	}
}

// lineAt returns the bounds of the line of st that holds byte off, its
// terminator excluded, given that a line starts at from ≤ off.
func lineAt(st string, from, off int) (start, end int) {
	start = from + strings.LastIndexByte(st[from:off], '\n') + 1
	end = len(st)
	if j := strings.IndexByte(st[off:], '\n'); j >= 0 {
		end = off + j
	}
	return start, end
}
