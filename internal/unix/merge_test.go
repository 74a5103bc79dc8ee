package unix

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"kumquat/internal/textio"
)

// The reference kernels below are sort as it stood before keys were
// cached: the comparator re-derives both keys inside every comparison,
// sorting is sort.SliceStable over it, and the k-way merge is a per-line
// linear scan over all streams. They share no ordering code with sort.go,
// so the tests here hold every production kernel (Run, MergeStreams,
// IsSorted) to them byte for byte.

// referenceNumValue is GNU sort -n's leading number under LC_ALL=C:
// optional blanks, an optional '-', digits with an optional decimal part;
// anything else is 0.
func referenceNumValue(sv string) float64 {
	i := 0
	for i < len(sv) && (sv[i] == ' ' || sv[i] == '\t') {
		i++
	}
	start := i
	if i < len(sv) && sv[i] == '-' {
		i++
	}
	digits := false
	for i < len(sv) && sv[i] >= '0' && sv[i] <= '9' {
		i++
		digits = true
	}
	if i < len(sv) && sv[i] == '.' {
		i++
		for i < len(sv) && sv[i] >= '0' && sv[i] <= '9' {
			i++
			digits = true
		}
	}
	if !digits {
		return 0
	}
	str, neg := strings.CutPrefix(sv[start:i], "-")
	intPart, frac, _ := strings.Cut(str, ".")
	var v float64
	for _, c := range intPart {
		v = v*10 + float64(c-'0')
	}
	scale := 0.1
	for _, c := range frac {
		v += float64(c-'0') * scale
		scale /= 10
	}
	if neg {
		v = -v
	}
	return v
}

// referenceKey is GNU sort's -k n key without -b or -t under LC_ALL=C:
// fields are separated by the empty string between a non-blank and a
// blank (space or tab), and the key runs from the end of field n−1 to the
// end of the line, the blanks before field n included.
func referenceKey(line string, n int) string {
	blank := func(i int) bool { return line[i] == ' ' || line[i] == '\t' }
	ended := 0 // fields ended before i
	for i := range len(line) {
		if ended == n-1 {
			return line[i:]
		}
		if !blank(i) && (i+1 == len(line) || blank(i+1)) {
			ended++
		}
	}
	return ""
}

// referenceCompareKey compares the sort keys of two lines, before reversal
// and the last resort.
func referenceCompareKey(s *SortCmd, a, b string) int {
	ka, kb := a, b
	if s.Key > 0 {
		ka, kb = referenceKey(a, s.Key), referenceKey(b, s.Key)
	}
	if s.Numeric || (s.Key > 0 && s.KeyNum) {
		va, vb := referenceNumValue(ka), referenceNumValue(kb)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	}
	if s.Fold {
		ka, kb = referenceFold(ka), referenceFold(kb)
	}
	return strings.Compare(ka, kb)
}

// referenceFold is toupper in the C locale, byte by byte: only a–z fold.
func referenceFold(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// referenceLess is the full GNU ordering: the key comparison with -r (or
// a key's r) reversal, then — except under -u — a bytewise whole-line
// last resort reversed only by -r.
func referenceLess(s *SortCmd, a, b string) bool {
	c := referenceCompareKey(s, a, b)
	if s.Reverse || s.KeyRev {
		c = -c
	}
	if c == 0 && !s.Unique {
		c = strings.Compare(a, b)
		if s.Reverse {
			c = -c
		}
	}
	return c < 0
}

// referenceJoin is textio.JoinLines: lines terminated, nil → "".
func referenceJoin(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// referenceDedup keeps the first line of each run of key-equal lines.
func referenceDedup(s *SortCmd, lines []string) []string {
	var out []string
	for i, l := range lines {
		if i == 0 || referenceCompareKey(s, out[len(out)-1], l) != 0 {
			out = append(out, l)
		}
	}
	return out
}

// referenceSortLines sorts and (under -u) dedups lines, ignoring -m.
func referenceSortLines(s *SortCmd, lines []string) []string {
	sorted := make([]string, len(lines))
	copy(sorted, lines)
	sort.SliceStable(sorted, func(i, j int) bool { return referenceLess(s, sorted[i], sorted[j]) })
	if s.Unique {
		sorted = referenceDedup(s, sorted)
	}
	return sorted
}

// referenceIsSorted reports whether no line orders before its predecessor.
func referenceIsSorted(s *SortCmd, stream string) bool {
	lines := textio.Lines(stream)
	for i := 1; i < len(lines); i++ {
		if referenceLess(s, lines[i], lines[i-1]) {
			return false
		}
	}
	return true
}

// referenceSort is SortCmd.Run: -m checks sortedness and passes the one
// stream through (deduped under -u); everything else sorts stably.
func referenceSort(s *SortCmd, input string) (string, error) {
	lines := textio.Lines(input)
	if !s.Merge {
		return referenceJoin(referenceSortLines(s, lines)), nil
	}
	if !referenceIsSorted(s, input) {
		return "", fmt.Errorf("sort: -m: input is not sorted")
	}
	if s.Unique {
		lines = referenceDedup(s, lines)
	}
	return referenceJoin(lines), nil
}

// referenceMerge is the per-line cursor scan: every output line picks the
// least current line over all k streams (O(total·k)), ties going to the
// earliest stream, with -u dedup applied afterwards.
func referenceMerge(s *SortCmd, streams ...string) string {
	type cursor struct {
		lines []string
		pos   int
	}
	cursors := make([]*cursor, 0, len(streams))
	for _, st := range streams {
		cursors = append(cursors, &cursor{lines: textio.Lines(st)})
	}
	var out []string
	for {
		best := -1
		for i, c := range cursors {
			if c.pos >= len(c.lines) {
				continue
			}
			if best < 0 || referenceLess(s, c.lines[c.pos], cursors[best].lines[cursors[best].pos]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, cursors[best].lines[cursors[best].pos])
		cursors[best].pos++
	}
	if s.Unique {
		out = referenceDedup(s, out)
	}
	return referenceJoin(out)
}

// mergeSort builds a SortCmd for the given spec or fails the test.
func mergeSort(t testing.TB, spec string) *SortCmd {
	t.Helper()
	cmd, err := Parse(spec, DefaultEnv())
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return cmd.(*SortCmd)
}

// genSorted produces a stream of n lines sorted under s.
func genSorted(rng *rand.Rand, s *SortCmd, n int) string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d %c%d", rng.Intn(50), 'a'+rune(rng.Intn(4)), rng.Intn(10))
	}
	sort.SliceStable(lines, func(i, j int) bool { return referenceLess(s, lines[i], lines[j]) })
	return referenceJoin(lines)
}

// sortReferenceSpecs is every flag combination the reference tests cover.
var sortReferenceSpecs = []string{
	"sort", "sort -r", "sort -n", "sort -rn", "sort -nr", "sort -f", "sort -u",
	"sort -ru", "sort -fu", "sort -nu", "sort -k 2", "sort -k2n", "sort -k2nr", "sort -m",
}

// radixCorpora are shaped for the bytewise radix sort: buckets both
// above radixCutoff and between it and insertionCutoff, so every path of
// the kernel runs — NUL and 0xFF bytes (the first and last buckets),
// lines that are prefixes of other lines (the ended bucket at every
// depth), prefixes shared over more than 100 bytes, runs of identical
// lines, empty lines, and each of them again without its final newline.
func radixCorpora() []string {
	rng := rand.New(rand.NewSource(22))
	line := func(alphabet string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	shapes := []func() string{
		func() string { return line("\x00\xff\x01\xfea", rng.Intn(5)) },
		func() string { return strings.Repeat("a", rng.Intn(120)) + line("ab", rng.Intn(2)) },
		func() string { return strings.Repeat("p", 100+rng.Intn(3)) + line("pq\x00", rng.Intn(4)) },
		func() string { return []string{"same", "same\x00", "sam", "same"}[rng.Intn(4)] },
		func() string { return []string{"", "", "x", "\x00", " "}[rng.Intn(5)] },
	}
	var corpora []string
	for _, shape := range shapes {
		var b strings.Builder
		for i := 0; i < 1500; i++ {
			b.WriteString(shape())
			b.WriteByte('\n')
		}
		corpora = append(corpora, b.String(), strings.TrimSuffix(b.String(), "\n"))
	}
	return corpora
}

// collapseCorpora are duplicate-heavy inputs of at least collapseCutoff
// lines, so a bytewise Run sorts their distinct lines: a vocabulary with
// empty lines, NUL bytes and lines that are key-equal but different
// under -n, -f and -k 2 (for keyed -u's dedup), terminated and not; then
// corpora of exactly the distinct limit and one line more, so the
// collapse and the bail-out both run at the boundary.
func collapseCorpora() []string {
	rng := rand.New(rand.NewSource(23))
	vocab := []string{"", "\x00", "a\x00b", "a", "A", "b", "1 x", "1 y", "01 x", "2", "2.0", "-2 b",
		"x 10", "y 9", "z 10", "é", "É 3", "\t1", " "}
	var b strings.Builder
	for range 2 * collapseCutoff {
		b.WriteString(vocab[rng.Intn(len(vocab))])
		b.WriteByte('\n')
	}
	dups := b.String()
	corpora := []string{dups, strings.TrimSuffix(dups, "\n")}
	n := collapseCutoff
	for _, distinct := range []int{n / collapseFraction, n/collapseFraction + 1} {
		lines := append([]string(nil), vocab...)
		for i := len(lines); i < distinct; i++ {
			lines = append(lines, fmt.Sprintf("%d w%d", rng.Intn(20), i))
		}
		for len(lines) < n {
			lines = append(lines, lines[rng.Intn(distinct)])
		}
		rng.Shuffle(n, func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		corpora = append(corpora, referenceJoin(lines))
	}
	return corpora
}

// TestCollapseCorporaTakeBothPaths: the duplicate-heavy corpora and the
// one at the distinct limit collapse, to exactly their distinct lines;
// the one a line past it bails out.
func TestCollapseCorporaTakeBothPaths(t *testing.T) {
	corpora := collapseCorpora()
	for i, in := range corpora {
		lines := textio.Lines(in)
		distinct := len(slices.Compact(slices.Sorted(slices.Values(lines))))
		got, ok := collapseLines(in, make([]lineRec, len(lines)), len(lines)/collapseFraction)
		if wantOK := i < len(corpora)-1; ok != wantOK || ok && len(got) != distinct {
			t.Errorf("corpus %d (%d lines, %d distinct): collapse gave %d records, ok %v; want ok %v",
				i, len(lines), distinct, len(got), ok, wantOK)
		}
		if i >= 2 && distinct != len(lines)/collapseFraction+i-2 {
			t.Errorf("corpus %d has %d distinct lines, want the limit %d plus %d",
				i, distinct, len(lines)/collapseFraction, i-2)
		}
		total := 0
		for _, r := range got {
			total += r.count
		}
		if ok && total != len(lines) {
			t.Errorf("corpus %d: the counts sum to %d, want %d lines", i, total, len(lines))
		}
	}
}

// checkCollapse holds collapseLines on input at limit to a map count of
// input's lines: ok exactly when at most limit lines are distinct, and
// then one packed record per distinct line, carrying its count. recs gets
// room records past the 4·limit it needs.
func checkCollapse(t *testing.T, input string, limit, room int) {
	t.Helper()
	want := map[string]int{}
	for _, l := range textio.Lines(input) {
		want[l]++
	}
	got, ok := collapseLines(input, make([]lineRec, max(4*limit, 1)+room), limit)
	if ok != (len(want) <= limit) {
		t.Fatalf("collapseLines(%.80q, limit %d): ok %v with %d distinct lines", input, limit, ok, len(want))
	}
	if !ok {
		return
	}
	seen := map[string]bool{}
	for _, r := range got {
		l := r.line(input)
		if seen[l] || r.count != want[l] {
			t.Fatalf("collapseLines(%.80q): record %q count %d, seen before %v; want count %d once",
				input, l, r.count, seen[l], want[l])
		}
		seen[l] = true
	}
	if len(got) != len(want) {
		t.Fatalf("collapseLines(%.80q): %d records, want %d distinct lines", input, len(got), len(want))
	}
}

// collapseSeeds are inputs for the collapse: lines of 0–16 bytes, each
// ending at every offset from the input's end, terminated and not; and
// streams whose distinct line count sits on either side of each point
// where the table doubles. The first three are the regression case for
// a short line within 8 bytes of the end, whose key is loaded byte by
// byte: keyed by where it sits rather than by its bytes alone, it would
// get a record apart from its copy in the body.
func collapseSeeds() []string {
	seeds := []string{"\x80\x80\n\x80\x80", "\x80\x80\n\x80\x80\n", "12345678\nab\nz\nab"}
	for n := 0; n <= 16; n++ {
		l := strings.Repeat("abcdefghijklmnopq"[n:n+1], n)
		for pad := 0; pad <= 9; pad++ {
			body := l + "\n" + strings.Repeat("\xff", pad) + "\n" + l
			seeds = append(seeds, body+"\n", body, l+"\n"+l+"\n\n"+strings.Repeat("x\n", pad))
		}
	}
	rng := rand.New(rand.NewSource(24))
	for d := collapseStart / 2; d <= 4*collapseStart; d *= 2 {
		for _, distinct := range []int{d - 1, d, d + 1} {
			lines := make([]string, 0, 2*distinct)
			for i := range distinct {
				lines = append(lines, streamWord(uint64(i)))
			}
			for range distinct {
				lines = append(lines, lines[rng.Intn(distinct)])
			}
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			seeds = append(seeds, referenceJoin(lines))
		}
	}
	return seeds
}

// FuzzCollapseMatchesCount holds the collapse to a map count
// (checkCollapse) with the limit slack lines from the distinct count and
// room spare records. Its seeds run at the distinct count, with no room
// to spare and with one, and one below it, where the collapse must bail
// out.
func FuzzCollapseMatchesCount(f *testing.F) {
	for _, in := range collapseSeeds() {
		f.Add(in, int8(0), uint8(0))
		f.Add(in, int8(-1), uint8(1))
	}
	f.Fuzz(func(t *testing.T, input string, slack int8, room uint8) {
		distinct := len(slices.Compact(slices.Sorted(slices.Values(textio.Lines(input)))))
		checkCollapse(t, input, max(distinct+int(slack), 0), int(room))
	})
}

// sortReferenceCorpora returns the reference corpora: random, heavy
// duplicates, empty lines, unterminated final lines, numeric edge
// strings, mixed case, multibyte text and the radix corpora.
func sortReferenceCorpora() []string {
	rng := rand.New(rand.NewSource(21))
	tokens := []string{"a", "B", "b", "1", "10", "-2", "2.5", "x y", "", " ", "\t", "-", "Ab", "é"}
	var random, dups strings.Builder
	for i := 0; i < 60; i++ {
		for f := rng.Intn(4); f > 0; f-- {
			random.WriteString(tokens[rng.Intn(len(tokens))])
			random.WriteString(strconv.Itoa(rng.Intn(20)))
			if f > 1 {
				random.WriteByte(" \t"[rng.Intn(2)])
			}
		}
		random.WriteByte('\n')
		dups.WriteString([]string{"a", "b", "a b", "1 x", "1 y", "2", "A", "01"}[rng.Intn(8)])
		dups.WriteByte('\n')
	}
	return append([]string{
		"",
		"\n",
		random.String(),
		dups.String(),
		"\n\nb\n\n a\n\n",
		"b\na\nc",
		"z 2\ny 1\nx",
		"-0\n-\n.\n-.5\n1.5.3\n  7\n\t3\n+5\n0\n -2\n\t-1.5\n0.0\n00\n-0.0\n.5\n5.\n1e3\n",
		"x 5\ny\nz 1\n a  3\n\tb\t2\nw -1\nv +4\n",
		"b\nB\na\nA\nab\nAb\naB\nAB\nb\n",
		"é\nÉ\nß\nñ 2\nÑ 1\nz\n日本 3\n\xff\xfe\nZ\nø\nØ 0\n",
		"éa\nÉb\n",
	}, radixCorpora()...)
}

// splitStreams cuts s at up to five random line boundaries into parts
// whose concatenation is s; repeated cuts and cuts at the end leave empty
// streams. Few parts keep the O(total·k) reference merge fast on fuzzed
// input.
func splitStreams(rng *rand.Rand, s string) []string {
	cuts := []int{0, len(s)}
	for n := rng.Intn(6); n > 0; n-- {
		i := rng.Intn(len(s) + 1)
		if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
			i += j + 1
		} else {
			i = len(s)
		}
		cuts = append(cuts, i)
	}
	sort.Ints(cuts)
	parts := make([]string, len(cuts)-1)
	for i := range parts {
		parts[i] = s[cuts[i]:cuts[i+1]]
	}
	return parts
}

// checkSortCase holds Run, MergeStreams and IsSorted to
// the reference on one spec and input.
func checkSortCase(t *testing.T, spec, input string, rng *rand.Rand) {
	t.Helper()
	s := mergeSort(t, spec)
	want, wantErr := referenceSort(s, input)
	got, err := s.Run(input)
	if got != want || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Run(%q) = %q, %v; reference %q, %v", spec, input, got, err, want, wantErr)
	}
	lines := textio.Lines(input)
	sorted := referenceJoin(referenceSortLines(s, lines))
	for _, x := range []string{input, sorted} {
		if got, want := s.IsSorted(x), referenceIsSorted(s, x); got != want {
			t.Fatalf("%s: IsSorted(%q) = %v, reference %v", spec, x, got, want)
		}
	}
	// Merge the sorted output split at random, and the input split at
	// random with each part sorted on its own.
	parts := splitStreams(rng, input)
	for i, p := range parts {
		parts[i] = referenceJoin(referenceSortLines(s, textio.Lines(p)))
	}
	for _, streams := range [][]string{splitStreams(rng, sorted), parts} {
		want := referenceMerge(s, streams...)
		if got, sorted := s.MergeStreams(1, streams...); got != want || !sorted {
			t.Fatalf("%s: MergeStreams(%q) = %q, %v; reference %q", spec, streams, got, sorted, want)
		}
		for _, st := range streams {
			if !s.IsSorted(st) {
				t.Fatalf("%s: IsSorted(%q) = false on a sorted stream", spec, st)
			}
		}
	}
}

// TestSortMatchesReference: every kernel agrees with the reference on
// every covered flag combination and corpus, the collapse corpora
// included.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	corpora := append(sortReferenceCorpora(), collapseCorpora()...)
	for _, spec := range sortReferenceSpecs {
		for i, in := range corpora {
			t.Run(fmt.Sprintf("%s/%d", spec, i), func(t *testing.T) {
				checkSortCase(t, spec, in, rng)
			})
		}
	}
	// GNU sort -f under LC_ALL=C folds ASCII only, so É (C3 89) still
	// sorts before é (C3 A9); a Unicode fold would tie them and order by
	// the next letter.
	if got, _ := mergeSort(t, "sort -f").Run("éa\nÉb\n"); got != "Éb\néa\n" {
		t.Errorf(`sort -f: Run("éa\nÉb\n") = %q, want "Éb\néa\n"`, got)
	}
}

// TestSortRunAllocations: Run allocates the record slab and the output,
// and nothing that grows with the line count — whether it collapses
// repeated lines (the duplicate-heavy shape), grows the collapse table
// inside the slab as it goes (a few thousand distinct words over 200 000
// lines) or bails out and sorts every line (the mostly distinct one). A
// GC cycle first keeps the first cycle's mark workers, which allocate,
// out of the measured runs.
func TestSortRunAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	runtime.GC()
	for _, spec := range []string{"sort", "sort -r", "sort -u", "sort -ru"} {
		s := mergeSort(t, spec)
		for _, shape := range []struct {
			name  string
			value func(n int) int
			large int
		}{
			{"mostly distinct", func(n int) int { return rng.Intn(n) * 7919 }, 20000},
			{"duplicate-heavy", func(int) int { return rng.Intn(50) }, 20000},
			{"growing table", func(int) int { return rng.Intn(3000) * 7919 }, 200000},
		} {
			var allocs []float64
			for _, n := range []int{100, shape.large} {
				var b strings.Builder
				for i := 0; i < n; i++ {
					b.WriteString(strconv.Itoa(shape.value(n)))
					b.WriteByte('\n')
				}
				in := b.String()
				allocs = append(allocs, testing.AllocsPerRun(5, func() { s.Run(in) }))
			}
			if allocs[0] != allocs[1] || allocs[1] > 2 {
				t.Errorf("%s, %s: Run allocates %v times over 100 lines and %v over %d, want the same and at most 2",
					spec, shape.name, allocs[0], allocs[1], shape.large)
			}
		}
	}
}

// FuzzSortMatchesReference is TestSortMatchesReference over arbitrary
// input, seeded from the same table. reps%8 > 0 repeats each input line
// that many times, and the block until it holds collapseCutoff lines, so
// the collapse runs on short inputs and, on the 1500-line seeds, the
// bail-out too.
func FuzzSortMatchesReference(f *testing.F) {
	for i := range sortReferenceSpecs {
		for _, in := range sortReferenceCorpora() {
			f.Add(uint8(i), in, uint8(0))
			if strings.Count(in, "\n") < 100 {
				f.Add(uint8(i), in, uint8(3))
			}
		}
	}
	f.Fuzz(func(t *testing.T, spec uint8, input string, reps uint8) {
		rng := rand.New(rand.NewSource(int64(len(input))))
		checkSortCase(t, sortReferenceSpecs[int(spec)%len(sortReferenceSpecs)], repeatLines(input, int(reps%8)), rng)
	})
}

// repeatLines repeats each line of input r times, then the whole block
// until it holds at least collapseCutoff lines, keeping input's final
// newline or its absence. r = 0 leaves input as it is, and so does a
// block past 4·collapseCutoff lines, which would only slow the reference.
func repeatLines(input string, r int) string {
	lines := textio.Lines(input)
	if r == 0 || len(lines) == 0 || len(lines)*r > 4*collapseCutoff {
		return input
	}
	var block []string
	for _, l := range lines {
		for range r {
			block = append(block, l)
		}
	}
	out := block
	for len(out) < collapseCutoff {
		out = append(out, block...)
	}
	joined := referenceJoin(out)
	if !textio.IsStream(input) {
		joined = strings.TrimSuffix(joined, "\n")
	}
	return joined
}

// TestMergeHeapMatchesScan: the merge front must be byte-identical to the
// reference scan merge for every comparator the benchmarks use, across
// random stream counts and shapes (including empty streams and heavy
// cross-stream ties).
func TestMergeHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range []string{"sort", "sort -n", "sort -rn", "sort -u", "sort -f", "sort -k 2", "sort -k1n", "sort -nu"} {
		s := mergeSort(t, spec)
		for trial := 0; trial < 50; trial++ {
			k := 1 + rng.Intn(40)
			streams := make([]string, k)
			for i := range streams {
				streams[i] = genSorted(rng, s, rng.Intn(12))
			}
			want := referenceMerge(s, streams...)
			got, sorted := s.MergeStreams(1, streams...)
			if got != want || !sorted {
				t.Fatalf("%s k=%d: heap merge = %q, scan merge = %q", spec, k, got, want)
			}
		}
	}
}

// TestMergeHeapStability: key-equal lines resolve to the earliest stream
// (GNU sort -m stability). Without -u the last-resort bytewise comparison
// makes distinguishable lines never tie, so stability is observable
// exactly through -u's dedup keeping the first-popped line of each
// equal-key run — which must come from the earliest stream.
func TestMergeHeapStability(t *testing.T) {
	s := mergeSort(t, "sort -nu")
	got, _ := s.MergeStreams(1, "1 c\n", "1 b\n2 x\n", "1 a\n")
	want := "1 c\n2 x\n"
	if got != want {
		t.Errorf("stability: got %q, want %q", got, want)
	}
	if scan := referenceMerge(s, "1 c\n", "1 b\n2 x\n", "1 a\n"); scan != got {
		t.Errorf("heap %q disagrees with scan %q", got, scan)
	}
}

// TestMergeHeapUnterminated: streams without trailing newlines still merge
// with Lines semantics, and the output is newline-terminated.
func TestMergeHeapUnterminated(t *testing.T) {
	s := mergeSort(t, "sort")
	got, _ := s.MergeStreams(1, "a\nc", "b\n", "")
	want := referenceMerge(s, "a\nc", "b\n", "")
	if got != want {
		t.Errorf("unterminated: heap %q, scan %q", got, want)
	}
	if got != "a\nb\nc\n" {
		t.Errorf("unterminated: got %q", got)
	}
}

// TestIsSortedAllocs: the merge combiner's legality check walks the stream
// in place — no line index, no allocation — for plain, numeric and keyed
// orderings.
func TestIsSortedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []string{"sort", "sort -n", "sort -k 2"} {
		s := mergeSort(t, spec)
		stream := genSorted(rng, s, 10000)
		ok := false
		if allocs := testing.AllocsPerRun(10, func() { ok = s.IsSorted(stream) }); allocs != 0 {
			t.Errorf("%s: IsSorted allocates %v times per run, want 0", spec, allocs)
		}
		if !ok {
			t.Errorf("%s: IsSorted = false on a sorted stream", spec)
		}
	}
}

// benchStreams builds k sorted substreams of roughly lines/k lines each.
func benchStreams(b *testing.B, s *SortCmd, k, lines int) []string {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	streams := make([]string, k)
	per := lines / k
	if per < 1 {
		per = 1
	}
	for i := range streams {
		streams[i] = genSorted(rng, s, per)
	}
	return streams
}

// BenchmarkMergeReference and BenchmarkMergeFront compare the reference
// per-line cursor scan (O(total·k), every line materialized up front)
// against the production merge front (O(total·log k) over cached keys)
// across the combine-plane k sweep, with allocations reported.
func BenchmarkMergeReference(b *testing.B) {
	benchMerge(b, referenceMerge)
}

// BenchmarkMergeFront is the production counterpart of
// BenchmarkMergeReference.
func BenchmarkMergeFront(b *testing.B) {
	benchMerge(b, func(s *SortCmd, streams ...string) string {
		out, _ := s.MergeStreams(1, streams...)
		return out
	})
}

func benchMerge(b *testing.B, merge func(*SortCmd, ...string) string) {
	s := mergeSort(b, "sort")
	for _, k := range []int{2, 8, 32, 128} {
		streams := benchStreams(b, s, k, 16384)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if out := merge(s, streams...); out == "" {
					b.Fatal("empty merge output")
				}
			}
		})
	}
}

// BenchmarkSortRun times the sort kernel on 100 000 lines drawn from a
// Zipf(1.1) vocabulary — the shape `tr -cs` leaves of a text — for each
// ordering class: bytewise, -u, -f fold, and the numeric classes over
// the shapes they meet in the word-frequency script (`uniq -c` counts
// for -rn, a numeric second field for -k2n). Three more cases price the
// bytewise collapse's bail-out: all lines distinct (the bail-out after a
// quarter of the lines), and exactly the distinct limit and one line past
// it, drawn at random (the collapse at its limit, and the bail-out on the
// last lines). -rn on all-distinct lines is what
// `sort | uniq -c | sort -rn` hands its final stage. The word stream is
// what each chunk's sort sees in the word-frequency script: 550 000
// lines over a Zipf(1.07) vocabulary of 4 096 words of 3–7 bytes.
func BenchmarkSortRun(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<15)
	const n = 100_000
	ranks := make([]uint64, n)
	for i := range ranks {
		ranks[i] = zipf.Uint64()
	}
	words := rand.NewZipf(rand.New(rand.NewSource(10)), 1.07, 1, 4095)
	stream := make([]uint64, 550_000)
	for i := range stream {
		stream[i] = words.Uint64()
	}
	limit := n / collapseFraction
	cases := []struct {
		name, spec string
		ranks      []uint64
		line       func(r uint64) string
	}{
		{"sort", "sort", ranks, zipfWord},
		{"sort -rn", "sort -rn", ranks, func(r uint64) string { return fmt.Sprintf("%7d %s", 100000/(r+1), zipfWord(r)) }},
		{"sort -k2n", "sort -k2n", ranks, func(r uint64) string { return zipfWord(r) + " " + strconv.FormatUint(r, 10) }},
		{"sort -f", "sort -f", ranks, func(r uint64) string {
			if r%3 == 0 {
				return strings.ToUpper(zipfWord(r))
			}
			return zipfWord(r)
		}},
		{"sort -u", "sort -u", ranks, zipfWord},
		{"sort distinct", "sort", distinctRanks(rng, n, n), zipfWord},
		{"sort at limit", "sort", distinctRanks(rng, n, limit), zipfWord},
		{"sort past limit", "sort", distinctRanks(rng, n, limit+1), zipfWord},
		{"sort -rn distinct", "sort -rn", distinctRanks(rng, n, n), func(r uint64) string { return fmt.Sprintf("%7d %s", r%1000, zipfWord(r)) }},
		{"sort word stream", "sort", stream, streamWord},
	}
	for _, c := range cases {
		var in strings.Builder
		for _, r := range c.ranks {
			in.WriteString(c.line(r))
			in.WriteByte('\n')
		}
		input := in.String()
		s := mergeSort(b, c.spec)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			for b.Loop() {
				if _, err := s.Run(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// distinctRanks draws n ranks from d distinct values, each at least
// once, in random order.
func distinctRanks(rng *rand.Rand, n, d int) []uint64 {
	rs := make([]uint64, n)
	for i := range rs {
		rs[i] = uint64(i % d)
	}
	rng.Shuffle(n, func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// BenchmarkCollapse is where collapseCutoff and collapseFraction come
// from: Zipf words (BenchmarkSortRun's shape) at each line count and
// share of distinct lines, in random order, sorted bytewise with the
// collapse forced on (its limit exactly the distinct lines) and off, the
// way Run's bytewise path does it. The table is in DESIGN.md.
func BenchmarkCollapse(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{512, 1024, 2048, 4096, 16384, 100_000} {
		for _, div := range []int{1, 2, 3, 4, 6, 8, 64} {
			d := n / div
			var in strings.Builder
			for _, r := range distinctRanks(rng, n, d) {
				in.WriteString(zipfWord(r))
				in.WriteByte('\n')
			}
			input := in.String()
			for _, collapse := range []bool{false, true} {
				b.Run(fmt.Sprintf("lines=%d/distinct=1:%d/collapse=%v", n, div, collapse), func(b *testing.B) {
					size := n // Run's slab; a limit past a quarter of the lines needs more
					if collapse {
						size = max(n, 4*d)
					}
					for b.Loop() {
						recs := make([]lineRec, size)
						if collapse {
							recs, _ = collapseLines(input, recs, d)
						} else {
							recs = recs[:n]
							fillLines(input, recs)
						}
						radixSort(input, recs, 0)
						writeLines(input, recs, false)
					}
				})
			}
		}
	}
}

// mergeWidths are the range counts the range-merge tests run at.
func mergeWidths() []int { return []int{1, 2, 3, 4, runtime.GOMAXPROCS(0)} }

// checkMergeWidth holds mergeRanges at every width to the reference: the
// sortedness verdict of referenceIsSorted over every stream and, when
// sorted, referenceMerge's bytes. mergeRanges is called directly, so
// inputs far below MergeRangeCutoff still take the cuts.
func checkMergeWidth(t *testing.T, s *SortCmd, streams []string) {
	t.Helper()
	wantSorted := true
	for _, st := range streams {
		wantSorted = wantSorted && referenceIsSorted(s, st)
	}
	want := ""
	if wantSorted {
		want = referenceMerge(s, streams...)
	}
	for _, p := range mergeWidths() {
		got, sorted := s.mergeRanges(p, streams)
		if sorted != wantSorted || got != want {
			t.Fatalf("%s width %d: mergeRanges(%q) = %q, %v; reference %q, %v",
				s.Spec(), p, streams, got, sorted, want, wantSorted)
		}
	}
}

// sortedLines returns input's lines stably sorted by the reference,
// key-equal duplicates kept (a run may hold them even under -u).
func sortedLines(s *SortCmd, input string) []string {
	lines := textio.Lines(input)
	sort.SliceStable(lines, func(i, j int) bool { return referenceLess(s, lines[i], lines[j]) })
	return lines
}

// dealRuns deals sorted lines at random into k runs, so each run is
// sorted; skewed deals the lesser half, in order, to run 0 alone, so one
// run holds every small key.
func dealRuns(rng *rand.Rand, sorted []string, k int, skewed bool) []string {
	deal := make([][]string, k)
	for i, l := range sorted {
		j := rng.Intn(k)
		if skewed {
			j = 0
			if i >= len(sorted)/2 {
				j = 1 + rng.Intn(k-1)
			}
		}
		deal[j] = append(deal[j], l)
	}
	runs := make([]string, k)
	for j, lines := range deal {
		runs[j] = referenceJoin(lines)
	}
	return runs
}

// runCorpora are shaped for the run copies of the merge front and uniq:
// a run of every length from 1 to 70, which crosses each doubling and
// halving step of copies; runs of empty lines; a run that ends in an
// unterminated copy; a run of thousands of lines that holds the byte
// quantiles of every merge width, so the splitters fall inside it; and
// runs of copies interleaved with lines that are key-equal to them
// but different, under -f (a, A), -n (1, 01) and -k 2 (x 2, y 2).
func runCorpora() []string {
	rng := rand.New(rand.NewSource(35))
	var lengths, empties, long, mixed strings.Builder
	for n := 1; n <= 70; n++ {
		lengths.WriteString(strings.Repeat(fmt.Sprintf("w%02d\n", n), n))
	}
	for range 40 {
		empties.WriteString(strings.Repeat("\n", 1+rng.Intn(9)))
		fmt.Fprintf(&empties, "e%d\n", rng.Intn(5))
	}
	for i := range 200 {
		fmt.Fprintf(&long, "a%03d\n", i)
	}
	long.WriteString(strings.Repeat("m run\n", 5000))
	for i := range 200 {
		fmt.Fprintf(&long, "z%03d\n", i)
	}
	pairs := [][2]string{{"a", "A"}, {"1", "01"}, {"x 2", "y 2"}}
	for range 300 {
		p := pairs[rng.Intn(len(pairs))]
		mixed.WriteString(strings.Repeat(p[rng.Intn(2)]+"\n", 1+rng.Intn(5)))
	}
	return []string{lengths.String(), empties.String(), strings.Repeat("x\n", 37) + "x", long.String(), mixed.String()}
}

// TestCopies: the gallop counts every run length from 1 to 70 exactly,
// from any offset, whatever follows the run: the end of the stream, an
// unterminated copy, another line, or the line with more bytes after it.
// A short count would leave the output unchanged (the front would find
// the rest of the run as a run of its own), so only this test sees it.
func TestCopies(t *testing.T) {
	for _, line := range []string{"x", "", "ab\x00"} {
		unit := line + "\n"
		for _, after := range []string{"", line, "y\n", line + "z\n"} {
			for m := 1; m <= 70; m++ {
				s := "pre\n" + strings.Repeat(unit, m) + after
				if got := copies(s, len("pre\n"), len(unit)); got != m {
					t.Errorf("copies of %q, %d of them, then %q: got %d", unit, m, after, got)
				}
			}
		}
	}
}

// TestMergeWidthMatchesReference: the range merge is byte-identical to
// the reference merge at every width, for every covered ordering, over
// the reference corpora dealt at random, skewed runs, all-identical
// lines, a splitter equal to thousands of lines, empty and unterminated
// runs, and the run corpora.
func TestMergeWidthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var same, plateau strings.Builder
	for i := 0; i < 3000; i++ {
		same.WriteString("7 same\n")
		plateau.WriteString("5 mid\n")
	}
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&plateau, "%d %c\n", rng.Intn(10), 'a'+rune(rng.Intn(26)))
	}
	corpora := append(sortReferenceCorpora(), same.String(), plateau.String())
	corpora = append(corpora, runCorpora()...)
	for _, spec := range sortReferenceSpecs {
		s := mergeSort(t, spec)
		for i, in := range corpora {
			t.Run(fmt.Sprintf("%s/%d", spec, i), func(t *testing.T) {
				sorted := sortedLines(s, in)
				for _, k := range []int{1, 2, 3, 8} {
					runs := dealRuns(rng, sorted, k, false)
					checkMergeWidth(t, s, runs)
					// Unterminated runs, and an empty run in front.
					for j := range runs {
						runs[j] = strings.TrimSuffix(runs[j], "\n")
					}
					checkMergeWidth(t, s, append([]string{""}, runs...))
					if k > 1 {
						checkMergeWidth(t, s, dealRuns(rng, sorted, k, true))
					}
				}
			})
		}
	}
}

// TestMergeWidthDetectsDescent: one out-of-order pair anywhere — inside a
// range, at either edge of a cut, at a run's last line, in the run the
// splitters come from or another, right after a run of copies — gives
// sorted == false at every width. No cut ever lands between the two
// lines of the pair (cutRanges says why), so a cut-edge descent is the
// one next to the cut.
func TestMergeWidthDetectsDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, spec := range []string{"sort", "sort -n", "sort -rn", "sort -u", "sort -k2n", "sort -f"} {
		s := mergeSort(t, spec)
		lines := make([]string, 240)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d %c%d", rng.Intn(1000), 'a'+rune(rng.Intn(26)), i)
		}
		runs := []string{
			referenceJoin(referenceSortLines(s, lines[:160])),
			referenceJoin(referenceSortLines(s, lines[160:])),
		}
		edges := 0
		for r := range runs {
			for _, unterminated := range []bool{false, true} {
				rl := textio.Lines(runs[r])
				for i := 0; i+1 < len(rl); i++ {
					if !referenceLess(s, rl[i], rl[i+1]) {
						continue // swapping equal lines leaves the run sorted
					}
					swapped := slices.Clone(rl)
					swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
					streams := slices.Clone(runs)
					streams[r] = referenceJoin(swapped)
					if unterminated {
						streams[r] = strings.TrimSuffix(streams[r], "\n")
					}
					checkMergeWidth(t, s, streams)
					// Where the pair's lines start, and where the line
					// after them does.
					first := len(strings.Join(swapped[:i], "\n")) + min(i, 1)
					second := first + len(swapped[i]) + 1
					after := second + len(swapped[i+1]) + 1
					for _, p := range mergeWidths()[1:] {
						cuts := make([]int, (p+1)*len(streams))
						for j, st := range streams {
							cuts[p*len(streams)+j] = len(st)
						}
						s.cutRanges(streams, p, cuts)
						for c := 1; c < p; c++ {
							switch cuts[c*len(streams)+r] {
							case second:
								t.Fatalf("%s width %d: a cut separates the descent %q, %q", spec, p, swapped[i], swapped[i+1])
							case first, after:
								edges++
							}
						}
					}
				}
			}
		}
		if edges == 0 {
			t.Errorf("%s: no descent sat next to a cut", spec)
		}
		// A line right after a run of at least three copies of a greater
		// one: the front counts the copies by galloping, then meets it.
		rl := textio.Lines(runs[0])
		for i := 1; i+1 < len(rl); i += 15 {
			if !referenceLess(s, rl[i-1], rl[i]) {
				continue
			}
			run := slices.Clone(rl[:i])
			for range 3 + i%5 {
				run = append(run, rl[i])
			}
			run = append(append(run, rl[i-1]), rl[i+1:]...)
			if referenceIsSorted(s, referenceJoin(run)) {
				t.Fatalf("%s: %q after copies of %q is no descent", spec, rl[i-1], rl[i])
			}
			checkMergeWidth(t, s, []string{referenceJoin(run), runs[1]})
		}
	}
}

// FuzzMergeWidthMatchesReference is TestMergeWidthMatchesReference over
// arbitrary input: the input cut into runs as it is (sorted or not) and
// each run sorted, at every width. reps repeats the input's lines as in
// FuzzSortMatchesReference, so the sorted runs hold runs of copies.
func FuzzMergeWidthMatchesReference(f *testing.F) {
	for i := range sortReferenceSpecs {
		for _, in := range sortReferenceCorpora()[:12] {
			f.Add(uint8(i), in, uint8(0))
			f.Add(uint8(i), in, uint8(3))
		}
	}
	f.Fuzz(func(t *testing.T, spec uint8, input string, reps uint8) {
		s := mergeSort(t, sortReferenceSpecs[int(spec)%len(sortReferenceSpecs)])
		input = repeatLines(input, int(reps%8))
		rng := rand.New(rand.NewSource(int64(len(input))))
		runs := splitStreams(rng, input)
		checkMergeWidth(t, s, runs)
		for i, r := range runs {
			runs[i] = referenceJoin(referenceSortLines(s, textio.Lines(r)))
		}
		checkMergeWidth(t, s, runs)
	})
}

// zipfWord spells a rank as a pseudo-word whose order is unrelated to it.
func zipfWord(r uint64) string { return strconv.FormatUint(r*2654435761%1000003+36*36, 36) }

// streamWord is word r < 26³ of a vocabulary of 3–7 lowercase letters:
// r in three base-26 letters, so no two words are alike, then r%5 more
// letters that repeat them.
func streamWord(r uint64) string {
	b := []byte{'a' + byte(r%26), 'a' + byte(r/26%26), 'a' + byte(r/676%26)}
	for i := range int(r % 5) {
		b = append(b, b[i])
	}
	return string(b)
}

// zipfRuns deals words of a Zipf(1.1) vocabulary — the shape `tr -cs`
// leaves of a text, and BenchmarkSortRun's — round robin into k runs
// until they total at least size bytes, and sorts each run.
func zipfRuns(t testing.TB, s *SortCmd, size, k int) []string {
	zipf := rand.NewZipf(rand.New(rand.NewSource(8)), 1.1, 1, 1<<15)
	return dealWords(t, s, size, k, func() string { return zipfWord(zipf.Uint64()) })
}

// distinctRuns is zipfRuns over words that are all distinct, so the
// sorted runs hold no copies: the merge front's worst case for runs.
func distinctRuns(t testing.TB, s *SortCmd, size, k int) []string {
	i := uint32(0)
	return dealWords(t, s, size, k, func() string {
		i++
		return strconv.FormatUint(uint64(i*2654435761), 36) // a bijection on uint32
	})
}

// runShapes are the shapes of sorted words the run benchmarks time: Zipf
// words, mostly runs of copies, and all-distinct words, no runs at all.
var runShapes = []struct {
	name string
	runs func(t testing.TB, s *SortCmd, size, k int) []string
}{{"zipf", zipfRuns}, {"distinct", distinctRuns}}

// dealWords deals the words next returns round robin into k runs until
// they total at least size bytes, and sorts each run.
func dealWords(t testing.TB, s *SortCmd, size, k int, next func() string) []string {
	bs := make([]strings.Builder, k)
	for n, j := 0, 0; n < size; j = (j + 1) % k {
		w := next()
		bs[j].WriteString(w)
		bs[j].WriteByte('\n')
		n += len(w) + 1
	}
	runs := make([]string, k)
	for j := range runs {
		out, err := s.Run(bs[j].String())
		if err != nil {
			t.Fatal(err)
		}
		runs[j] = out
	}
	return runs
}

// TestMergeWidthAllocations: over 1 MB at width P the range merge
// allocates the output buffer and O(P·k) bookkeeping, nothing per line,
// and every goroutine it starts has exited once it returns, sorted or
// not.
func TestMergeWidthAllocations(t *testing.T) {
	const size = 1 << 20
	byK := map[int][]string{}
	for _, k := range []int{2, 4} {
		// Sorted bytewise, the words are sorted under -n (every key is 0,
		// so the bytewise last resort decides) and -u too.
		byK[k] = zipfRuns(t, mergeSort(t, "sort"), size, k)
	}
	for _, spec := range []string{"sort", "sort -n", "sort -u"} {
		s := mergeSort(t, spec)
		for k, runs := range byK {
			for _, p := range []int{1, 2, 4} {
				allocs := testing.AllocsPerRun(5, func() { s.mergeRanges(p, runs) })
				if bound := float64(8 + 3*p + p*k); allocs > bound {
					t.Errorf("%s k=%d width %d: %v allocations per merge, want at most %v", spec, k, p, allocs, bound)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s.mergeRanges(p, runs)
				runtime.ReadMemStats(&after)
				if bytes := after.TotalAlloc - before.TotalAlloc; bytes > size+size/8 {
					t.Errorf("%s k=%d width %d: merge allocates %d bytes over %d input bytes", spec, k, p, bytes, size)
				}
			}
		}
	}
	s, runs := mergeSort(t, "sort"), byK[2]
	unsorted := []string{runs[0], runs[1][len(runs[1])/2:] + runs[1][:len(runs[1])/2]}
	base := runtime.NumGoroutine()
	for _, streams := range [][]string{runs, unsorted} {
		_, sorted := s.mergeRanges(4, streams)
		if want := &streams[0] == &runs[0]; sorted != want {
			t.Fatalf("mergeRanges sorted = %v, want %v", sorted, want)
		}
		// A goroutine that has called wg.Done may still be exiting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines after the merge returned, %d before", n, base)
		}
	}
}

// BenchmarkMergeWidth times the checked merge — range merge and order
// check in one walk — over Zipf words (BenchmarkSortRun's shape) dealt
// into k sorted runs, by total size and width, and over all-distinct
// words, where the front finds no run to copy. Width 1 is the single
// heap; where the wider rows overtake it is MergeRangeCutoff.
func BenchmarkMergeWidth(b *testing.B) {
	s := mergeSort(b, "sort")
	for _, shape := range runShapes {
		for _, size := range []int{16 << 10, 256 << 10, 1 << 20, 6 << 20} {
			for _, k := range []int{2, 4} {
				runs := shape.runs(b, s, size, k)
				for _, p := range []int{1, 2, 4} {
					b.Run(fmt.Sprintf("%s/bytes=%d/k=%d/width=%d", shape.name, size, k, p), func(b *testing.B) {
						b.ReportAllocs()
						b.SetBytes(int64(size))
						for b.Loop() {
							if _, sorted := s.mergeRanges(p, runs); !sorted {
								b.Fatal("sorted runs reported unsorted")
							}
						}
					})
				}
			}
		}
	}
}
