package unix

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"kumquat/internal/textio"
)

// The reference kernels below are sort as it stood before keys were
// cached: the comparator re-derives both keys inside every comparison,
// sorting is sort.SliceStable over it, and the k-way merge is a per-line
// linear scan over all streams. They share no ordering code with sort.go,
// so the tests here hold every production kernel (Run, MergeStreams,
// MergeReader, IsSorted) to them byte for byte.

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

// referenceCompareKey compares the sort keys of two lines, before reversal
// and the last resort.
func referenceCompareKey(s *SortCmd, a, b string) int {
	ka, kb := a, b
	if s.Key > 0 {
		ka, kb = textio.Field(a, s.Key), textio.Field(b, s.Key)
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

// checkSortCase holds Run, Less, MergeStreams, MergeReader and IsSorted to
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
	for i := 1; i < len(lines); i++ {
		a, b := lines[i-1], lines[i]
		if s.Less(a, b) != referenceLess(s, a, b) || s.Less(b, a) != referenceLess(s, b, a) {
			t.Fatalf("%s: Less(%q, %q) disagrees with the reference", spec, a, b)
		}
	}
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
		if got := s.MergeStreams(streams...); got != want {
			t.Fatalf("%s: MergeStreams(%q) = %q, reference %q", spec, streams, got, want)
		}
		read, err := io.ReadAll(iotest.OneByteReader(s.MergeReader(streams...)))
		if err != nil || string(read) != want {
			t.Fatalf("%s: MergeReader(%q) read %q, %v; reference %q", spec, streams, read, err, want)
		}
		for _, st := range streams {
			if !s.IsSorted(st) {
				t.Fatalf("%s: IsSorted(%q) = false on a sorted stream", spec, st)
			}
		}
	}
}

// TestSortMatchesReference: every kernel agrees with the reference on
// every covered flag combination and corpus.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range sortReferenceSpecs {
		for i, in := range sortReferenceCorpora() {
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

// TestSortRunAllocations: the bytewise kernel sorts the line table in
// place, so Run allocates the table and the output and nothing that grows
// with the line count.
func TestSortRunAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, spec := range []string{"sort", "sort -r", "sort -u", "sort -ru"} {
		s := mergeSort(t, spec)
		var allocs []float64
		for _, n := range []int{100, 20000} {
			var b strings.Builder
			for i := 0; i < n; i++ {
				b.WriteString(strconv.Itoa(rng.Intn(n) * 7919))
				b.WriteByte('\n')
			}
			in := b.String()
			allocs = append(allocs, testing.AllocsPerRun(5, func() { s.Run(in) }))
		}
		if allocs[0] != allocs[1] || allocs[1] > 2 {
			t.Errorf("%s: Run allocates %v times over 100 lines and %v over 20000, want the same and at most 2",
				spec, allocs[0], allocs[1])
		}
	}
}

// FuzzSortMatchesReference is TestSortMatchesReference over arbitrary
// input, seeded from the same table.
func FuzzSortMatchesReference(f *testing.F) {
	for i := range sortReferenceSpecs {
		for _, in := range sortReferenceCorpora() {
			f.Add(uint8(i), in)
		}
	}
	f.Fuzz(func(t *testing.T, spec uint8, input string) {
		rng := rand.New(rand.NewSource(int64(len(input))))
		checkSortCase(t, sortReferenceSpecs[int(spec)%len(sortReferenceSpecs)], input, rng)
	})
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
			got := s.MergeStreams(streams...)
			if got != want {
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
	got := s.MergeStreams("1 c\n", "1 b\n2 x\n", "1 a\n")
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
	got := s.MergeStreams("a\nc", "b\n", "")
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
	benchMerge(b, (*SortCmd).MergeStreams)
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
// for -rn, a numeric second field for -k2n).
func BenchmarkSortRun(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<15)
	ranks := make([]uint64, 100_000)
	for i := range ranks {
		ranks[i] = zipf.Uint64()
	}
	// word spells a rank as a pseudo-word whose order is unrelated to it.
	word := func(r uint64) string { return strconv.FormatUint(r*2654435761%1000003+36*36, 36) }
	cases := []struct {
		spec string
		line func(r uint64) string
	}{
		{"sort", word},
		{"sort -rn", func(r uint64) string { return fmt.Sprintf("%7d %s", 100000/(r+1), word(r)) }},
		{"sort -k2n", func(r uint64) string { return word(r) + " " + strconv.FormatUint(r, 10) }},
		{"sort -f", func(r uint64) string {
			if r%3 == 0 {
				return strings.ToUpper(word(r))
			}
			return word(r)
		}},
		{"sort -u", word},
	}
	for _, c := range cases {
		var in strings.Builder
		for _, r := range ranks {
			in.WriteString(c.line(r))
			in.WriteByte('\n')
		}
		input := in.String()
		s := mergeSort(b, c.spec)
		b.Run(c.spec, func(b *testing.B) {
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
