package conformance

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Case is one generated conformance scenario: a pipeline script plus the
// input corpus it runs on. Cases are fully determined by (Seed, Index),
// so a report entry alone replays the failure.
type Case struct {
	// Seed and Index identify the case within its run.
	Seed  int64 `json:"seed"`
	Index int   `json:"index"`
	// Script is the one-pipeline shell script, newline-terminated.
	Script string `json:"script"`
	// Source is the input file the script reads via `cat FILE` ("" when
	// the pipeline reads standard input).
	Source string `json:"source,omitempty"`
	// Corpus is the input stream (registered as Source, or fed as stdin).
	Corpus string `json:"corpus"`
	// Profile names the corpus generator that produced Corpus.
	Profile string `json:"profile"`
}

// StageTemplates is the pool of command specs the generator draws
// pipeline stages from. Every entry parses under unix.Parse and accepts
// arbitrary text input, so any sampled sequence is a valid pipeline; the
// pool spans the synthesis outcomes that matter — concat-class line
// mappers, add-class counters, stitch-class boundary merges, merge-class
// sorts, and rerun-only stages the planner keeps sequential.
func StageTemplates() []string {
	return []string{
		"tr A-Z a-z",
		"tr a-z A-Z",
		`tr -cs A-Za-z '\n'`,
		`tr -d '[:punct:]'`,
		"sort",
		"sort -r",
		"sort -n",
		"sort -rn",
		"sort -u",
		"sort -k1n",
		"uniq",
		"uniq -c",
		"grep a",
		"grep -v the",
		"grep -c e",
		"grep 'a.*e'",
		"wc -l",
		"wc -w",
		"wc",
		"cut -c 1-4",
		"cut -d ' ' -f 1",
		"cut -d ',' -f 1,2",
		"head -n 5",
		"tail -n 5",
		"sed 5q",
		"sed 's/a/X/'",
		"rev",
	}
}

// fusionMotifs are stage runs that each provoke one of the dataflow
// optimizer's rewrites or exit shapes. The generator splices a motif into about half the
// cases so a default suite demonstrably exercises every rule — the
// report's per-rule fire counters prove it — rather than leaving rule
// coverage to random adjacency.
var fusionMotifs = [][]string{
	// fuse-streamers: adjacent parallel concat-class line mappers fuse
	// into one per-chunk pass.
	{"tr A-Z a-z", "grep a", "cut -c 1-4"},
	{`tr -d '[:punct:]'`, "sed 's/a/X/'"},
	{"rev", "tr a-z A-Z"},
	// elide-combine: a sort-class (permutation-closed) stage feeding an
	// order-insensitive reducer; the k-way merge is skipped outright.
	{"sort", "wc -l"},
	{"sort -n", "grep -c e"},
	{"sort -r", "wc"},
	// combine then chunked consumer: a sort-class stage feeding a
	// streaming but order-sensitive line mapper; the k-way merge must
	// run, and the consumer re-splits its output chunk-parallel.
	{"sort", "grep a"},
	{"sort -r", "sed 's/a/X/'"},
	{"sort -n", "cut -c 1-4"},
	// fragment: a sort-class stage feeding a collapsing consumer runs
	// with it per chunk, combined once by the fragment's keyed merge.
	// The first motif forms two fragments: word counts, then the
	// distinct counts in numeric order.
	{"sort", "uniq -c", "sort -n", "uniq"},
	{"sort -n", "uniq -c"},
	{"sort -r", "uniq -c"},
	// dead-mappers: a fused mapper run feeding a line count stops after
	// its last line filter, dropping the line-preserving mappers behind
	// it (the third is chain-cold-file's shape). The last must not fire:
	// tr -d '\n' leaves one unterminated line at the head of the run, and
	// tr passes it through, where cut terminates it into the one line
	// wc -l counts.
	{"grep a", "sed 's/a/X/'", "wc -l"},
	{"tr A-Z a-z", "grep a", "cut -c 1-4", "wc -l"},
	{"tr A-Z a-z", "grep a", "sed 's/a/X/'", "cut -d ' ' -f 1", "wc -l"},
	{`tr -d '\n'`, "tr A-Z a-z", "cut -c 1-4", "wc -l"},
}

// vocab is the word pool corpus lines draw from; small enough that
// duplicate runs (uniq, uniq -c territory) occur naturally.
var vocab = []string{
	"pear", "apple", "fig", "quince", "loquat", "medlar", "kumquat",
	"plum", "the", "and", "of", "to", "in", "a", "Light", "sea",
}

// unicodeVocab exercises multi-byte content through every plane.
var unicodeVocab = []string{
	"café", "naïve", "Zürich", "λάμδα", "東京", "встреча", "ökonomie", "piñata",
}

// profiles are the corpus shapes, by name. Each generator returns raw
// lines (no terminators); GenCase joins them and decides the trailing
// newline.
var profiles = []struct {
	name string
	gen  func(r *rand.Rand) []string
}{
	{"words", genWords},
	{"numbers", genNumbers},
	{"csv", genCSV},
	{"duplicates", genDuplicates},
	{"sorted", genSorted},
	{"reverse-sorted", genReverseSorted},
	{"unicode", genUnicode},
	{"long-lines", genLongLines},
	{"page-boundary", genPageBoundary},
	{"blanks", genBlanks},
	{"empty", func(*rand.Rand) []string { return nil }},
	{"mixed", genMixed},
}

// GenCase deterministically generates case i of the run with the given
// seed: a pipeline of 1–4 stages from StageTemplates — with a fusion
// motif spliced in about half the time — a corpus from a randomly chosen
// profile, and a stdin-vs-`cat FILE` input source.
func GenCase(seed int64, i int) *Case {
	r := rand.New(rand.NewSource(seed ^ (int64(i)+1)*0x5851F42D4C957F2D))
	c := &Case{Seed: seed, Index: i}

	p := profiles[r.Intn(len(profiles))]
	c.Profile = p.name
	lines := p.gen(r)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	c.Corpus = b.String()
	// Some corpora drop the trailing newline — the boundary case the
	// stitch combiners and Theorem 5's stream precondition care about.
	if c.Corpus != "" && r.Intn(6) == 0 {
		c.Corpus = c.Corpus[:len(c.Corpus)-1]
	}

	templates := StageTemplates()
	n := 1 + r.Intn(4)
	stages := make([]string, 0, n+1)
	if r.Intn(2) == 0 {
		c.Source = "in.txt"
		stages = append(stages, "cat in.txt")
	}
	for j := 0; j < n; j++ {
		stages = append(stages, templates[r.Intn(len(templates))])
	}
	if r.Intn(2) == 0 {
		m := fusionMotifs[r.Intn(len(fusionMotifs))]
		// Splice after the source (if any), at a random offset among the
		// random stages, so motifs see arbitrary upstream and downstream
		// neighbours. A motif that ends in a line count goes last: a
		// stage behind it (grep -c e, wc -w) could hide a wrong count.
		at := len(stages)
		if m[len(m)-1] != "wc -l" {
			at -= r.Intn(n + 1)
		}
		spliced := make([]string, 0, len(stages)+len(m))
		spliced = append(spliced, stages[:at]...)
		spliced = append(spliced, m...)
		spliced = append(spliced, stages[at:]...)
		stages = spliced
	}
	c.Script = strings.Join(stages, " | ") + "\n"
	return c
}

// word returns a random vocabulary word, occasionally upper-cased.
func word(r *rand.Rand) string {
	w := vocab[r.Intn(len(vocab))]
	if r.Intn(8) == 0 {
		w = strings.ToUpper(w)
	}
	return w
}

// genWords produces lines of 1–5 space-separated words.
func genWords(r *rand.Rand) []string {
	lines := make([]string, r.Intn(120))
	for i := range lines {
		parts := make([]string, 1+r.Intn(5))
		for j := range parts {
			parts[j] = word(r)
		}
		lines[i] = strings.Join(parts, " ")
	}
	return lines
}

// genNumbers produces integer lines, some negative, so sort -n and the
// add-class combiners see real numeric content.
func genNumbers(r *rand.Rand) []string {
	lines := make([]string, r.Intn(100))
	for i := range lines {
		lines[i] = strconv.Itoa(r.Intn(20000) - 1000)
	}
	return lines
}

// genCSV produces comma-separated rows of words and numbers (cut -d ','
// territory).
func genCSV(r *rand.Rand) []string {
	lines := make([]string, r.Intn(80))
	for i := range lines {
		fields := make([]string, 2+r.Intn(4))
		for j := range fields {
			if r.Intn(3) == 0 {
				fields[j] = strconv.Itoa(r.Intn(500))
			} else {
				fields[j] = word(r)
			}
		}
		lines[i] = strings.Join(fields, ",")
	}
	return lines
}

// genDuplicates repeats a handful of distinct lines, producing the long
// duplicate runs uniq's boundary combiner must merge correctly.
func genDuplicates(r *rand.Rand) []string {
	distinct := make([]string, 2+r.Intn(4))
	for i := range distinct {
		distinct[i] = word(r)
	}
	lines := make([]string, 10+r.Intn(90))
	for i := range lines {
		lines[i] = distinct[r.Intn(len(distinct))]
	}
	return lines
}

// genSorted produces an already-sorted corpus (merge's legality domain;
// byte-wise order matches the substrate's C collation).
func genSorted(r *rand.Rand) []string {
	lines := genWords(r)
	sort.Strings(lines)
	return lines
}

// genReverseSorted produces a descending corpus — sorted under the
// inverted comparator, unsorted under the default one.
func genReverseSorted(r *rand.Rand) []string {
	lines := genSorted(r)
	slices.Reverse(lines)
	return lines
}

// genUnicode produces multi-byte lines.
func genUnicode(r *rand.Rand) []string {
	lines := make([]string, r.Intn(60))
	for i := range lines {
		lines[i] = unicodeVocab[r.Intn(len(unicodeVocab))] + " " + word(r)
	}
	return lines
}

// genLongLines produces a few lines of 2–8 KB, so chunking and the
// combine plane see per-line payloads far above the buffer sweet spots.
func genLongLines(r *rand.Rand) []string {
	lines := make([]string, 1+r.Intn(4))
	for i := range lines {
		var b strings.Builder
		for b.Len() < 2048+r.Intn(6144) {
			b.WriteString(word(r))
			b.WriteByte(' ')
		}
		lines[i] = strings.TrimRight(b.String(), " ")
	}
	return lines
}

// genPageBoundary sizes lines so several 4 KiB page boundaries land
// mid-line: chunk views over an mmap'd ingest then straddle pages — the
// corpus shape the zero-copy data plane's slicing must get right.
func genPageBoundary(r *rand.Rand) []string {
	const page = 4096
	pages := 2 + r.Intn(3)
	var lines []string
	total := 0
	for total < pages*page {
		n := page/2 + r.Intn(page)
		var b strings.Builder
		for b.Len() < n {
			b.WriteString(word(r))
			b.WriteByte(' ')
		}
		l := strings.TrimRight(b.String(), " ")
		lines = append(lines, l)
		total += len(l) + 1
	}
	return lines
}

// genBlanks mixes word lines with empty lines (~1 in 3).
func genBlanks(r *rand.Rand) []string {
	lines := genWords(r)
	for i := range lines {
		if r.Intn(3) == 0 {
			lines[i] = ""
		}
	}
	return lines
}

// genMixed samples every other profile's line shape into one corpus.
func genMixed(r *rand.Rand) []string {
	var lines []string
	for _, g := range []func(*rand.Rand) []string{genWords, genNumbers, genCSV, genUnicode, genBlanks} {
		ls := g(r)
		if len(ls) > 20 {
			ls = ls[:20]
		}
		lines = append(lines, ls...)
	}
	// One deterministic shuffle so shapes interleave.
	r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return lines
}
