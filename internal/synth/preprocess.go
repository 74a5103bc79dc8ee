package synth

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"kumquat/internal/dsl"
	"kumquat/internal/regexlite"
	"kumquat/internal/shape"
	"kumquat/internal/unix"
)

// Capability interfaces implemented by the unix command substrate; the
// synthesizer discovers them by type assertion, keeping the command itself
// a black box for everything except §3.2's script preprocessing.
type (
	patternProvider interface{ Pattern() string }
	literalProvider interface{ Literals() []int }
	compareLiterals interface{ CompareLiterals() []int }
	numericKeys     interface{ NumericKeys() bool }
	fieldDelim      interface{ FieldDelim() byte }
	sortedRequired  interface{ NeedsSortedInput() bool }
	fileNameInput   interface{ NeedsFileNames() bool }
	equalityGated   interface{ GatedEquality() bool }
	nonStream       interface{ NonStream() bool }
	multiInput      interface{ MultiInput() bool }
)

// anyMember reports whether some member of cmd (unix.Members) has
// capability T and answers has with true.
func anyMember[T any](cmd unix.Command, has func(T) bool) bool {
	return slices.ContainsFunc(unix.Members(cmd), func(m unix.Command) bool {
		c, ok := m.(T)
		return ok && has(c)
	})
}

// prep holds everything preprocessing (§3.2) learns about a command before
// synthesis: input dictionaries, input-mode decisions from the three probe
// streams, mined literals, and the delimiter set that fixes the size of the
// candidate search space.
type prep struct {
	delims     []dsl.Delim
	wordDict   []string
	fileNames  []string
	sorted     bool
	lineCounts []int // literals that bound line counts (sed 100q, head -15)
	gated      bool  // equality-gated command (Table 9's awk)
}

// probeWords are the §3.2 test streams: "a list of unsorted English words",
// the same list sorted, and a list of legal file names (drawn from the FS).
var probeWords = []string{
	"river", "stone", "light", "apple", "night", "wind", "gold", "sea",
	"dream", "cat", "ship", "king",
}

// signedInts are the dictionary words of a command that orders by
// numeric keys: distinct values of both signs, with a leading zero.
var signedInts = []string{"-17", "-3", "0", "2", "09", "42", "108"}

func sortedProbe() string {
	return strings.Join(slices.Sorted(slices.Values(probeWords)), "\n") + "\n"
}

// preprocess runs the probe inputs, mines literals from the command, and
// derives the delimiter set from observed outputs.
func preprocess(cmd unix.Command, uenv *unix.Env, rng *rand.Rand) prep {
	var p prep

	// Three test input streams (§3.2): unsorted words, sorted words, file
	// names. The pattern of successes picks the input generation mode.
	unsorted := strings.Join(probeWords, "\n") + "\n"
	srt := sortedProbe()
	names := uenv.FS.DictionaryNames()
	fileList := strings.Join(names, "\n") + "\n"

	_, errUnsorted := cmd.Run(unsorted)
	_, errSorted := cmd.Run(srt)
	_, errFiles := cmd.Run(fileList)
	switch {
	case errUnsorted == nil:
		// Normal mode.
	case errSorted == nil:
		p.sorted = true
	case errFiles == nil:
		p.fileNames = names
	}
	// The input-side hints are the first member's: it reads the input.
	first := unix.Members(cmd)[0]
	if fn, ok := first.(fileNameInput); ok && fn.NeedsFileNames() {
		p.fileNames = names
	}
	if sr, ok := first.(sortedRequired); ok && sr.NeedsSortedInput() {
		p.sorted = true
	}

	// Literal mining, from every member: regex patterns become matching
	// dictionary words; numeric comparison constants nearby number words;
	// address literals line-count targets for the seed shapes.
	for _, m := range unix.Members(cmd) {
		if pp, ok := m.(patternProvider); ok && pp.Pattern() != "" {
			if re, err := regexlite.Compile(pp.Pattern()); err == nil {
				for i := 0; i < 8; i++ {
					if ex := re.Example(rng); ex != "" && !strings.Contains(ex, "\n") {
						p.wordDict = append(p.wordDict, ex)
					}
				}
			}
		}
		if cl, ok := m.(compareLiterals); ok {
			for _, n := range cl.CompareLiterals() {
				for _, v := range []int{n - 1, n, n + 1, 0, 1, 2 * n} {
					if v >= 0 {
						p.wordDict = append(p.wordDict, strconv.Itoa(v))
					}
				}
			}
		}
		if nk, ok := m.(numericKeys); ok && nk.NumericKeys() {
			p.wordDict = append(p.wordDict, signedInts...)
		}
		if lp, ok := m.(literalProvider); ok {
			p.lineCounts = append(p.lineCounts, lp.Literals()...)
		}
		if fd, ok := m.(fieldDelim); ok && fd.FieldDelim() != 0 {
			// Inject the field delimiter into words so field structure exists.
			d := string(fd.FieldDelim())
			for i := 0; i < 6; i++ {
				parts := make([]string, 2+rng.Intn(2))
				for j := range parts {
					parts[j] = randWord(rng)
				}
				p.wordDict = append(p.wordDict, strings.Join(parts, d))
			}
		}
		if eg, ok := m.(equalityGated); ok && eg.GatedEquality() {
			p.gated = true
		}
	}

	// Delimiter selection: '\n' always; add ' ', '\t', ',' when a probe
	// round's outputs contain them. This is the regularizer that makes the
	// search-space sizes land on 2700/26404/110444 (DESIGN.md).
	gen := p.generator(rng)
	seen := map[byte]bool{'\n': true}
	observe := func(out string) {
		for _, d := range []byte{' ', '\t', ','} {
			if strings.IndexByte(out, d) >= 0 {
				seen[d] = true
			}
		}
	}
	for i := 0; i < 6; i++ {
		x := gen.Stream(shape.Seed())
		if out, err := cmd.Run(x); err == nil {
			observe(out)
		}
	}
	p.delims = []dsl.Delim{'\n'}
	for _, d := range []byte{'\t', ' ', ','} {
		if seen[d] {
			p.delims = append(p.delims, dsl.Delim(d))
		}
	}
	return p
}

// generator builds a shape.Generator configured with this prep's
// dictionaries and input mode.
func (p prep) generator(rng *rand.Rand) *shape.Generator {
	return &shape.Generator{
		Rng:       rng,
		WordDict:  p.wordDict,
		FileNames: p.fileNames,
		Sorted:    p.sorted,
		DictBias:  0.5,
	}
}

// seedShapes returns the initial shapes for Algorithm 1's rounds: the
// default seed plus one shape per mined line-count literal.
func (p prep) seedShapes() []shape.Shape {
	shapes := []shape.Shape{shape.Seed()}
	for _, n := range p.lineCounts {
		shapes = append(shapes, shape.ForLiteral(n))
	}
	return shapes
}

func randWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
