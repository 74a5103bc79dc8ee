package unix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceTr is tr's byte loop as it stood before the table-driven
// kernel: one byte at a time, a branch for each of delete, translate and
// squeeze, written through a builder. It shares the compiled tables with
// Run, so the tests below hold the loop itself to it.
func referenceTr(t *trCmd, input string) string {
	var b strings.Builder
	var prev byte
	havePrev := false
	for i := 0; i < len(input); i++ {
		c := input[i]
		if t.deleted[c] == 1 {
			continue
		}
		c = t.xlate[c]
		if t.squeezed[c] == 1 && havePrev && prev == c {
			continue
		}
		b.WriteByte(c)
		prev, havePrev = c, true
	}
	return b.String()
}

// trReferenceSpecs covers every mode of the loop: translate, translate
// with -s, -c, -d, -s, -cs and -ds, with sets that reach NUL and 0xFF.
var trReferenceSpecs = []string{
	"tr a-z A-Z",
	`tr '\000-\037' '[x*]'`,
	`tr -s ' a-z' '\nA-Z'`,
	`tr -c A-Za-z '\n'`,
	`tr -c '\000' '\377'`,
	`tr -d 'aeiou\n'`,
	`tr -d '\000\377'`,
	`tr -s ' \n'`,
	`tr -cs A-Za-z '\n'`,
	`tr -ds aeiou ' \n'`,
}

// trReferenceInputs returns the empty stream, single bytes, runs, and
// random streams over a small alphabet (so squeezes fire) and over all
// 256 byte values.
func trReferenceInputs() []string {
	rng := rand.New(rand.NewSource(23))
	ins := []string{"", "a", "\n", "\x00", "\xff", "  \n\n  aa", "aaaa\n\n\n\n    bbbb"}
	for _, alphabet := range []string{"ab \n.,E\x00\xff", ""} {
		for n := 1; n <= 4096; n *= 4 {
			b := make([]byte, n)
			for i := range b {
				if alphabet == "" {
					b[i] = byte(rng.Intn(256))
				} else {
					b[i] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			ins = append(ins, string(b))
		}
	}
	return ins
}

// checkTrCase holds Run to referenceTr on one spec and input.
func checkTrCase(t *testing.T, spec, input string) {
	t.Helper()
	cmd, err := Parse(spec, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	got, err := cmd.Run(input)
	if want := referenceTr(cmd.(*trCmd), input); err != nil || got != want {
		t.Fatalf("%s: Run(%q) = %q, %v; reference %q", spec, input, got, err, want)
	}
}

// TestTrMatchesReference: Run agrees with the per-byte reference on every
// mode and input.
func TestTrMatchesReference(t *testing.T) {
	for _, spec := range trReferenceSpecs {
		for i, in := range trReferenceInputs() {
			t.Run(fmt.Sprintf("%s/%d", spec, i), func(t *testing.T) { checkTrCase(t, spec, in) })
		}
	}
}

// FuzzTrMatchesReference is TestTrMatchesReference over arbitrary bytes,
// seeded from the same table.
func FuzzTrMatchesReference(f *testing.F) {
	for i := range trReferenceSpecs {
		for _, in := range trReferenceInputs() {
			f.Add(uint8(i), in)
		}
	}
	f.Fuzz(func(t *testing.T, spec uint8, input string) {
		checkTrCase(t, trReferenceSpecs[int(spec)%len(trReferenceSpecs)], input)
	})
}

// TestTrRunAllocations: Run allocates its output buffer and nothing else.
func TestTrRunAllocations(t *testing.T) {
	in := strings.Repeat("Some words, and  a line!\n", 4000)
	for _, spec := range []string{`tr -cs A-Za-z '\n'`, "tr A-Z a-z", "tr -d aeiou"} {
		cmd, err := Parse(spec, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { cmd.Run(in) }); allocs != 1 {
			t.Errorf("%s: Run allocates %v times, want 1", spec, allocs)
		}
	}
}

// BenchmarkTrRun times Run over 1 MB of word text for the word-frequency
// script's two tr stages.
func BenchmarkTrRun(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	words := []string{"The", "quick", "brown", "fox", "jumps", "over", "lazy", "dog's", "back,", "and", "--", "again."}
	var in strings.Builder
	for in.Len() < 1<<20 {
		in.WriteString(words[rng.Intn(len(words))])
		in.WriteByte(" \n"[rng.Intn(8)/7])
	}
	input := in.String()
	for _, spec := range []string{`tr -cs A-Za-z '\n'`, "tr A-Z a-z"} {
		cmd, err := Parse(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			for b.Loop() {
				if _, err := cmd.Run(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
