package unix

import (
	"fmt"
	"math/rand"
	"runtime"
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

// checkTrCase holds Run to referenceTr on one spec and input, and so
// the line function too where the spec has one: the line driver gives
// the reference's bytes, with a terminated last line.
func checkTrCase(t *testing.T, spec, input string) {
	t.Helper()
	cmd, err := Parse(spec, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	want := referenceTr(cmd.(*trCmd), input)
	if got, err := cmd.Run(input); err != nil || got != want {
		t.Fatalf("%s: Run(%q) = %q, %v; reference %q", spec, input, got, err, want)
	}
	if lm, ok := AsLineMapper(cmd); ok {
		if input != "" && !strings.HasSuffix(input, "\n") {
			want += "\n"
		}
		if got := RunLines(lm, input); got != want {
			t.Fatalf("%s: RunLines(%q) = %q; reference %q", spec, input, got, want)
		}
	}
}

// TestTrMatchesReference: Run, and the line function where there is one,
// agree with the per-byte reference on every mode and input.
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

// TestTrRepeatCounts: a [c*n] repeat costs one run however large n is,
// a count or set past GNU tr's limit fails Parse instead of wrapping,
// and a long SET2 repeat keeps its byte a SET2 member for -s.
func TestTrRepeatCounts(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cmd, err := Parse(`tr a '[b*100000000]'`, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Parse of a 1e8 repeat allocated %d bytes, want <= 1 MiB", n)
	}
	if got, _ := cmd.Run("abc\n"); got != "bbc\n" {
		t.Errorf("tr a '[b*100000000]' on abc = %q, want %q", got, "bbc\n")
	}
	for spec, want := range map[string]string{
		`tr a '[b*99999999999999999999]'`:   "invalid repeat count",
		`tr a '[b*18446744073709551615]'`:   "invalid repeat count",
		`tr a '[b*08]'`:                     "invalid repeat count",
		`tr a '[b*18446744073709551613]cd'`: "too many characters in set",
		`tr '[a*]' x`:                       "may not appear in string1",
	} {
		if _, err := Parse(spec, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) = %v, want an error containing %q", spec, err, want)
		}
	}
	if got := run(t, `tr -s a '[b*1000]c'`, "aabbcc"); got != "bc" {
		t.Errorf("tr -s a '[b*1000]c' on aabbcc = %q, want %q", got, "bc")
	}
	// A byte maps as its last copy does: a sits at 0..299, so a -> y.
	if got := run(t, `tr '[a*300]b' '[x*299]yz'`, "abc"); got != "yzc" {
		t.Errorf("tr '[a*300]b' '[x*299]yz' on abc = %q, want %q", got, "yzc")
	}
}

// TestTrLargeRepeatMatchesSmall: a spec with huge repeat counts gives the
// bytes of the small-count spec it is equivalent to, in every mode.
func TestTrLargeRepeatMatchesSmall(t *testing.T) {
	for large, small := range map[string]string{
		`tr a-c '[x*100000000]'`:               `tr a-c '[x*3]'`,
		`tr '[a*100000000]b' '[x*99999999]yz'`: `tr '[a*3]b' '[x*2]yz'`,
		`tr '[a*0144]b' '[x*100]y'`:            `tr '[a*2]b' '[x*2]y'`,
		`tr -s a-c '[x*100000000]y'`:           `tr -s a-c '[x*3]y'`,
		`tr -c a '[x*1000000000]y'`:            `tr -c a '[x*255]y'`,
		`tr -cs a '[x*18446744073709551614]'`:  `tr -cs a '[x*]'`,
		`tr -ds a '[b*9999999999]c'`:           `tr -ds a bc`,
		`tr -s a 'b[c*]'`:                      `tr -s a b`,
	} {
		l, s := parseCmd(t, large), parseCmd(t, small)
		for i, in := range trReferenceInputs() {
			got, _ := l.Run(in)
			want, _ := s.Run(in)
			if got != want {
				t.Fatalf("%s input %d: Run = %q; %s gives %q", large, i, got, small, want)
			}
		}
	}
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
