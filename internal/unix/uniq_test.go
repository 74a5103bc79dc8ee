package unix

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/textio"
)

// referenceUniq is uniq as it stood before it walked its input in place:
// a textio.Lines table, runs of equal adjacent lines, and fmt's "%7d "
// for -c.
func referenceUniq(input string, count bool) string {
	lines := textio.Lines(input)
	var b strings.Builder
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		if count {
			fmt.Fprintf(&b, "%7d ", j-i)
		}
		b.WriteString(lines[i])
		b.WriteByte('\n')
		i = j
	}
	return b.String()
}

// uniqCorpora are the line boundaries textio.Lines draws ("\n" is one
// empty line, an unterminated last line counts), runs of empty lines,
// lines that are prefixes of their neighbours, and a random run-heavy
// stream.
func uniqCorpora() []string {
	rng := rand.New(rand.NewSource(31))
	var runs strings.Builder
	for range 300 {
		w := []string{"", "a", "ab", "a\x00", "b"}[rng.Intn(5)]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			runs.WriteString(w)
			runs.WriteByte('\n')
		}
	}
	return []string{
		"", "\n", "\n\n", "a", "a\n", "a\na", "a\na\n", "a\nb", "\na\n\n\n",
		"a\nab\nab\na\n", "ab\na\na", "x\n\nx\n\n",
		runs.String(), strings.TrimSuffix(runs.String(), "\n"),
	}
}

// TestUniqMatchesReference: uniq and uniq -c agree with the reference on
// every corpus.
func TestUniqMatchesReference(t *testing.T) {
	for _, spec := range []string{"uniq", "uniq -c"} {
		u := parseCmd(t, spec)
		for i, in := range uniqCorpora() {
			got, err := u.Run(in)
			if want := referenceUniq(in, spec == "uniq -c"); err != nil || got != want {
				t.Errorf("%s corpus %d: Run = %.80q, %v; want %.80q", spec, i, got, err, want)
			}
		}
	}
}

// TestAppendCount: -c's count is fmt's "%7d ", past its width too.
func TestAppendCount(t *testing.T) {
	for _, n := range []int{1, 9, 10, 999999, 1000000, 9999999, 10000000, 123456789012} {
		if got, want := string(appendCount([]byte("x"), n)), fmt.Sprintf("x%7d ", n); got != want {
			t.Errorf("appendCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// FuzzUniqMatchesReference is TestUniqMatchesReference over arbitrary
// input.
func FuzzUniqMatchesReference(f *testing.F) {
	for _, in := range uniqCorpora() {
		f.Add(in, false)
		f.Add(in, true)
	}
	f.Fuzz(func(t *testing.T, input string, count bool) {
		spec := "uniq"
		if count {
			spec = "uniq -c"
		}
		got, err := parseCmd(t, spec).Run(input)
		if want := referenceUniq(input, count); err != nil || got != want {
			t.Fatalf("%s: Run(%q) = %q, %v; want %q", spec, input, got, err, want)
		}
	})
}

// TestUniqRunAllocations: uniq walks its input in place and writes -c's
// counts without fmt, so on a duplicate-heavy input it allocates the
// output and nothing that grows with the line or run count.
func TestUniqRunAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	runtime.GC()
	for _, spec := range []string{"uniq", "uniq -c"} {
		u := parseCmd(t, spec)
		var allocs []float64
		for _, n := range []int{100, 20000} {
			var b strings.Builder
			for i := 0; i < n; {
				w := fmt.Sprint(rng.Intn(50))
				for r := 2 + rng.Intn(300); r > 0 && i < n; r-- {
					b.WriteString(w)
					b.WriteByte('\n')
					i++
				}
			}
			in := b.String()
			allocs = append(allocs, testing.AllocsPerRun(5, func() { u.Run(in) }))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Run allocates %v times over 100 lines and %v over 20000, want the same",
				spec, allocs[0], allocs[1])
		}
	}
}

// parseCmd parses spec or fails the test.
func parseCmd(t testing.TB, spec string) Command {
	t.Helper()
	cmd, err := Parse(spec, DefaultEnv())
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return cmd
}
