package unix

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"kumquat/internal/textio"
)

// This file holds edge-case golden tests and property-based tests for the
// command substrate, beyond the happy paths in unix_test.go.

func TestSortNumericEdgeCases(t *testing.T) {
	cases := []struct{ spec, in, want string }{
		// Negative and decimal values.
		{"sort -n", "-3\n2\n-10\n2.5\n", "-10\n-3\n2\n2.5\n"},
		// Leading blanks before the number (GNU -n skips them).
		{"sort -n", "  10\n2\n", "2\n  10\n"},
		// Non-numeric lines compare as 0 and tie-break bytewise.
		{"sort -n", "abc\n-1\n1\n", "-1\nabc\n1\n"},
		// Equal numeric keys fall back to the whole line.
		{"sort -n", "1 b\n1 a\n", "1 a\n1 b\n"},
		// GNU sort under LC_ALL=C takes no '+' sign: "+5" is non-numeric
		// (0) and ties with "0" bytewise, '+' before '0'.
		{"sort -n", "+5\n3\n-1\n0\n", "-1\n+5\n0\n3\n"},
		{"sort -rn", "+5\n3\n-1\n0\n", "3\n0\n+5\n-1\n"},
	}
	for _, c := range cases {
		if got := run(t, c.spec, c.in); got != c.want {
			t.Errorf("%s %q = %q, want %q", c.spec, c.in, got, c.want)
		}
	}
}

func TestSortKeyBeyondFields(t *testing.T) {
	// -k2n on a line with one field: missing key compares as empty/zero.
	if got := run(t, "sort -k2n", "x 5\ny\nz 1\n"); got != "y\nz 1\nx 5\n" {
		t.Errorf("sort -k2n with missing fields = %q", got)
	}
}

// TestSortProperties: output is sorted, is a permutation of the input, and
// sorting is idempotent.
func TestSortProperties(t *testing.T) {
	cmd, _ := Parse("sort", nil)
	f := func(raw []string) bool {
		var lines []string
		for _, l := range raw {
			lines = append(lines, strings.Map(func(r rune) rune {
				if r == '\n' {
					return 'n'
				}
				return r
			}, l))
		}
		in := textio.JoinLines(lines)
		out, err := cmd.Run(in)
		if err != nil {
			return false
		}
		got := textio.Lines(out)
		if len(got) != len(lines) {
			return false
		}
		if !sort.StringsAreSorted(got) {
			return false
		}
		// Permutation: sorted multisets equal.
		want := append([]string(nil), lines...)
		sort.Strings(want)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		// Idempotence.
		again, _ := cmd.Run(out)
		return again == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUniqCountProperty: the counts emitted by uniq -c sum to the input
// line count, and the deformatted lines equal uniq's output.
func TestUniqCountProperty(t *testing.T) {
	uc, _ := Parse("uniq -c", nil)
	u, _ := Parse("uniq", nil)
	f := func(raw []uint8) bool {
		// Small alphabet to force runs.
		lines := make([]string, len(raw))
		for i, b := range raw {
			lines[i] = string(rune('a' + b%3))
		}
		in := textio.JoinLines(lines)
		out, err := uc.Run(in)
		if err != nil {
			return false
		}
		total := 0
		var words []string
		for _, l := range textio.Lines(out) {
			_, head, tail, ok := textio.FieldPad(' ', l)
			if !ok || !textio.AllDigits(head) {
				return false
			}
			n := 0
			for _, c := range head {
				n = n*10 + int(c-'0')
			}
			total += n
			words = append(words, tail)
		}
		if total != len(lines) {
			return false
		}
		plain, _ := u.Run(in)
		return textio.JoinLines(words) == plain
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrOctalAndClasses(t *testing.T) {
	// \012 is newline in octal.
	if got := run(t, `tr 'x' '\012'`, "axb\n"); got != "a\nb\n" {
		t.Errorf("tr octal = %q", got)
	}
	if got := run(t, `tr -d '[:digit:]'`, "a1b2\n"); got != "ab\n" {
		t.Errorf("tr -d digit class = %q", got)
	}
	// Repetition with explicit count.
	if got := run(t, `tr 'abc' '[x*2]z'`, "abc\n"); got != "xxz\n" {
		t.Errorf("tr [x*2] = %q", got)
	}
	// Range with escaped bounds.
	if got := run(t, `tr 'a-c' 'A-C'`, "cab\n"); got != "CAB\n" {
		t.Errorf("tr range = %q", got)
	}
}

// TestTrIdempotentRerun: the rerun combiner's correctness for squeezing tr
// depends on idempotence over its own output: f(f(x)) = f(x).
func TestTrIdempotentRerun(t *testing.T) {
	cmd, _ := Parse(`tr -cs A-Za-z '\n'`, nil)
	f := func(raw string) bool {
		in := strings.ToValidUTF8(raw, "")
		if !strings.HasSuffix(in, "\n") {
			in += "\n"
		}
		once, err := cmd.Run(in)
		if err != nil {
			return false
		}
		twice, err := cmd.Run(once)
		return err == nil && twice == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCutOpenRange(t *testing.T) {
	if got := run(t, "cut -c 3-", "abcdef\n"); got != "cdef\n" {
		t.Errorf("cut -c 3- = %q", got)
	}
	if got := run(t, "cut -d ',' -f 2-", "a,b,c\n"); got != "b,c\n" {
		t.Errorf("cut -f 2- = %q", got)
	}
	// Selecting past the end yields empty fields/chars.
	if got := run(t, "cut -c 10-12", "abc\n"); got != "\n" {
		t.Errorf("cut past end = %q", got)
	}
}

func TestSedAlternateDelimiters(t *testing.T) {
	if got := run(t, `sed 's|a|b|'`, "aaa\n"); got != "baa\n" {
		t.Errorf("sed pipe delim = %q", got)
	}
	if got := run(t, `sed 's/a/b/g'`, "aaa\n"); got != "bbb\n" {
		t.Errorf("sed global = %q", got)
	}
	// Replacement references the whole match.
	if got := run(t, `sed 's/b./<&>/'`, "abcd\n"); got != "a<bc>d\n" {
		t.Errorf("sed & = %q", got)
	}
}

func TestSedNonGlobalOncePerLine(t *testing.T) {
	// Exactly one substitution per line without /g — the behaviour that
	// eliminates rerun for timestamp-stripping seds during synthesis.
	cmd, _ := Parse(`sed 's/T..:..:..//'`, nil)
	in := "xT11:22:33yT44:55:66z\n"
	once, _ := cmd.Run(in)
	if once != "xyT44:55:66z\n" {
		t.Fatalf("first application = %q", once)
	}
	twice, _ := cmd.Run(once)
	if twice != "xyz\n" {
		t.Fatalf("second application = %q", twice)
	}
	if once == twice {
		t.Error("rerun must be observably different for multi-match lines")
	}
}

func TestAwkFieldRebuild(t *testing.T) {
	// Assignment to an out-of-range field extends the record.
	if got := run(t, `awk "{\$3=\$1};1"`, "a b\n"); got != "a b a\n" {
		t.Errorf("awk extend fields = %q", got)
	}
	// String comparison when one side is non-numeric.
	if got := run(t, `awk "\$1 == \"x\""`, "x 1\ny 2\n"); got != "x 1\n" {
		t.Errorf("awk string eq = %q", got)
	}
}

func TestHeadTailZero(t *testing.T) {
	if got := run(t, "head -n 0", "a\nb\n"); got != "" {
		t.Errorf("head -n 0 = %q", got)
	}
	if got := run(t, "tail -n 0", "a\nb\n"); got != "" {
		t.Errorf("tail -n 0 = %q", got)
	}
	if got := run(t, "tail +1", "a\nb\n"); got != "a\nb\n" {
		t.Errorf("tail +1 = %q", got)
	}
	if got := run(t, "tail +10", "a\nb\n"); got != "" {
		t.Errorf("tail +10 past end = %q", got)
	}
}

func TestCommColumns(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("d", "b\nc\n")
	// Full three-column output with tab indentation.
	cmd, err := Parse("comm - d", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("a\nb\n")
	if err != nil || out != "a\n\tc\n\t\tb\n" {
		// comm order: walks both streams; a < b (col1), then b==b (col3),
		// then c remains in file2 (col2).
		if out != "a\n\t\tb\n\tc\n" {
			t.Errorf("comm columns = %q, %v", out, err)
		}
	}
	// Suppress everything.
	cmd2, _ := Parse("comm -123 - d", env)
	out, err = cmd2.Run("a\nb\n")
	if err != nil || out != "" {
		t.Errorf("comm -123 = %q, %v", out, err)
	}
}

func TestPaste(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("w", "a\nb\nc\n")
	env.FS.Register("nw", "b\nc\n")
	cmd, err := Parse("paste w nw", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("")
	if err != nil || out != "a\tb\nb\tc\nc\t\n" {
		t.Errorf("paste = %q, %v", out, err)
	}
	// Stdin via "-".
	cmd2, _ := Parse("paste - nw", env)
	out, err = cmd2.Run("x\ny\n")
	if err != nil || out != "x\tb\ny\tc\n" {
		t.Errorf("paste - = %q, %v", out, err)
	}
	// Missing file errors.
	cmd3, _ := Parse("paste nope", env)
	if _, err := cmd3.Run(""); err == nil {
		t.Error("paste missing file should error")
	}
}

func TestLsAndPrefix(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("pg/alpha.txt", "x\n")
	env.FS.Register("pg/beta.txt", "y\n")
	cmd, err := Parse("ls pg", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("ignored\n")
	if err != nil || out != "alpha.txt\nbeta.txt\n" {
		t.Errorf("ls pg = %q, %v", out, err)
	}
	// The poets prefix pattern round-trips through sed.
	sed, _ := Parse(`sed "s;^;pg/;"`, env)
	prefixed, _ := sed.Run(out)
	if prefixed != "pg/alpha.txt\npg/beta.txt\n" {
		t.Errorf("sed prefix = %q", prefixed)
	}
	xcat, _ := Parse("xargs cat", env)
	content, err := xcat.Run(prefixed)
	if err != nil || content != "x\ny\n" {
		t.Errorf("xargs cat round trip = %q, %v", content, err)
	}
}

func TestRmMkfifo(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("tmpfile", "x\n")
	rm, _ := Parse("rm tmpfile missing", env)
	if out, err := rm.Run(""); err != nil || out != "" {
		t.Errorf("rm = %q, %v", out, err)
	}
	if _, err := env.FS.Read("tmpfile"); err == nil {
		t.Error("rm should remove the file")
	}
	mk, _ := Parse("mkfifo a b", env)
	if out, err := mk.Run(""); err != nil || out != "" {
		t.Errorf("mkfifo = %q, %v", out, err)
	}
}

func TestDiffSortedStreams(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("s1", "a\nb\nd\n")
	env.FS.Register("s2", "b\nc\nd\n")
	cmd, err := Parse("diff -B s1 s2", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("")
	if err != nil || out != "< a\n> c\n" {
		t.Errorf("diff = %q, %v", out, err)
	}
	// -B ignores blank lines.
	env.FS.Register("s3", "a\n\nb\n")
	env.FS.Register("s4", "a\nb\n")
	cmd2, _ := Parse("diff -B s3 s4", env)
	out, err = cmd2.Run("")
	if err != nil || out != "" {
		t.Errorf("diff -B blanks = %q, %v", out, err)
	}
}

func TestBigramsAux(t *testing.T) {
	if got := run(t, "bigrams_aux", "a\nb\nc\n"); got != "a b\nb c\n" {
		t.Errorf("bigrams_aux = %q", got)
	}
	if got := run(t, "bigrams_aux", "solo\n"); got != "" {
		t.Errorf("bigrams_aux single = %q", got)
	}
}

func TestGrepFoldWithClasses(t *testing.T) {
	if got := run(t, "grep -i '^[a-d]'", "Apple\nzebra\nBerry\n"); got != "Apple\nBerry\n" {
		t.Errorf("grep -i class = %q", got)
	}
	if got := run(t, "grep -vi 'light'", "LIGHT on\ndark\n"); got != "dark\n" {
		t.Errorf("grep -vi = %q", got)
	}
}

// TestFmtWidthValidation: scripts arrive over /v1/execute, so a width that
// is not a positive integer is a parse error, never a silent default.
func TestFmtWidthValidation(t *testing.T) {
	for _, spec := range []string{"fmt -wabc", "fmt -w", "fmt -w0", "fmt -w-3", "fmt -w 0", "fmt -w x", "fmt -w1x"} {
		if _, err := Parse(spec, nil); err == nil || !strings.Contains(err.Error(), "fmt:") {
			t.Errorf("Parse(%q) = %v, want a fmt: parse error", spec, err)
		}
	}
	for spec, want := range map[string]string{
		"fmt": "a b c\n", "fmt -w3": "a b\nc\n", "fmt -w 3": "a b\nc\n", "fmt -w9 -w1": "a\nb\nc\n",
	} {
		if got := run(t, spec, "a b c\n"); got != want {
			t.Errorf("%q = %q, want %q", spec, got, want)
		}
	}
}

func TestEmptyInputAcrossCommands(t *testing.T) {
	// Every stream command must handle "" gracefully; counters emit zero.
	for spec, want := range map[string]string{
		"cat": "", "sort": "", "uniq": "", "uniq -c": "", "rev": "",
		"grep x": "", "grep -c x": "0\n", "wc -l": "0\n",
		"cut -c 1-2": "", `sed 's/a/b/'`: "", "head -n 3": "",
		"tail -n 2": "", `tr a b`: "", "fmt -w1": "",
	} {
		if got := run(t, spec, ""); got != want {
			t.Errorf("%q on empty input = %q, want %q", spec, got, want)
		}
	}
}

// TestConcurrentRunSafety: commands are shared across the parallel
// executor's goroutines; Run must be safe for concurrent use.
func TestConcurrentRunSafety(t *testing.T) {
	specs := []string{"sort -rn", `grep 'a.*b'`, `sed 's/a/b/g'`, "uniq -c",
		`awk '{print NF}'`, `tr -cs A-Za-z '\n'`}
	in := "ab a\ncd b\nab a\n"
	for _, spec := range specs {
		cmd, err := Parse(spec, DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := cmd.Run(in)
		done := make(chan string, 16)
		for g := 0; g < 16; g++ {
			go func() {
				out, _ := cmd.Run(in)
				done <- out
			}()
		}
		for g := 0; g < 16; g++ {
			if got := <-done; got != want {
				t.Fatalf("%q: concurrent run diverged", spec)
			}
		}
	}
}
