package unix

import (
	"strings"
	"testing"
)

// run parses a spec and executes it on input, failing the test on error.
func run(t *testing.T, spec, input string) string {
	t.Helper()
	cmd, err := Parse(spec, DefaultEnv())
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	out, err := cmd.Run(input)
	if err != nil {
		t.Fatalf("Run(%q): %v", spec, err)
	}
	return out
}

var tokenizeCases = []struct {
	in   string
	want []string
}{
	{`tr -cs A-Za-z '\n'`, []string{"tr", "-cs", "A-Za-z", `\n`}},
	{`sed s/\$/'0s'/`, []string{"sed", "s/$/0s/"}},
	{`awk "\$1 >= 1000"`, []string{"awk", "$1 >= 1000"}},
	{`cut -d ',' -f 3,1`, []string{"cut", "-d", ",", "-f", "3,1"}},
	{`grep '\(.\).*\1'`, []string{"grep", `\(.\).*\1`}},
	{`awk -v OFS="\t" "{print \$2,\$1}"`, []string{"awk", "-v", `OFS=\t`, "{print $2,$1}"}},
	{`sed "s;^;pg/;"`, []string{"sed", "s;^;pg/;"}},
}

func TestTokenize(t *testing.T) {
	for _, c := range tokenizeCases {
		got, err := Tokenize(c.in)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

var tokenizeErrorCases = []string{"'unterminated", `"open`, `trailing\`}

func TestTokenizeErrors(t *testing.T) {
	for _, bad := range tokenizeErrorCases {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("Tokenize(%q) should fail", bad)
		}
	}
}

func TestCatIdentity(t *testing.T) {
	in := "a\nb\n"
	if got := run(t, "cat", in); got != in {
		t.Errorf("cat = %q", got)
	}
}

func TestTrTranslate(t *testing.T) {
	if got := run(t, "tr A-Z a-z", "Hello World\n"); got != "hello world\n" {
		t.Errorf("tr A-Z a-z = %q", got)
	}
	// Classic bracket style translates brackets to brackets.
	if got := run(t, "tr '[a-z]' '[A-Z]'", "ab[c]\n"); got != "AB[C]\n" {
		t.Errorf("tr '[a-z]' '[A-Z]' = %q", got)
	}
	// SET2 padded with its last character.
	if got := run(t, "tr '[a-z]' 'P'", "ab1[\n"); got != "PP1P\n" {
		t.Errorf("tr '[a-z]' 'P' = %q (brackets are in SET1 too)", got)
	}
	if got := run(t, "tr '[:lower:]' '[:upper:]'", "aBc\n"); got != "ABC\n" {
		t.Errorf("tr classes = %q", got)
	}
}

func TestTrComplementSqueeze(t *testing.T) {
	// The §2 example: break text into one word per line.
	got := run(t, `tr -cs A-Za-z '\n'`, "hello, world!!\n")
	if got != "hello\nworld\n" {
		t.Errorf("tr -cs = %q", got)
	}
	// Squeezing crosses what would be a split boundary — the reason rerun
	// is the correct combiner for this command (§2).
	left, right := "a \n", " b\n"
	cmd, _ := Parse(`tr -cs A-Za-z '\n'`, nil)
	y1, _ := cmd.Run(left)
	y2, _ := cmd.Run(right)
	y12, _ := cmd.Run(left + right)
	if y1+y2 == y12 {
		t.Error("concat should be observably wrong for tr -cs")
	}
}

func TestTrDelete(t *testing.T) {
	if got := run(t, "tr -d ','", "a,b,c\n"); got != "abc\n" {
		t.Errorf("tr -d ',' = %q", got)
	}
	// tr -d '\n' deletes terminators: output is not a stream.
	if got := run(t, `tr -d '\n'`, "a\nb\n"); got != "ab" {
		t.Errorf("tr -d newline = %q", got)
	}
}

func TestTrRepeatNotation(t *testing.T) {
	// tr -sc 'AEIOU' '[\012*]': complement to newline, squeezed.
	got := run(t, `tr -sc 'AEIOU' '[\012*]'`, "bAnAnE\n")
	if got != "\nA\nA\nE\n" {
		t.Errorf("tr -sc vowels = %q", got)
	}
}

func TestTrSpaceToNewline(t *testing.T) {
	if got := run(t, `tr ' ' '\n'`, "a b\n"); got != "a\nb\n" {
		t.Errorf("tr ' ' newline = %q", got)
	}
	if got := run(t, `tr -s ' ' '\n'`, "a  b\n"); got != "a\nb\n" {
		t.Errorf("tr -s ' ' newline = %q", got)
	}
}

func TestSortPlain(t *testing.T) {
	if got := run(t, "sort", "b\na\nc\n"); got != "a\nb\nc\n" {
		t.Errorf("sort = %q", got)
	}
	// C collation: uppercase before lowercase.
	if got := run(t, "sort", "a\nB\n"); got != "B\na\n" {
		t.Errorf("sort C collation = %q", got)
	}
}

func TestSortFlags(t *testing.T) {
	if got := run(t, "sort -n", "10\n9\n-2\n"); got != "-2\n9\n10\n" {
		t.Errorf("sort -n = %q", got)
	}
	if got := run(t, "sort -rn", "1\n3\n2\n"); got != "3\n2\n1\n" {
		t.Errorf("sort -rn = %q", got)
	}
	if got := run(t, "sort -r", "a\nb\n"); got != "b\na\n" {
		t.Errorf("sort -r = %q", got)
	}
	if got := run(t, "sort -u", "b\na\nb\n"); got != "a\nb\n" {
		t.Errorf("sort -u = %q", got)
	}
	if got := run(t, "sort -f", "B\na\n"); got != "a\nB\n" {
		t.Errorf("sort -f = %q", got)
	}
	// -f ties broken by last-resort bytewise comparison.
	if got := run(t, "sort -f", "b\nB\n"); got != "B\nb\n" {
		t.Errorf("sort -f tie = %q", got)
	}
	if got := run(t, "sort -k1n", "10 x\n2 y\n"); got != "2 y\n10 x\n" {
		t.Errorf("sort -k1n = %q", got)
	}
	if got := run(t, "sort --parallel=1 -rn", "1\n2\n"); got != "2\n1\n" {
		t.Errorf("sort --parallel = %q", got)
	}
	// GNU -n: numeric ties broken bytewise ("	10" vs "10" style inputs).
	if got := run(t, "sort -n", "b\na\n"); got != "a\nb\n" {
		t.Errorf("sort -n non-numeric tie = %q", got)
	}
}

func TestSortMergeStreams(t *testing.T) {
	cmd, _ := Parse("sort -rn", nil)
	s := cmd.(*SortCmd)
	got, sorted := s.MergeStreams("9\n5\n1\n", "8\n2\n", "7\n")
	if got != "9\n8\n7\n5\n2\n1\n" || !sorted {
		t.Errorf("MergeStreams -rn = %q", got)
	}
	// Stability: equal keys come from earlier streams first.
	cmd2, _ := Parse("sort -k1n", nil)
	s2 := cmd2.(*SortCmd)
	got, sorted = s2.MergeStreams("1 a\n", "1 b\n")
	if got != "1 a\n1 b\n" || !sorted {
		t.Errorf("MergeStreams stability = %q", got)
	}
}

func TestSortMergeRequiresSorted(t *testing.T) {
	cmd, _ := Parse("sort -m", nil)
	if _, err := cmd.Run("b\na\n"); err == nil {
		t.Error("sort -m on unsorted input should error")
	}
	if out, err := cmd.Run("a\nb\n"); err != nil || out != "a\nb\n" {
		t.Errorf("sort -m on sorted input = %q, %v", out, err)
	}
}

func TestUniq(t *testing.T) {
	if got := run(t, "uniq", "a\na\nb\na\n"); got != "a\nb\na\n" {
		t.Errorf("uniq = %q", got)
	}
	got := run(t, "uniq -c", "a\na\nb\n")
	if got != "      2 a\n      1 b\n" {
		t.Errorf("uniq -c = %q (want GNU %%7d padding)", got)
	}
}

func TestGrep(t *testing.T) {
	in := "light house\ndark room\nlight light\n"
	if got := run(t, "grep light", in); got != "light house\nlight light\n" {
		t.Errorf("grep = %q", got)
	}
	if got := run(t, "grep -c light", in); got != "2\n" {
		t.Errorf("grep -c = %q", got)
	}
	if got := run(t, "grep -v light", in); got != "dark room\n" {
		t.Errorf("grep -v = %q", got)
	}
	if got := run(t, "grep -vc light", in); got != "1\n" {
		t.Errorf("grep -vc = %q", got)
	}
	if got := run(t, "grep -i LIGHT", in); got != "light house\nlight light\n" {
		t.Errorf("grep -i = %q", got)
	}
	if got := run(t, `grep 'light.*light'`, in); got != "light light\n" {
		t.Errorf("grep regex = %q", got)
	}
	if got := run(t, `grep -v '^0$'`, "0\n10\n0\n"); got != "10\n" {
		t.Errorf("grep -v anchor = %q", got)
	}
}

func TestWc(t *testing.T) {
	in := "one two\nthree\n"
	if got := run(t, "wc -l", in); got != "2\n" {
		t.Errorf("wc -l = %q", got)
	}
	if got := run(t, "wc -w", in); got != "3\n" {
		t.Errorf("wc -w = %q", got)
	}
	if got := run(t, "wc -c", in); got != "14\n" {
		t.Errorf("wc -c = %q", got)
	}
	if got := run(t, "wc", in); got != "      2      3     14\n" {
		t.Errorf("wc = %q", got)
	}
}

func TestCutChars(t *testing.T) {
	if got := run(t, "cut -c 1-4", "abcdefg\nxy\n"); got != "abcd\nxy\n" {
		t.Errorf("cut -c 1-4 = %q", got)
	}
	if got := run(t, "cut -c 3-3", "abcd\n"); got != "c\n" {
		t.Errorf("cut -c 3-3 = %q", got)
	}
}

func TestCutFields(t *testing.T) {
	in := "a,b,c\nnodilim\n"
	if got := run(t, "cut -d ',' -f 1", in); got != "a\nnodilim\n" {
		t.Errorf("cut -f 1 = %q", got)
	}
	// GNU emits fields in input order even when the list says 3,1.
	if got := run(t, "cut -d ',' -f 3,1", "a,b,c\n"); got != "a,c\n" {
		t.Errorf("cut -f 3,1 = %q", got)
	}
	if got := run(t, "cut -d ',' -f 1,2", "a,b,c\n"); got != "a,b\n" {
		t.Errorf("cut -f 1,2 = %q", got)
	}
	if got := run(t, "cut -f 2", "a\tb\tc\n"); got != "b\n" {
		t.Errorf("cut default tab = %q", got)
	}
	if got := run(t, `cut -d '"' -f 2`, `say "hi" now`+"\n"); got != "hi\n" {
		t.Errorf("cut quote delim = %q", got)
	}
}

func TestSedSubstitute(t *testing.T) {
	if got := run(t, `sed 's/T..:..:..//'`, "2020-05-01T10:30:00,v1\n"); got != "2020-05-01,v1\n" {
		t.Errorf("sed strip time = %q", got)
	}
	if got := run(t, `sed 's/T\(..\):..:../,\1/'`, "2020-05-01T10:30:00,v1\n"); got != "2020-05-01,10,v1\n" {
		t.Errorf("sed hour = %q", got)
	}
	if got := run(t, `sed s/\$/'0s'/`, "197\n198\n"); got != "1970s\n1980s\n" {
		t.Errorf("sed append = %q", got)
	}
	if got := run(t, `sed "s;^;pg/;"`, "book1\nbook2\n"); got != "pg/book1\npg/book2\n" {
		t.Errorf("sed prefix = %q", got)
	}
}

func TestSedAddress(t *testing.T) {
	in := "1\n2\n3\n4\n"
	if got := run(t, "sed 1d", in); got != "2\n3\n4\n" {
		t.Errorf("sed 1d = %q", got)
	}
	if got := run(t, "sed 2d", in); got != "1\n3\n4\n" {
		t.Errorf("sed 2d = %q", got)
	}
	if got := run(t, "sed 2q", in); got != "1\n2\n" {
		t.Errorf("sed 2q = %q", got)
	}
	if got := run(t, "sed 100q", in); got != in {
		t.Errorf("sed 100q short input = %q", got)
	}
}

func TestAwkPatterns(t *testing.T) {
	in := "500 a\n2000 b\n1000 c\n"
	if got := run(t, `awk "\$1 >= 1000"`, in); got != "2000 b\n1000 c\n" {
		t.Errorf("awk numeric filter = %q", got)
	}
	if got := run(t, `awk "\$1 >= 2 {print \$2}"`, "1 x\n3 y\n"); got != "y\n" {
		t.Errorf("awk pattern+action = %q", got)
	}
	if got := run(t, `awk "length >= 5"`, "abc\nabcdef\n"); got != "abcdef\n" {
		t.Errorf("awk length = %q", got)
	}
	if got := run(t, `awk 'length <= 3'`, "abc\nabcdef\n"); got != "abc\n" {
		t.Errorf("awk length <= = %q", got)
	}
}

func TestAwkActions(t *testing.T) {
	if got := run(t, `awk '{print NF}'`, "a b c\nd\n"); got != "3\n1\n" {
		t.Errorf("awk NF = %q", got)
	}
	if got := run(t, `awk '{print $2, $0}'`, "x y\n"); got != "y x y\n" {
		t.Errorf("awk print $2,$0 = %q", got)
	}
	if got := run(t, `awk -v OFS="\t" "{print \$2,\$1}"`, "a b\n"); got != "b\ta\n" {
		t.Errorf("awk OFS = %q", got)
	}
	// {$1=$1};1 squeezes whitespace.
	if got := run(t, `awk "{\$1=\$1};1"`, "  a   b  \n"); got != "a b\n" {
		t.Errorf("awk rejoin = %q", got)
	}
	// The Table 9 value-gated command still runs (synthesis will reject it).
	if got := run(t, `awk "\$1 == 2 {print \$2, \$3}"`, "2 a b\n3 c d\n"); got != "a b\n" {
		t.Errorf("awk gated = %q", got)
	}
}

func TestHeadTail(t *testing.T) {
	in := "1\n2\n3\n4\n5\n"
	if got := run(t, "head -n 2", in); got != "1\n2\n" {
		t.Errorf("head -n 2 = %q", got)
	}
	if got := run(t, "head -3", in); got != "1\n2\n3\n" {
		t.Errorf("head -3 = %q", got)
	}
	if got := run(t, "head", in); got != in {
		t.Errorf("head default on 5 lines = %q", got)
	}
	if got := run(t, "tail -n 1", in); got != "5\n" {
		t.Errorf("tail -n 1 = %q", got)
	}
	if got := run(t, "tail +2", in); got != "2\n3\n4\n5\n" {
		t.Errorf("tail +2 = %q", got)
	}
	if got := run(t, "tail +3", in); got != "3\n4\n5\n" {
		t.Errorf("tail +3 = %q", got)
	}
}

func TestXargs(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("x.txt", "one\ntwo\n")
	env.FS.Register("y.txt", "three\n")
	cmd, err := Parse("xargs cat", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("x.txt\ny.txt\n")
	if err != nil || out != "one\ntwo\nthree\n" {
		t.Errorf("xargs cat = %q, %v", out, err)
	}
	// Missing files are errors — the probe behaviour from §3.2.
	if _, err := cmd.Run("no-such-file\n"); err == nil {
		t.Error("xargs cat on missing file should error")
	}

	wcCmd, _ := Parse("xargs -L 1 wc -l", env)
	out, err = wcCmd.Run("x.txt\ny.txt\n")
	if err != nil || out != "2 x.txt\n1 y.txt\n" {
		t.Errorf("xargs wc -l = %q, %v", out, err)
	}

	fileCmd, _ := Parse("xargs file", env)
	out, err = fileCmd.Run("x.txt\n")
	if err != nil || !strings.Contains(out, "x.txt: ASCII text") {
		t.Errorf("xargs file = %q, %v", out, err)
	}
}

func TestComm(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("dict", "apple\nbanana\ncherry\n")
	cmd, err := Parse("comm -23 - dict", env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.Run("apple\nzebra\n")
	if err != nil || out != "zebra\n" {
		t.Errorf("comm -23 = %q, %v", out, err)
	}
	// Unsorted stdin errors — the probe behaviour from §3.2.
	if _, err := cmd.Run("zebra\napple\n"); err == nil {
		t.Error("comm on unsorted input should error")
	}
}

func TestFmtRevColIconv(t *testing.T) {
	if got := run(t, "fmt -w1", "a bb ccc\n"); got != "a\nbb\nccc\n" {
		t.Errorf("fmt -w1 = %q", got)
	}
	if got := run(t, "rev", "abc\nxy\n"); got != "cba\nyx\n" {
		t.Errorf("rev = %q", got)
	}
	if got := run(t, "col -bx", "a\tb\n"); got != "a       b\n" {
		t.Errorf("col -bx tabs = %q", got)
	}
	if got := run(t, "col -b", "ab\bc\n"); got != "ac\n" {
		t.Errorf("col -b backspace = %q", got)
	}
	if got := run(t, "iconv -f utf-8 -t ascii//translit", "café\n"); got != "cafe\n" {
		t.Errorf("iconv = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "nosuchcmd x", "tr", "sort -z", "grep", "cut -c 1 -f 2",
		"sed", "sed y/a/b/", "awk", "head -n x", "uniq -d",
		// awk: a negative or unboundedly large assignment target, and text
		// after the closing brace.
		"awk '{$-1=1}'", "awk '{$100000=1}'", "awk '{print}x'",
	} {
		if _, err := Parse(bad, nil); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestEnvAssignPrefix(t *testing.T) {
	env := DefaultEnv()
	env.FS.Register("d", "a\n")
	cmd, err := Parse("LC_COLLATE=C comm -23 - d", env)
	if err != nil {
		t.Fatalf("env prefix: %v", err)
	}
	out, err := cmd.Run("b\n")
	if err != nil || out != "b\n" {
		t.Errorf("comm with env prefix = %q, %v", out, err)
	}
}

func TestFSDeterminism(t *testing.T) {
	a, b := NewFS(), NewFS()
	an, bn := a.Names(), b.Names()
	if len(an) == 0 || len(an) != len(bn) {
		t.Fatalf("FS name counts differ: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("FS names differ at %d: %q vs %q", i, an[i], bn[i])
		}
		ca, _ := a.Read(an[i])
		cb, _ := b.Read(bn[i])
		if ca != cb {
			t.Fatalf("FS content differs for %q", an[i])
		}
	}
	if _, err := a.Read("dict.sorted"); err != nil {
		t.Error("default FS must include dict.sorted")
	}
}
