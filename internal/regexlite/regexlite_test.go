package regexlite

import (
	"math/rand"
	"strings"
	"testing"
)

func TestLiteralMatch(t *testing.T) {
	re := MustCompile("light")
	if !re.MatchString("a lighthouse") {
		t.Error("should match substring")
	}
	if re.MatchString("LIGHT") {
		t.Error("case sensitive by default")
	}
}

func TestDotStar(t *testing.T) {
	re := MustCompile("light.*light")
	if !re.MatchString("light of the lighthouse") {
		t.Error("light.*light should match")
	}
	if re.MatchString("light only once") {
		t.Error("single light should not match")
	}
	// Dot does not cross newlines.
	if re.MatchString("light\nlight") {
		t.Error(". must not match newline")
	}
}

func TestAnchors(t *testing.T) {
	re := MustCompile("^0$")
	if !re.MatchString("0") {
		t.Error("^0$ should match '0'")
	}
	for _, s := range []string{"10", "01", "a0"} {
		if re.MatchString(s) {
			t.Errorf("^0$ should not match %q", s)
		}
	}
	// grep '^....$' — exactly 4 characters.
	re4 := MustCompile("^....$")
	if !re4.MatchString("word") || re4.MatchString("words") || re4.MatchString("cat") {
		t.Error("^....$ misbehaved")
	}
}

func TestClasses(t *testing.T) {
	re := MustCompile("[KQRBN]")
	if !re.MatchString("Qxe5") || re.MatchString("exd5") {
		t.Error("[KQRBN] misbehaved")
	}
	re2 := MustCompile("^[^aeiou]*[aeiou][^aeiou]*$")
	if !re2.MatchString("cat") || !re2.MatchString("a") {
		t.Error("1-syllable pattern should match cat/a")
	}
	if re2.MatchString("beat") || re2.MatchString("audio") {
		t.Error("1-syllable pattern should reject multi-vowel words")
	}
	re3 := MustCompile("[[:digit:]]")
	if !re3.MatchString("a1b") || re3.MatchString("abc") {
		t.Error("[[:digit:]] misbehaved")
	}
	re4 := MustCompile("[a-z0-9]")
	if !re4.MatchString("Z9") || re4.MatchString("ZA") {
		t.Error("[a-z0-9] misbehaved")
	}
}

func TestRangeEdges(t *testing.T) {
	re := MustCompile("[a-c]")
	for _, s := range []string{"a", "b", "c"} {
		if !re.MatchString(s) {
			t.Errorf("[a-c] should match %q", s)
		}
	}
	if re.MatchString("d") {
		t.Error("[a-c] should not match d")
	}
	// ']' first in class is literal.
	re2 := MustCompile("[]a]")
	if !re2.MatchString("]") || !re2.MatchString("a") {
		t.Error("[]a] should match ] and a")
	}
	// '-' last in class is literal.
	re3 := MustCompile("[a-]")
	if !re3.MatchString("-") || !re3.MatchString("a") || re3.MatchString("b") {
		t.Error("[a-] misbehaved")
	}
}

func TestBackreferences(t *testing.T) {
	// The nfa-regex benchmark pattern: four repeated characters.
	re := MustCompile(`\(.\).*\1\(.\).*\2\(.\).*\3\(.\).*\4`)
	if !re.MatchString("aabbccdd") {
		t.Error("aabbccdd has 4 pairwise-repeated chars in order")
	}
	if !re.MatchString("xaya-xbyb-xcyc-xdyd") {
		t.Error("interleaved repeats should match")
	}
	if re.MatchString("abcdefgh") {
		t.Error("all-distinct string should not match")
	}
	re2 := MustCompile(`\(ab\)\1`)
	if !re2.MatchString("abab") || re2.MatchString("abba") {
		t.Error(`\(ab\)\1 misbehaved`)
	}
}

func TestGroupsCapture(t *testing.T) {
	re := MustCompile(`T\(..\):..:..`)
	m, ok := re.FindString("2020-01-02T13:45:59,v1")
	if !ok {
		t.Fatal("should match timestamp")
	}
	if got := m.Group("2020-01-02T13:45:59,v1", 1); got != "13" {
		t.Errorf("group 1 = %q, want 13", got)
	}
}

// replaced is sed's use of a Replace method: the rewritten line, or the
// input itself when nothing matched.
func replaced(replace func([]byte, string, string) ([]byte, bool), input, repl string) string {
	b, ok := replace(nil, input, repl)
	if !ok {
		return input
	}
	return string(b)
}

func TestReplace(t *testing.T) {
	// sed 's/T..:..:..//'
	re := MustCompile("T..:..:..")
	got := replaced(re.ReplaceFirst, "2020-01-02T13:45:59,v1", "")
	if got != "2020-01-02,v1" {
		t.Errorf("strip timestamp = %q", got)
	}
	// sed 's/T\(..\):..:../,\1/'
	re2 := MustCompile(`T\(..\):..:..`)
	got = replaced(re2.ReplaceFirst, "2020-01-02T13:45:59,v1", `,\1`)
	if got != "2020-01-02,13,v1" {
		t.Errorf("hour extract = %q", got)
	}
	// sed 's/$/0s/' — empty match at end of line.
	re3 := MustCompile("$")
	got = replaced(re3.ReplaceFirst, "197", "0s")
	if got != "1970s" {
		t.Errorf("append = %q", got)
	}
	// sed 's/^/prefix/'
	re4 := MustCompile("^")
	got = replaced(re4.ReplaceFirst, "name.txt", "dir/")
	if got != "dir/name.txt" {
		t.Errorf("prefix = %q", got)
	}
}

func TestReplaceAll(t *testing.T) {
	re := MustCompile("a")
	if got := replaced(re.ReplaceAll, "banana", "o"); got != "bonono" {
		t.Errorf("ReplaceAll = %q", got)
	}
	// Empty matches must not loop.
	re2 := MustCompile("x*")
	got := replaced(re2.ReplaceAll, "ab", "-")
	if !strings.Contains(got, "a") || !strings.Contains(got, "b") {
		t.Errorf("empty-match ReplaceAll lost text: %q", got)
	}
	// & in replacement.
	re3 := MustCompile("na")
	if got := replaced(re3.ReplaceAll, "banana", "<&>"); got != "ba<na><na>" {
		t.Errorf("& replacement = %q", got)
	}
}

// TestReplaceAppends: both Replace methods append to the caller's buffer,
// and leave it untouched when nothing matches.
func TestReplaceAppends(t *testing.T) {
	re := MustCompile("a")
	for _, replace := range []func([]byte, string, string) ([]byte, bool){re.ReplaceFirst, re.ReplaceAll} {
		dst := []byte("kept:")
		if b, ok := replace(dst, "sky", "o"); ok || string(b) != "kept:" {
			t.Errorf("no match: got %q, %v; want the buffer as it was and false", b, ok)
		}
		if b, ok := replace(dst, "sad", "o"); !ok || string(b) != "kept:sod" {
			t.Errorf("match: got %q, %v; want %q, true", b, ok, "kept:sod")
		}
	}
}

func TestCaseFold(t *testing.T) {
	re, err := CompileFold("[aeiou]")
	if err != nil {
		t.Fatal(err)
	}
	if !re.MatchString("XYZA") {
		t.Error("fold: A should match [aeiou]")
	}
	re2, err := CompileFold("hello")
	if err != nil {
		t.Fatal(err)
	}
	if !re2.MatchString("say HELLO there") {
		t.Error("fold literal failed")
	}
}

func TestLeftmostMatch(t *testing.T) {
	re := MustCompile("l.ght")
	m, ok := re.FindString("alight or light")
	if !ok || m.Start != 1 {
		t.Errorf("leftmost match at %d, want 1", m.Start)
	}
}

func TestStarGreedy(t *testing.T) {
	re := MustCompile("a.*b")
	m, ok := re.FindString("aXbYb")
	if !ok || m.End != 5 {
		t.Errorf("greedy .* should reach last b; end=%d", m.End)
	}
}

func TestPlusQuest(t *testing.T) {
	re := MustCompile(`ab\+c`)
	if !re.MatchString("abbbc") || re.MatchString("ac") {
		t.Error(`\+ misbehaved`)
	}
	re2 := MustCompile(`ab\?c`)
	if !re2.MatchString("ac") || !re2.MatchString("abc") || re2.MatchString("abbc") {
		t.Error(`\? misbehaved`)
	}
}

func TestEscapedLiterals(t *testing.T) {
	re := MustCompile(`\.`)
	if !re.MatchString("a.b") || re.MatchString("ab") {
		t.Error(`\. misbehaved`)
	}
	re2 := MustCompile(`light\.\*light`)
	if !re2.MatchString("light.*light") || re2.MatchString("lightXlight") {
		t.Error(`escaped star misbehaved`)
	}
	re3 := MustCompile(`(`)
	if !re3.MatchString("f(x)") {
		t.Error("bare ( is literal in BRE")
	}
}

func TestMidPatternDollarCaret(t *testing.T) {
	// In BRE, $ not at end and ^ not at start are literals.
	re := MustCompile("a$b")
	if !re.MatchString("a$b") {
		t.Error("mid $ should be literal")
	}
	re2 := MustCompile("a^b")
	if !re2.MatchString("a^b") {
		t.Error("mid ^ should be literal")
	}
}

var compileErrorPatterns = []string{`\(`, `[abc`, `a\`, `[[:nope:]]`}

func TestCompileErrors(t *testing.T) {
	for _, bad := range compileErrorPatterns {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) should fail", bad)
		}
	}
}

var examplePatterns = []string{
	"light.*light",
	"^[^aeiou]*[aeiou][^aeiou]*$",
	"[KQRBN]",
	"T..:..:..",
	`\(.\).*\1`,
	"AT&T",
	"^....$",
	"Bell",
}

func TestExampleGeneratesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range examplePatterns {
		re := MustCompile(p)
		for i := 0; i < 50; i++ {
			ex := re.Example(rng)
			if !re.MatchString(ex) {
				t.Errorf("Example(%q) = %q does not match its own pattern", p, ex)
				break
			}
		}
	}
}

func TestBudgetTermination(t *testing.T) {
	// A pathological pattern must terminate (budget-bounded), not hang.
	re := MustCompile("a*a*a*a*a*a*a*b")
	long := strings.Repeat("a", 300)
	_ = re.MatchString(long) // must return; result may be false due to budget
}
