package regexlite

import (
	"strings"
	"testing"
)

// FuzzRegexCompile checks the BRE parser on arbitrary patterns: Compile
// returns a regexp or an error, and never panics or hangs.
func FuzzRegexCompile(f *testing.F) {
	for _, p := range examplePatterns {
		f.Add(p)
	}
	for _, p := range compileErrorPatterns {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		re, err := Compile(pattern)
		if (re == nil) == (err == nil) {
			t.Fatalf("Compile(%q) = %v, %v; want exactly one", pattern, re, err)
		}
	})
}

// quoteBRE escapes the bytes a BRE gives a meaning, so the pattern
// matches lit literally.
func quoteBRE(lit string) string {
	var b strings.Builder
	for i := 0; i < len(lit); i++ {
		if strings.IndexByte(`\.[*^$`, lit[i]) >= 0 {
			b.WriteByte('\\')
		}
		b.WriteByte(lit[i])
	}
	return b.String()
}

// FuzzRegexLiteralMatchesGeneral holds a literal pattern's strings.Index
// answers to the backtracking matcher: MatchString, ReplaceFirst and
// ReplaceAll must agree on every input and replacement
// (splices included) with a copy of the regexp whose literal flag is
// cleared, which sends it down the general path.
func FuzzRegexLiteralMatchesGeneral(f *testing.F) {
	f.Add("light", "a light in the lighthouse", "dark")
	f.Add("na", "banana", "<&>")
	f.Add("a.b", "a.b axb a.b", `\1-\&-\\`)
	f.Add("$x^", "$x^$x^", "&&")
	f.Add("aa", "aaaaa", "")
	f.Add("\n", "a\nb", `\n\t`)
	f.Fuzz(func(t *testing.T, lit, input, repl string) {
		re, err := Compile(quoteBRE(lit))
		if err != nil {
			t.Fatalf("Compile(%q): %v", quoteBRE(lit), err)
		}
		if !re.isLit {
			if lit != "" {
				t.Fatalf("%q: quoted literal not compiled as a literal", lit)
			}
			return
		}
		general := *re
		general.isLit = false
		if got, want := re.MatchString(input), general.MatchString(input); got != want {
			t.Fatalf("%q MatchString(%q) = %v, general %v", lit, input, got, want)
		}
		for _, all := range []bool{false, true} {
			got, ok := re.replace([]byte("<"), input, repl, all)
			want, wok := general.replace([]byte("<"), input, repl, all)
			if ok != wok || string(got) != string(want) {
				t.Fatalf("%q replace(%q, %q, all=%v) = %q, %v; general %q, %v", lit, input, repl, all, got, ok, want, wok)
			}
		}
	})
}
