package regexlite

import "testing"

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
