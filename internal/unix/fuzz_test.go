package unix

import (
	"slices"
	"strings"
	"testing"
)

// FuzzShlex checks the stage-spec lexer on arbitrary input: Tokenize
// returns tokens or an error and never panics; without quotes or
// backslashes it is plain whitespace splitting; and shell-quoting the
// tokens it returned re-tokenizes to the same tokens.
func FuzzShlex(f *testing.F) {
	for _, c := range tokenizeCases {
		f.Add(c.in)
	}
	for _, bad := range tokenizeErrorCases {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		toks, err := Tokenize(spec)
		if !strings.ContainsAny(spec, `'"\`) {
			want := strings.FieldsFunc(spec, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' })
			if err != nil || !slices.Equal(toks, want) {
				t.Fatalf("Tokenize(%q) = %q, %v; want %q", spec, toks, err, want)
			}
		}
		if err != nil {
			return
		}
		quoted := make([]string, len(toks))
		for i, tok := range toks {
			quoted[i] = "'" + strings.ReplaceAll(tok, "'", `'\''`) + "'"
		}
		again, err := Tokenize(strings.Join(quoted, " "))
		if err != nil || !slices.Equal(again, toks) {
			t.Fatalf("Tokenize(%q) = %q, but quoted back it tokenizes to %q, %v", spec, toks, again, err)
		}
	})
}
