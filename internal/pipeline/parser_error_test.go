package pipeline

import (
	"slices"
	"strings"
	"testing"
)

// TestParseScriptUntrustedInput pins the parser's error paths for the
// malformed scripts kumquatd receives from untrusted clients: each case
// must produce a diagnostic, never a silently-mangled pipeline.
func TestParseScriptUntrustedInput(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty segment middle", "cat x | | wc -l\n", "empty pipeline segment"},
		{"empty segment leading", "| sort\n", "empty pipeline segment"},
		{"empty segment trailing", "sort |\n", "empty pipeline segment"},
		{"unterminated single quote", "grep 'abc | wc -l\n", "unterminated ' quote"},
		{"unterminated double quote", `awk "{print | sort` + "\n", `unterminated " quote`},
		{"output redirect without target", "cat x | sort >\n", "output redirect without target"},
		{"input redirect without target", "sort -n <\n", "input redirect without target"},
		{"no pipelines", "# only a comment\nVAR=1\n", "no pipelines"},
		{"stages all empty", "cat x >\n", "redirect without target"},
		{"redirect to two files", "sort < a b\n", "input redirect to more than one file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseScript(tc.src, nil)
			if err == nil {
				t.Fatalf("ParseScript(%q) = %+v, want error containing %q", tc.src, s, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseScript(%q) error = %q, want it to contain %q", tc.src, err, tc.wantErr)
			}
		})
	}
}

// TestParseScriptQuotedMetaNotRedirect guards the other side of the
// hardening: quoted or escaped '>' / '<' and quoted '|' stay command
// text, not syntax, while an unquoted redirect beside them still counts.
func TestParseScriptQuotedMetaNotRedirect(t *testing.T) {
	cases := []struct {
		src, in, out string
		stages       []string
	}{
		{`cat x | awk '\$1 > 2 {print}' | grep 'a|b'`, "x", "", []string{`awk '\$1 > 2 {print}'`, `grep 'a|b'`}},
		{`grep \<the | wc -l`, "", "", []string{`grep \<the`, "wc -l"}},
		{`cat f | grep \>x`, "f", "", []string{`grep \>x`}},
		{`grep '<' < in.txt | wc -l`, "in.txt", "", []string{`grep '<'`, "wc -l"}},
		{`sort -n < in.txt > out.txt`, "in.txt", "out.txt", []string{"sort -n"}},
	}
	for _, tc := range cases {
		s, err := ParseScript(tc.src+"\n", nil)
		if err != nil {
			t.Errorf("ParseScript(%q): %v", tc.src, err)
			continue
		}
		p := s.Pipelines[0]
		if p.InputFile != tc.in || p.OutputFile != tc.out || !slices.Equal(p.Stages, tc.stages) {
			t.Errorf("ParseScript(%q) = in %q out %q stages %q, want in %q out %q stages %q",
				tc.src, p.InputFile, p.OutputFile, p.Stages, tc.in, tc.out, tc.stages)
		}
	}
}
