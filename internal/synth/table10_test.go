package synth

import (
	"context"
	"strings"
	"testing"

	"kumquat/internal/unix"
)

// TestTable10Identities is the per-command fidelity table: for each command
// the paper's Table 10 publishes, assert that the listed plausible
// combiners survive (mustHave), that known-incorrect ones are eliminated
// (mustNotHave), and — where the paper's row is exhaustive and our domains
// agree — the exact survivor count.
func TestTable10Identities(t *testing.T) {
	cases := []struct {
		spec        string
		mustHave    []string
		mustNotHave []string
		exactCount  int // 0 = don't check
	}{
		// Counting commands → (back '\n' add), nothing else.
		{"wc -l",
			[]string{`(back '\n' add a b)`, `(back '\n' add b a)`},
			[]string{"(concat a b)", "(rerun a b)"}, 2},
		{`grep -c '^[A-Z]'`,
			[]string{`(back '\n' add a b)`, `(back '\n' add b a)`},
			[]string{"(concat a b)"}, 2},
		{`grep -vc 'light.*light'`,
			[]string{`(back '\n' add a b)`},
			[]string{"(concat a b)"}, 0},

		// Line-map commands → concat (+ rerun when idempotent).
		{"tr A-Z a-z", []string{"(concat a b)", "(rerun a b)"},
			[]string{"(concat b a)", "(first a b)"}, 0},
		{`tr '[a-z]' '[A-Z]'`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`tr -d ','`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`tr -d '[:punct:]'`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`tr ' ' '\n'`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`sed s/\$/'0s'/`, []string{"(concat a b)"}, []string{"(rerun a b)"}, 0},
		{`cut -d ':' -f 1`, []string{"(concat a b)"}, nil, 0},
		{`awk 'length <= 45'`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`awk "{\$1=\$1};1"`, []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{`awk '{print NF}'`, []string{"(concat a b)"}, []string{"(rerun a b)"}, 0},
		{"col -bx", []string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{"iconv -f utf-8 -t ascii//translit",
			[]string{"(concat a b)", "(rerun a b)"}, nil, 0},
		{"fmt -w1", []string{"(concat a b)"}, nil, 0},

		// rev: concat only — rerun is NOT idempotent (rev∘rev = id).
		{"rev", []string{"(concat a b)"}, []string{"(rerun a b)"}, 0},
		// cut -c 3-3: rerun re-cuts one-char lines to "" (paper: concat only).
		{"cut -c 3-3", []string{"(concat a b)"}, []string{"(rerun a b)"}, 0},
		// Timestamp sed: non-global s/// strips again on rerun (paper: concat only).
		{`sed 's/T..:..:..//'`, []string{"(concat a b)"}, []string{"(rerun a b)"}, 0},

		// Squeeze-class commands → rerun only.
		{`tr -cs A-Za-z '\n'`, []string{"(rerun a b)"}, []string{"(concat a b)"}, 1},
		{`tr -s ' ' '\n'`, []string{"(rerun a b)"}, []string{"(concat a b)"}, 1},
		{`tr -sc 'AEIOU' '[\012*]'`, []string{"(rerun a b)"}, []string{"(concat a b)"}, 1},

		// Sorting commands → merge + rerun, both orders (4 total).
		{"sort", []string{"(merge a b)", "(merge b a)", "(rerun a b)", "(rerun b a)"}, nil, 4},
		{"sort -u", []string{"(merge a b)", "(rerun a b)"}, []string{"(concat a b)"}, 4},
		{"sort -f", []string{"(merge a b)", "(rerun a b)"}, nil, 4},
		{"sort -n", []string{"(merge a b)", "(rerun a b)"}, nil, 4},
		{"sort -k1n", []string{"(merge a b)", "(rerun a b)"}, nil, 4},

		// Selection commands.
		{"uniq", []string{"(stitch first a b)", "(stitch second a b)", "(rerun a b)"},
			[]string{"(concat a b)", "(first a b)"}, 0},
		{"uniq -c", []string{"(stitch2 ' ' add first a b)", "(stitch2 ' ' add second a b)"},
			[]string{"(rerun a b)", "(concat a b)"}, 2},
		{"tail -n 1", []string{"(second a b)", "(first b a)",
			`(back '\n' second a b)`, `(back '\n' first b a)`,
			`(fuse '\n' second a b)`, `(fuse '\n' first b a)`, "(rerun a b)"},
			[]string{"(first a b)", "(concat a b)"}, 7},

		// Prefix-truncation → rerun only.
		{"sed 100q", []string{"(rerun a b)"}, []string{"(concat a b)", "(first a b)"}, 1},
		{"sed 5q", []string{"(rerun a b)"}, []string{"(first a b)"}, 1},
		{"head", []string{"(rerun a b)"}, []string{"(first a b)"}, 1},
	}

	s := New(unix.DefaultEnv(), Options{Seed: 1})
	for _, tc := range cases {
		res, err := s.Synthesize(context.Background(), tc.spec)
		if res == nil || res.Err != nil {
			t.Errorf("%s: synthesis failed: %v / %v", tc.spec, err, res)
			continue
		}
		have := map[string]bool{}
		for _, c := range res.Plausible {
			have[c.String()] = true
		}
		for _, want := range tc.mustHave {
			if !have[want] {
				t.Errorf("%s: missing plausible %s (got %s)", tc.spec, want, join(have))
			}
		}
		for _, bad := range tc.mustNotHave {
			if have[bad] {
				t.Errorf("%s: %s should be eliminated (got %s)", tc.spec, bad, join(have))
			}
		}
		if tc.exactCount > 0 && len(res.Plausible) != tc.exactCount {
			t.Errorf("%s: %d plausible combiners, paper lists %d: %s",
				tc.spec, len(res.Plausible), tc.exactCount, join(have))
		}
	}
}

func join(m map[string]bool) string {
	var parts []string
	for k := range m {
		parts = append(parts, k)
	}
	return strings.Join(parts, "; ")
}

// TestTable10SearchSpaces pins the search-space size class per command for
// the rows where our delimiter selection matches the paper's.
func TestTable10SearchSpaces(t *testing.T) {
	cases := map[string]int{
		"wc -l":              2700,   // digits + newline only
		`grep -c '^....$'`:   2700,   // count output
		`awk '{print NF}'`:   2700,   // single-field output
		`tr ' ' '\n'`:        2700,   // spaces translated away
		`tr -cs A-Za-z '\n'`: 2700,   // letters + newlines only
		"uniq -c":            26404,  // padded counts: newline + space
		"uniq":               26404,  // word lines
		"sort":               26404,  //
		"tr A-Z a-z":         26404,  //
		"cut -d ',' -f 1,2":  110444, // comma survives into output
	}
	s := New(unix.DefaultEnv(), Options{Seed: 1})
	for spec, want := range cases {
		res, _ := s.Synthesize(context.Background(), spec)
		if res == nil {
			t.Errorf("%s: no result", spec)
			continue
		}
		if res.Space.Total() != want {
			t.Errorf("%s: search space %d, paper %d (delims %v)",
				spec, res.Space.Total(), want, res.Delims)
		}
	}
}
