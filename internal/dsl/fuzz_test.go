package dsl

import (
	"testing"
)

// FuzzCombiner drives the DSL parser and evaluator with arbitrary input:
// ParseCandidate must never panic, every accepted candidate must render
// back to a form the parser accepts (a stable parse/print round trip),
// and evaluation over arbitrary operand streams — binary and k-way — must
// return values or errors, never crash. CI runs this with a short
// -fuzztime budget.
func FuzzCombiner(f *testing.F) {
	combiners := []string{
		"(concat a b)",
		"(add b a)",
		"(first a b)",
		"(second a b)",
		"(stitch ' ' first a b)",
		"(stitch2 ' ' add first a b)",
		"(back '\\n' add b a)",
		"(front ',' second a b)",
		"(fuse '\\t' concat a b)",
		"(offset '\\n' 2 a b)",
		"(rerun a b)",
		"(merge a b)",
		"(stitch2 ' ' (front ',' add) first a b)",
		"(stitch",
		"()",
		"(bogus a b)",
		"(add a)",
		"(add a b c)",
	}
	ys := []string{"", "1\n", "a b\n1\n", "7", "x,y\nz"}
	for _, c := range combiners {
		for _, y := range ys {
			f.Add(c, y, "3\n")
			f.Add(c, "pear\n", y)
		}
	}
	f.Fuzz(func(t *testing.T, src, y1, y2 string) {
		c, err := ParseCandidate(src)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		rendered := c.String()
		rt, err := ParseCandidate(rendered)
		if err != nil {
			t.Fatalf("accepted %q renders to %q which does not re-parse: %v", src, rendered, err)
		}
		if rt.String() != rendered {
			t.Fatalf("parse/print not stable: %q -> %q -> %q", src, rendered, rt.String())
		}
		// Evaluate every path with a benign environment: rerun echoes its
		// input, merge is left unbound (its Eval must error, not crash).
		env := &Env{RunF: func(s string) (string, error) { return s, nil }}
		_ = c.InDomain(env, y1, y2)
		_, _ = c.Eval(env, y1, y2)
		_, _ = CombineK(env, c, []string{y1, y2, y1, "", y2})
	})
}
