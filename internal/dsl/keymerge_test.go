package dsl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// uniqCount is uniq -c's keyed merge, (keymerge stitch2 ' ' add first).
var uniqCount = KeyMerge{J: Stitch2{D: ' ', B1: Add{}, B2: First{}}}

// TestKeyMergeJoinsTies: the keyed merge orders the operands' lines by
// the key after the count under the sort's comparator, and adds the
// counts of tied keys, re-padded to uniq -c's column; under stitch the
// key is the whole line and a tie keeps one copy.
func TestKeyMergeJoinsTies(t *testing.T) {
	e := env(t, "sort")
	got := evalOK(t, e, uniqCount, "      2 a\n      1 c\n", "      3 a\n      4 b\n")
	if want := "      5 a\n      4 b\n      1 c\n"; got != want {
		t.Errorf("keymerge sort = %q, want %q", got, want)
	}
	rev := env(t, "sort -r")
	got = evalOK(t, rev, uniqCount, "      1 c\n      2 a\n", "      4 b\n      3 a\n")
	if want := "      1 c\n      4 b\n      5 a\n"; got != want {
		t.Errorf("keymerge sort -r = %q, want %q", got, want)
	}
	dedup := KeyMerge{J: Stitch{B: First{}}}
	if got := evalOK(t, e, dedup, "a\nc\n", "a\nb\nc\n"); got != "a\nb\nc\n" {
		t.Errorf("keymerge stitch first = %q", got)
	}
	// Three operands tie at once; their counts fold left.
	got, err := CombineK(e, Candidate{Op: uniqCount}, []string{"      1 x\n", "", "      2 x\n", "      3 x\n      1 y\n"})
	if want := "      6 x\n      1 y\n"; err != nil || got != want {
		t.Errorf("CombineK keymerge = %q, %v; want %q", got, err, want)
	}
}

// TestKeyMergeCountWidth: a tie whose count outgrows uniq -c's %7d
// column prints unpadded, as uniq -c prints an 8-digit count, in either
// operand order; a count past 64 bits still adds exactly.
func TestKeyMergeCountWidth(t *testing.T) {
	e := env(t, "sort")
	for _, ops := range [][2]string{{"9999999 a\n", "      1 a\n"}, {"      1 a\n", "9999999 a\n"}} {
		if got := evalOK(t, e, uniqCount, ops[0], ops[1]); got != "10000000 a\n" {
			t.Errorf("keymerge %q %q = %q, want %q", ops[0], ops[1], got, "10000000 a\n")
		}
	}
	if got := evalOK(t, e, uniqCount, "      3 a\n", "9999996 a\n"); got != "9999999 a\n" {
		t.Errorf("keymerge at the column's last count = %q", got)
	}
	big := "18446744073709551615"
	if got := evalOK(t, e, uniqCount, big+" a\n", "      1 a\n"); got != "18446744073709551616 a\n" {
		t.Errorf("keymerge past 64 bits = %q", got)
	}
}

// TestKeyMergeDomain: an operand lies in L(keymerge J) when its lines
// lie in J's line domain with strictly ascending keys; the merge walk
// reports an unsorted operand as ErrNotSorted, which CombineKTree reads
// as out of domain.
func TestKeyMergeDomain(t *testing.T) {
	e := env(t, "sort")
	for y, want := range map[string]bool{
		"      2 a\n      1 b\n": true,
		"      1 b\n      2 a\n": false, // keys descend
		"      1 a\n      2 a\n": false, // a key repeats
		"      x a\n":            false, // the count is not a number
		"      1 a":              false, // not a stream
		"":                       false,
	} {
		if got := uniqCount.InDomain(e, y); got != want {
			t.Errorf("InDomain(%q) = %v, want %v", y, got, want)
		}
	}
	if _, err := uniqCount.Eval(e, "      1 b\n      2 a\n", "      1 c\n"); !errors.Is(err, ErrNotSorted) {
		t.Errorf("Eval over a descending operand: %v, want ErrNotSorted", err)
	}
	if uniqCount.InDomain(nil, "      1 a\n") {
		t.Error("InDomain without a merge comparator")
	}
}

// TestKeyMergeTieAllocations: the join of a tie adds its counts in a
// uint64 and writes them into the output in place, so a keyed merge of
// two operands whose every key ties makes six allocations at 10 and at
// 1000 lines — prepareK's slice, the cursors, the output, the tie list
// and the two join buffers — with no big.Int and nothing per tie.
func TestKeyMergeTieAllocations(t *testing.T) {
	e := env(t, "sort")
	c := Candidate{Op: uniqCount}
	var allocs []float64
	for _, n := range []int{10, 1000} {
		var b strings.Builder
		for i := range n {
			fmt.Fprintf(&b, "%7d w%05d\n", i+1, i)
		}
		outs := []string{b.String(), b.String()}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := CombineK(e, c, outs); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != 6 || allocs[1] != 6 {
		t.Errorf("keyed merge allocations at 10 and 1000 tied lines: %v, want 6 each", allocs)
	}
}

// TestKeyMergeParse: the keyed merges round-trip through the DSL's
// textual form, flags included, and only over a seam operator.
func TestKeyMergeParse(t *testing.T) {
	for _, c := range KeyMerges(Delims) {
		got, err := ParseCandidate(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCandidate(%q) = %v, %v", c.String(), got, err)
		}
	}
	if c, err := ParseCandidate("(keymerge('-rn') stitch2 ' ' add first a b)"); err != nil || c.Op != uniqCount {
		t.Errorf("ParseCandidate with flags = %v, %v", c, err)
	}
	if _, err := ParseCandidate("keymerge add"); err == nil {
		t.Error("ParseCandidate accepted a keyed merge over add")
	}
}
