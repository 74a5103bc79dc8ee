//kqvet:hotpath

// Package a is the hotalloc fixture: a directive-designated hot package
// with per-iteration allocations in loops, next to the cold shapes that
// must not fire.
package a

import (
	"fmt"
	"strings"
)

// sprintfLoop formats inside the loop.
func sprintfLoop(names []string) []string {
	out := make([]string, 0, len(names))
	for i, n := range names {
		out = append(out, fmt.Sprintf("%d:%s", i, n)) // want `fmt\.Sprintf in hot-path loop`
	}
	return out
}

// concatLoop grows a string with +.
func concatLoop(lines []string) string {
	s := ""
	for _, l := range lines {
		s = s + l + "\n" // want `string \+ concatenation in hot-path loop`
	}
	return s
}

// plusAssignLoop is the += face of the same allocation; a + chain on the
// right of a reported += reports once, not twice.
func plusAssignLoop(lines []string) string {
	var s string
	for _, l := range lines {
		s += l // want `string \+= in hot-path loop`
	}
	for _, l := range lines {
		s += l + "!" // want `string \+= in hot-path loop`
	}
	return s
}

// convLoop round-trips string<->[]byte per iteration.
func convLoop(chunks [][]byte) int {
	n := 0
	for _, c := range chunks {
		s := string(c) // want `string\(\[\]byte\) conversion in hot-path loop`
		b := []byte(s) // want `\[\]byte\(string\) conversion in hot-path loop`
		n += len(b)
	}
	return n
}

// coldShapes allocate outside loops or not at all — no diagnostics.
func coldShapes(a, b string, raw []byte) string {
	joined := a + b // outside a loop: fine
	header := fmt.Sprintf("%s", joined)
	body := string(raw)
	var sb strings.Builder
	for _, r := range body {
		sb.WriteRune(r) // builder writes don't reallocate per iteration
	}
	const prefix = "x" + "y" // constant-folded concat inside nothing
	_ = prefix
	return header + sb.String()
}

// constLoop uses a compile-time constant concat inside a loop — fine.
func constLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		const tag = "a" + "b"
		total += len(tag)
	}
	return total
}
