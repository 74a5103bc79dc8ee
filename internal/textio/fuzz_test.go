package textio

import (
	"strings"
	"testing"
)

// FuzzChunkLines checks the one splitter's contract on arbitrary streams
// and degrees: the chunks concatenate back to the input, there are
// max(k, 1) of them, and every cut inside the stream sits just after a
// newline.
func FuzzChunkLines(f *testing.F) {
	for _, c := range chunkLinesEdgeCases {
		f.Add(c.s, c.k)
	}
	f.Fuzz(func(t *testing.T, s string, k int) {
		k %= 300 // the result is k slice headers; keep it small
		chunks := ChunkLines(s, k)
		if want := max(k, 1); len(chunks) != want {
			t.Fatalf("ChunkLines(%q, %d) returned %d chunks, want %d", s, k, len(chunks), want)
		}
		if got := strings.Join(chunks, ""); got != s {
			t.Fatalf("ChunkLines(%q, %d) concatenates to %q", s, k, got)
		}
		off := 0
		for _, c := range chunks {
			off += len(c)
			if off > 0 && off < len(s) && s[off-1] != '\n' {
				t.Fatalf("ChunkLines(%q, %d) cuts mid-line at offset %d", s, k, off)
			}
		}
	})
}
