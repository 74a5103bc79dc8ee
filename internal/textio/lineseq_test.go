package textio

import (
	"math/rand"
	"strings"
	"testing"
)

// TestScanLinesMatchesLines: LineSeq indexes exactly the lines Lines
// splits, for terminated, unterminated, empty-line and empty inputs.
func TestScanLinesMatchesLines(t *testing.T) {
	cases := []string{
		"", "\n", "a\n", "a", "a\nb\n", "a\nb", "\n\n", "a\n\nb\n",
		"one two\nthree\n", strings.Repeat("x\n", 100),
	}
	for _, s := range cases {
		ls := ScanLines(s)
		want := Lines(s)
		if ls.Len() != len(want) {
			t.Errorf("ScanLines(%q).Len() = %d, want %d", s, ls.Len(), len(want))
			continue
		}
		for i := range want {
			if got := ls.Line(i); got != want[i] {
				t.Errorf("ScanLines(%q).Line(%d) = %q, want %q", s, i, got, want[i])
			}
		}
		if ls.Str() != s {
			t.Errorf("ScanLines(%q).Str() = %q", s, ls.Str())
		}
	}
}

// TestLineSeqChunkMatchesChunkLines: Chunk must agree byte-for-byte with
// the scanning splitter at every k on random streams.
func TestLineSeqChunkMatchesChunkLines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var b strings.Builder
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			b.WriteString(strings.Repeat("w", rng.Intn(8)))
			b.WriteByte('\n')
		}
		if rng.Intn(3) == 0 {
			b.WriteString("tail-no-newline")
		}
		s := b.String()
		ls := ScanLines(s)
		for _, k := range []int{1, 2, 3, 4, 7, 16} {
			got := ls.Chunk(k)
			want := ChunkLines(s, k)
			if len(got) != len(want) {
				t.Fatalf("Chunk(%d) of %q: %d chunks, want %d", k, s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Chunk(%d) of %q: chunk %d = %q, want %q", k, s, i, got[i], want[i])
				}
			}
		}
	}
}
