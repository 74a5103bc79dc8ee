package textio

import (
	"math/rand"
	"strings"
	"testing"
)

// collectFields drains a cursor into a slice (nil for no fields).
func collectFields(f FieldSeq) []string {
	var out []string
	for {
		s, ok := f.Next()
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// fieldAlphabet mixes ASCII words, every ASCII whitespace byte, a Unicode
// space (U+00A0, an IsSpace rune above RuneSelf), and multi-byte letters,
// so the kernel's fast path and its rune-decoding slow path both run.
var fieldAlphabet = []string{
	"a", "bc", "word", "0", "-", " ", "  ", "\t", "\n", "\v", "\f", "\r",
	" ", " ", "é", "東", "λ", ",", ",,",
}

func randLine(r *rand.Rand) string {
	var b strings.Builder
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		b.WriteString(fieldAlphabet[r.Intn(len(fieldAlphabet))])
	}
	return b.String()
}

// TestFieldsMatchesStringsFields: the whitespace cursor must agree with
// strings.Fields on every input, including Unicode whitespace.
func TestFieldsMatchesStringsFields(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		s := randLine(r)
		got := collectFields(Fields(s))
		want := strings.Fields(s)
		if len(got) != len(want) {
			t.Fatalf("Fields(%q) = %q, want %q", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, want %q", s, i, got[i], want[i])
			}
		}
		if n := CountFields(s); n != len(want) {
			t.Fatalf("CountFields(%q) = %d, want %d", s, n, len(want))
		}
	}
}

// TestAppendFieldsReusesCapacity: AppendFields must fill a recycled slice
// with the same fields strings.Fields produces, without allocating once
// capacity suffices.
func TestAppendFieldsReusesCapacity(t *testing.T) {
	lines := []string{"a b c", "  x\t\ty  ", "", "one", "α β γ"}
	buf := make([]string, 0, 8)
	for _, s := range lines {
		buf = AppendFields(buf[:0], s)
		want := strings.Fields(s)
		if len(buf) != len(want) {
			t.Fatalf("AppendFields(%q) = %q, want %q", s, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("AppendFields(%q)[%d] = %q, want %q", s, i, buf[i], want[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendFields(buf[:0], "one two three four")
	})
	if allocs != 0 {
		t.Errorf("AppendFields with capacity: %.1f allocs/op, want 0", allocs)
	}
}

// TestFieldKernelZeroAlloc: the cursor walk and CountFields are the
// per-line hot path of awk/wc -w — they must not touch the heap.
func TestFieldKernelZeroAlloc(t *testing.T) {
	line := "the quick brown fox jumps over the lazy dog"
	var sink int
	if allocs := testing.AllocsPerRun(100, func() {
		fs := Fields(line)
		for {
			f, ok := fs.Next()
			if !ok {
				break
			}
			sink += len(f)
		}
	}); allocs != 0 {
		t.Errorf("Fields iteration: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink += CountFields(line) }); allocs != 0 {
		t.Errorf("CountFields: %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestFieldsZeroCopy: returned fields must alias the line, not copies.
func TestFieldsZeroCopy(t *testing.T) {
	line := "one two three"
	fs := Fields(line)
	f, ok := fs.Next()
	if !ok || f != "one" {
		t.Fatalf("first field = %q, %v", f, ok)
	}
	// A zero-copy substring of line shares its backing; compare the
	// substring expression directly (same start offset ⇒ same pointer).
	if f != line[:3] {
		t.Fatalf("field %q is not the leading substring", f)
	}
}
