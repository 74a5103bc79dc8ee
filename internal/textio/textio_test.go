package textio

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"
)

func TestIsStream(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"", false},
		{"\n", true},
		{"a", false},
		{"a\n", true},
		{"a\nb\n", true},
		{"a\nb", false},
	}
	for _, c := range cases {
		if got := IsStream(c.in); got != c.want {
			t.Errorf("IsStream(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEnsureStream(t *testing.T) {
	if got := EnsureStream(""); got != "" {
		t.Errorf("EnsureStream(\"\") = %q", got)
	}
	if got := EnsureStream("a"); got != "a\n" {
		t.Errorf("EnsureStream(\"a\") = %q", got)
	}
	if got := EnsureStream("a\n"); got != "a\n" {
		t.Errorf("EnsureStream(\"a\\n\") = %q", got)
	}
}

func TestLines(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"\n", []string{""}},
		{"a\n", []string{"a"}},
		{"a\nb\n", []string{"a", "b"}},
		{"a\nb", []string{"a", "b"}},
		{"a\n\nb\n", []string{"a", "", "b"}},
	}
	for _, c := range cases {
		got := Lines(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Lines(%q) = %q, want %q", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Lines(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestJoinLinesRoundTrip(t *testing.T) {
	f := func(lines []string) bool {
		for i, l := range lines {
			lines[i] = strings.ReplaceAll(l, "\n", "")
		}
		s := JoinLines(lines)
		back := Lines(s)
		if len(back) != len(lines) {
			return false
		}
		for i := range back {
			if back[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitFirst(t *testing.T) {
	h, tl, ok := SplitFirst(',', "a,b,c")
	if !ok || h != "a" || tl != "b,c" {
		t.Errorf("SplitFirst = %q %q %v", h, tl, ok)
	}
	h, tl, ok = SplitFirst(',', "abc")
	if ok || h != "abc" || tl != "" {
		t.Errorf("SplitFirst no-delim = %q %q %v", h, tl, ok)
	}
	h, tl, ok = SplitFirst(',', ",x")
	if !ok || h != "" || tl != "x" {
		t.Errorf("SplitFirst leading = %q %q %v", h, tl, ok)
	}
}

func TestSplitLast(t *testing.T) {
	init, last, ok := SplitLast(',', "a,b,c")
	if !ok || init != "a,b" || last != "c" {
		t.Errorf("SplitLast = %q %q %v", init, last, ok)
	}
	init, last, ok = SplitLast(',', "abc")
	if ok || last != "abc" || init != "" {
		t.Errorf("SplitLast no-delim = %q %q %v", init, last, ok)
	}
}

func TestSplitFirstLine(t *testing.T) {
	l, rest, ok := SplitFirstLine("a\nb\nc\n")
	if !ok || l != "a" || rest != "b\nc\n" {
		t.Errorf("SplitFirstLine = %q %q %v", l, rest, ok)
	}
	l, rest, ok = SplitFirstLine("a\n")
	if !ok || l != "a" || rest != "" {
		t.Errorf("SplitFirstLine single = %q %q %v", l, rest, ok)
	}
	_, _, ok = SplitFirstLine("a")
	if ok {
		t.Error("SplitFirstLine on non-stream should fail")
	}
}

func TestSplitLastLine(t *testing.T) {
	rest, l, ok := SplitLastLine("a\nb\nc\n")
	if !ok || rest != "a\nb\n" || l != "c" {
		t.Errorf("SplitLastLine = %q %q %v", rest, l, ok)
	}
	rest, l, ok = SplitLastLine("c\n")
	if !ok || rest != "" || l != "c" {
		t.Errorf("SplitLastLine single = %q %q %v", rest, l, ok)
	}
	_, _, ok = SplitLastLine("c")
	if ok {
		t.Error("SplitLastLine on non-stream should fail")
	}
	rest, l, ok = SplitLastLine("\n")
	if !ok || rest != "" || l != "" {
		t.Errorf("SplitLastLine newline = %q %q %v", rest, l, ok)
	}
}

func TestSplitLastLineReassembly(t *testing.T) {
	// rest ++ line ++ "\n" must reconstruct the stream.
	f := func(raw []string) bool {
		var lines []string
		for _, l := range raw {
			lines = append(lines, strings.ReplaceAll(l, "\n", ""))
		}
		if len(lines) == 0 {
			return true
		}
		y := JoinLines(lines)
		rest, l, ok := SplitLastLine(y)
		return ok && rest+l+"\n" == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitLastNonemptyLine(t *testing.T) {
	l, ok := SplitLastNonemptyLine("a\nb\n\n\n")
	if !ok || l != "b" {
		t.Errorf("SplitLastNonemptyLine = %q %v", l, ok)
	}
	_, ok = SplitLastNonemptyLine("\n\n")
	if ok {
		t.Error("all-empty stream should have no nonempty line")
	}
	l, ok = SplitLastNonemptyLine("only\n")
	if !ok || l != "only" {
		t.Errorf("SplitLastNonemptyLine single = %q %v", l, ok)
	}
}

func TestDelPadAddPad(t *testing.T) {
	p, rest := DelPad("    5 word")
	if p.Kind != PadSpaces || p.Count != 4 || rest != "5 word" {
		t.Errorf("DelPad spaces = %+v %q", p, rest)
	}
	p, rest = DelPad("\t5 word")
	if p.Kind != PadTab || rest != "5 word" {
		t.Errorf("DelPad tab = %+v %q", p, rest)
	}
	p, rest = DelPad("5 word")
	if p.Kind != PadNone || rest != "5 word" {
		t.Errorf("DelPad none = %+v %q", p, rest)
	}
}

func TestFieldPadAlignment(t *testing.T) {
	// GNU uniq -c emits "%7d " style lines: "      5 word".
	p, head, tail, ok := FieldPad(' ', "      5 word")
	if !ok || head != "5" || tail != "word" {
		t.Fatalf("FieldPad = %q %q %v", head, tail, ok)
	}
	// Re-padding a wider combined count keeps the 7-column alignment.
	if got := AddPad(p, "12"); got != "     12" {
		t.Errorf("AddPad(12) = %q", got)
	}
	if got := AddPad(p, "1234567890"); got != "1234567890" {
		t.Errorf("AddPad overflow = %q", got)
	}
	// Tab padding is restored verbatim.
	p2, _, _, ok := FieldPad(' ', "\t9 x y")
	if !ok {
		t.Fatal("FieldPad tab failed")
	}
	if got := AddPad(p2, "11"); got != "\t11" {
		t.Errorf("AddPad tab = %q", got)
	}
	// No padding stays unpadded.
	p3, _, _, _ := FieldPad(' ', "9 x")
	if got := AddPad(p3, "11"); got != "11" {
		t.Errorf("AddPad none = %q", got)
	}
}

func TestChunkLinesConcatInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		var b strings.Builder
		for i := 0; i < n; i++ {
			for j := rng.Intn(30); j > 0; j-- {
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
			b.WriteByte('\n')
		}
		s := b.String()
		k := 1 + rng.Intn(20)
		chunks := ChunkLines(s, k)
		if k > 1 && len(chunks) != k {
			t.Fatalf("ChunkLines returned %d chunks, want %d", len(chunks), k)
		}
		if got := strings.Join(chunks, ""); got != s {
			t.Fatalf("concat of chunks != original (n=%d k=%d)", n, k)
		}
		for i, c := range chunks {
			if c != "" && !IsStream(c) {
				t.Fatalf("chunk %d is not a stream: %q", i, c)
			}
		}
	}
}

// chunkLinesEdgeCases is the splitter's boundary table; it also seeds
// FuzzChunkLines.
var chunkLinesEdgeCases = []struct {
	name string
	s    string
	k    int
	want []string
}{
	{"empty", "", 4, []string{"", "", "", ""}},
	{"empty k=1", "", 1, []string{""}},
	{"no newline at all", "one line no terminator", 3, []string{"one line no terminator", "", ""}},
	{"lone newline", "\n", 2, []string{"\n", ""}},
	{"no trailing newline", "alpha\nbeta\ngamma", 3, []string{"alpha\n", "beta\ngamma", ""}},
	{"unterminated tail stays whole", "a\nb\ntail", 2, []string{"a\nb\ntail", ""}},
	{"unterminated tail after a cut", "a\nb\nc\nd\ntail", 2, []string{"a\nb\nc\nd\n", "tail"}},
	{"fewer lines than k", "B\na\n", 5, []string{"B\n", "a\n", "", "", ""}},
	{"k=1", "a\nb\n", 1, []string{"a\nb\n"}},
	{"k=0", "a\nb\n", 0, []string{"a\nb\n"}},
	{"k<0", "a\nb\n", -3, []string{"a\nb\n"}},
	{"cut is the first boundary at or after the target", "a\nb\nc\nd\n", 2, []string{"a\nb\nc\n", "d\n"}},
	{"one line spans several targets", "0123456789abcdef\nx\n", 4, []string{"0123456789abcdef\n", "x\n", "", ""}},
	{"target lands inside the last line", "x\n0123456789abcdef\n", 4, []string{"x\n0123456789abcdef\n", "", "", ""}},
}

// TestChunkLinesEdges pins the splitter's boundary cases as literal
// chunk lists: len(result) == max(k, 1), concatenation round-trips, every
// cut sits just after a newline, and the chunks alias the input.
func TestChunkLinesEdges(t *testing.T) {
	for _, c := range chunkLinesEdgeCases {
		got := ChunkLines(c.s, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ChunkLines(%q, %d) = %q, want %q", c.name, c.s, c.k, got, c.want)
		}
	}

	// Views, not copies: every nonempty chunk starts where the previous
	// one ended inside s's own backing array.
	s := strings.Repeat("line of words\n", 50) + "tail"
	off := 0
	for i, c := range ChunkLines(s, 8) {
		if c != "" && unsafe.StringData(c) != unsafe.StringData(s[off:]) {
			t.Errorf("chunk %d does not alias the input at offset %d", i, off)
		}
		off += len(c)
	}
	if off != len(s) {
		t.Errorf("chunks cover %d of %d bytes", off, len(s))
	}
}

func TestChunkLinesBalance(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		b.WriteString("0123456789\n")
	}
	chunks := ChunkLines(b.String(), 4)
	for i, c := range chunks {
		if len(c) < 2000 || len(c) > 3500 {
			t.Errorf("chunk %d badly balanced: %d bytes", i, len(c))
		}
	}
}

// TestView pins the no-copy string view helper.
func TestView(t *testing.T) {
	if got := View(nil); got != "" {
		t.Errorf("View(nil) = %q", got)
	}
	b := []byte("hello\n")
	if got := View(b); got != "hello\n" {
		t.Errorf("View = %q", got)
	}
	if got := View(b[:0]); got != "" {
		t.Errorf("View(empty) = %q", got)
	}
}

func TestCountByte(t *testing.T) {
	if CountByte(',', "a,b,,c") != 3 {
		t.Error("CountByte failed")
	}
	if CountByte('\n', "") != 0 {
		t.Error("CountByte empty failed")
	}
}

func TestAllDigits(t *testing.T) {
	if !AllDigits("0123456789") || AllDigits("") || AllDigits("12a") || AllDigits("-1") {
		t.Error("AllDigits misclassified")
	}
}

// TestReadAllSizeHint: ReadAll returns exactly the stream whatever the
// declared size — exact, short, long or unknown — sizes its buffer from
// the hint, and passes a reader's error through with what arrived.
func TestReadAllSizeHint(t *testing.T) {
	data := strings.Repeat("light word here\n", 1000)
	for _, size := range []int{0, -1, 1, 100, len(data), len(data) + 7} {
		got, err := ReadAll(iotest.HalfReader(strings.NewReader(data)), size)
		if err != nil || string(got) != data {
			t.Errorf("size %d: read %d bytes, %v", size, len(got), err)
		}
		if size == len(data) && cap(got) != len(data)+1 {
			t.Errorf("exact size: buffer grew to cap %d", cap(got))
		}
	}
	boom := errors.New("boom")
	got, err := ReadAll(io.MultiReader(strings.NewReader("ab\n"), iotest.ErrReader(boom)), 10)
	if !errors.Is(err, boom) || string(got) != "ab\n" {
		t.Errorf("failing reader: %q, %v", got, err)
	}
}
