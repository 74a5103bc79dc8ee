package unix

import (
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/textio"
)

// lineCountCorpora are the host line corpora plus the shapes a line
// count turns on: the empty input, empty lines, an unterminated last
// line, a lone newline and lines holding the bytes the specs below
// rewrite.
func lineCountCorpora() []string {
	return append([]string{"", "\n", "\n\n\n", "a", "a\n\nb", "a b\n\n a\n", "aaa\nbab\n\nab a", "Light a.b x\n\nlight"},
		hostLineCorpora()...)
}

// lineCountSpecs are line mappers and near misses: the translations,
// substitutions and cuts that declare one line out per line in, and
// those that must not (a squeeze, a newline written or deleted, a
// filter).
var lineCountSpecs = []struct {
	spec                  string
	preserves, terminates bool
}{
	{"tr A-Z a-z", true, false},
	{"tr -d aeiou", false, false},
	{`tr -c 'a-z\n' _`, true, false},
	{`tr ' ' '\n'`, false, false},
	{`tr -d '\n'`, false, false},
	{"tr -s ' '", false, false},
	{"sed 's/a/X/'", true, true},
	{"sed 's/a*/<&>/g'", true, true},
	{`sed 's/\(a\) \(b\)/\2\1/'`, true, true},
	{`sed 's/a/\\n/'`, true, true},
	{`sed 's/a/\n/'`, false, true},
	{`sed 's/a/x\ny/g'`, false, true},
	{"sed 5q", false, false},
	{"cut -c 1-2", true, true},
	{"cut -c 2,4-", true, true},
	{"cut -d ' ' -f 2", true, true},
	{"cut -d ' ' -f 1,3-", true, true},
	{"grep a", false, true},
	{"grep -v a", false, true},
	{"cat", false, false},
}

// TestLineCountDeclarations: every command that declares one line out
// per line in never fails, returns exactly as many lines as it reads (an
// unterminated last line counting as one) and ends in a newline when its
// input does; every command that declares it terminates its lines ends
// its output in one. Each spec declares exactly what the table says.
func TestLineCountDeclarations(t *testing.T) {
	for _, c := range lineCountSpecs {
		cmd := parseCmd(t, c.spec)
		if got := PreservesLines(cmd); got != c.preserves {
			t.Errorf("%s: PreservesLines = %v, want %v", c.spec, got, c.preserves)
		}
		if got := TerminatesLines(cmd); got != c.terminates {
			t.Errorf("%s: TerminatesLines = %v, want %v", c.spec, got, c.terminates)
		}
		for i, in := range lineCountCorpora() {
			out, err := cmd.Run(in)
			if c.preserves && err != nil {
				t.Fatalf("%s corpus %d: %v", c.spec, i, err)
			}
			if c.preserves && (len(textio.Lines(out)) != len(textio.Lines(in)) || textio.IsStream(in) && !textio.IsStream(out)) {
				t.Errorf("%s corpus %d: %d lines in, %d out: %.80q -> %.80q", c.spec, i, len(textio.Lines(in)), len(textio.Lines(out)), in, out)
			}
			if c.terminates && out != "" && !textio.IsStream(out) {
				t.Errorf("%s corpus %d: unterminated output %.80q", c.spec, i, out)
			}
		}
	}
	if !CountsLines(parseCmd(t, "wc -l")) {
		t.Error("wc -l does not count lines")
	}
	for _, spec := range []string{"wc", "wc -w", "wc -c", "wc -l -w", "grep -c a", "cat"} {
		if CountsLines(parseCmd(t, spec)) {
			t.Errorf("%s counts lines only", spec)
		}
	}
}

// TestCountPassMatchesStepwise: a line mapper followed by wc -l runs as
// the counting pass, which writes no line and gives the count and the
// mapper's volume that running the members in turn gives — for mappers
// that write newlines inside a line (sed 's/a/\n/') or split lines (tr
// ' ' '\n'), pass an unterminated tail through (tr) or terminate it, for
// a chain member (as an executor segment holds a fused region), and on
// the empty input.
func TestCountPassMatchesStepwise(t *testing.T) {
	mappers := []string{"tr A-Z a-z", `tr ' ' '\n'`, `sed 's/a/\n/'`, `sed 's/a/\n\n/g'`, "grep a", "cut -c 1-2", "cat",
		"tr A-Z a-z | grep light", `tr ' ' '\n' | grep a | sed 's/a/x\n/'`}
	for _, spec := range mappers {
		mapper := parseCmd(t, spec)
		if !CanStream(mapper) {
			t.Fatalf("%s is not a line mapper", spec)
		}
		chain := NewChain(mapper, parseCmd(t, "wc -l"))
		for i, in := range lineCountCorpora() {
			mid, err := mapper.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := parseCmd(t, "wc -l").Run(mid)
			bytesOut := make([]int64, 2)
			got, err := chain.Stepwise(in, bytesOut)
			if err != nil || got != want || bytesOut[0] != int64(len(mid)) || bytesOut[1] != int64(len(want)) {
				t.Errorf("%s | wc -l corpus %d: %q, %v, volumes %v; want %q, [%d %d]", spec, i, got, err, bytesOut, want, len(mid), len(want))
			}
			if got, err := chain.Run(in); err != nil || got != want {
				t.Errorf("%s | wc -l corpus %d: Run = %q, %v; want %q", spec, i, got, err, want)
			}
		}
	}
}

// TestCountPassWritesNoLine: over 100 000 lines, the counting pass of an
// executor segment's [tr A-Z a-z | grep light, wc -l] allocates a few
// kilobytes — scratch for one line — not the megabytes of the mapper's
// output.
func TestCountPassWritesNoLine(t *testing.T) {
	chain := NewChain(parseCmd(t, "tr A-Z a-z | grep light"), parseCmd(t, "wc -l"))
	in := strings.Repeat("The Light of the sea\nno match here\n", 50_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := chain.Stepwise(in, make([]int64, 2))
	runtime.ReadMemStats(&after)
	if err != nil || out != "50000\n" {
		t.Fatalf("Stepwise = %q, %v", out, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("counting pass allocated %d bytes over %d input bytes", alloc, len(in))
	}
}
