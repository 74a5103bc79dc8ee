package unix_test

import (
	"context"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"kumquat/internal/dataflow"
	"kumquat/internal/unix"
)

// lineMapperCases is the one-contract table: every line-mapper command,
// plus fused chains, with literal expected output. runWant is set only
// where the command's own whole-stream Run legitimately differs from the
// line drivers: tr and cat are byte-stream commands whose Run does not
// terminate an unterminated final line, while the line drivers always do.
var lineMapperCases = []struct {
	specs   []string // one spec: a single command; several: a fused chain
	in      string
	want    string
	runWant string
}{
	// tr: unterminated input, splitting on a translated-to newline, and
	// scratch reuse across a long-then-short rewritten line.
	{specs: []string{"tr a-z A-Z"}, in: "light a\nDARK\n\nmixed Case",
		want: "LIGHT A\nDARK\n\nMIXED CASE\n", runWant: "LIGHT A\nDARK\n\nMIXED CASE"},
	{specs: []string{`tr ' ' '\n'`}, in: "a b  c\n\nd\n", want: "a\nb\n\nc\n\nd\n"},
	{specs: []string{"tr -d aeiou"}, in: "the quick brown fox jumps over\nai\nsky\n",
		want: "th qck brwn fx jmps vr\n\nsky\n"},
	// grep: dropped lines, everything dropped, unterminated input.
	{specs: []string{"grep light"}, in: "light a\ndark\nx light", want: "light a\nx light\n"},
	{specs: []string{"grep -v light"}, in: "light\ndark\n", want: "dark\n"},
	{specs: []string{"grep zzz"}, in: "a\nb\n", want: ""},
	{specs: []string{`sed 's/a/X/'`}, in: "banana\nsky\n", want: "bXnana\nsky\n"},
	{specs: []string{`sed 's/a/X/g'`}, in: "banana\nsky", want: "bXnXnX\nsky\n"},
	{specs: []string{`sed 's/l\(.\)/[\1]/'`}, in: "hello\nworld\n", want: "he[l]o\nwor[d]\n"},
	{specs: []string{"cut -c 2-4"}, in: "abcdef\na\n\nxyz", want: "bcd\n\n\nyz\n"},
	{specs: []string{"cut -c 1,3-4"}, in: "abcdef\nab\n", want: "acd\na\n"},
	{specs: []string{"cut -d ' ' -f 2"}, in: "the quick brown fox\nnodelim\na b\n",
		want: "quick\nnodelim\nb\n"},
	{specs: []string{"cut -d , -f 1,3"}, in: "a,b,c\nx,y\n", want: "a,c\nx\n"},
	{specs: []string{"cat"}, in: "a\n\nb", want: "a\n\nb\n", runWant: "a\n\nb"},
	{specs: []string{"rev"}, in: "abc\n\nlonger line here\nxy\n",
		want: "cba\n\nereh enil regnol\nyx\n"},
	{specs: []string{`awk '{print NF}'`}, in: "a b c\n\nx\n", want: "3\n0\n1\n"},
	{specs: []string{`awk '$1 >= 2 {print $2}'`}, in: "1 a\n2 b\n3 c\n", want: "b\nc\n"},
	{specs: []string{`awk '{$1=$1};1'`}, in: "  a   b  \nc\n", want: "a b\nc\n"},
	{specs: []string{`awk '{print $2, $0}'`}, in: "x y\nlonger line\nz\n",
		want: "y x y\nline longer line\n z\n"},
	// $0 = v replaces the record and re-splits its fields.
	{specs: []string{`awk '{$0=$2; print NF, $1}'`}, in: "a b c\nq\n", want: "1 b\n0 \n"},
	{specs: []string{"fmt -w1"}, in: "a b  c\n\nd\n", want: "a\nb\nc\n\nd\n"},
	{specs: []string{"fmt -w5"}, in: "aa bb cc\ntoolongword x\n",
		want: "aa bb\ncc\ntoolongword\nx\n"},
	{specs: []string{"col -bx"}, in: "a\tb\nab\bc\n\bx\n", want: "a       b\nac\nx\n"},
	{specs: []string{"iconv -f utf-8 -t ascii//translit"}, in: "café\nplain\nnaïve — ok\n日本\n",
		want: "cafe\nplain\nnaive - ok\n??\n"},
	// Fused chains: drops mid-chain, and a splitting tr feeding onward.
	{specs: []string{"tr A-Z a-z", "grep light", `sed 's/light/L/g'`, "cut -d ' ' -f 1,3"},
		in: "Light one LIGHT two\ndark one two\na b light", want: "L L\na L\n"},
	{specs: []string{`tr ' ' '\n'`, "grep a", "rev"}, in: "ab cd ae\nzz\nfa", want: "ba\nea\naf\n"},
}

// TestLineMapperSurfacesAgree: the three surfaces a line-mapper command is
// reached through — its own Run (chained stage by stage for a chain), the
// stream driver behind unix.Exec fed one byte at a time, and a FusedMapper
// over the same command(s) on both drivers — produce the same literal
// bytes, on the table's inputs and on the empty stream.
func TestLineMapperSurfacesAgree(t *testing.T) {
	for _, tc := range lineMapperCases {
		name := strings.Join(tc.specs, " | ")
		var cmds []unix.Command
		var mappers []unix.LineMapper
		for _, spec := range tc.specs {
			cmd, err := unix.Parse(spec, nil)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			lm, ok := unix.AsLineMapper(cmd)
			if !ok {
				t.Fatalf("%q should be a line mapper", spec)
			}
			cmds, mappers = append(cmds, cmd), append(mappers, lm)
		}
		fm := dataflow.NewFusedMapper(tc.specs, mappers)
		for _, c := range []struct{ in, want, runWant string }{
			{tc.in, tc.want, tc.runWant}, {"", "", ""},
		} {
			runWant := c.runWant
			if runWant == "" {
				runWant = c.want
			}
			staged := c.in
			for _, cmd := range cmds {
				var err error
				if staged, err = cmd.Run(staged); err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
			}
			if staged != runWant {
				t.Errorf("%s: Run(%q) = %q, want %q", name, c.in, staged, runWant)
			}
			if got, _ := fm.Run(c.in); got != c.want {
				t.Errorf("%s: fused Run(%q) = %q, want %q", name, c.in, got, c.want)
			}
			streamed := []unix.Command{fm}
			if len(cmds) == 1 {
				streamed = append(streamed, cmds[0])
			}
			for _, cmd := range streamed {
				var out strings.Builder
				r := iotest.OneByteReader(strings.NewReader(c.in))
				if err := unix.Exec(context.Background(), cmd, r, &out); err != nil {
					t.Fatalf("%s: Exec: %v", cmd.Spec(), err)
				}
				if out.String() != c.want {
					t.Errorf("%s: Exec(%q) = %q, want %q", cmd.Spec(), c.in, out.String(), c.want)
				}
			}
		}
	}
}

// TestLineMapperGating: flag combinations that break line-independence
// must not surface as line mappers (nor, therefore, as streamable).
func TestLineMapperGating(t *testing.T) {
	env := unix.DefaultEnv()
	env.FS.Register("f", "x\n")
	for _, spec := range []string{"tr -s ' '", `tr '\n' ' '`, "grep -c light", "sed 5q", "cat f", "wc -l", "sort"} {
		cmd, err := unix.Parse(spec, env)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, ok := unix.AsLineMapper(cmd); ok || unix.CanStream(cmd) {
			t.Errorf("%q must not be a line mapper", spec)
		}
	}
}

// TestRunAllocations pins the chunk driver's allocation profile: Run over
// a 2000-line chunk costs the output builder, the line function and its
// scratch growth — O(1), not a result slice and string per line (sed
// rewrites its ten matching lines in scratch, too).
func TestRunAllocations(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		if i%200 == 0 {
			b.WriteString("a needle line\n")
		}
		b.WriteString("light some words,here dark\n")
	}
	in := b.String()
	for _, spec := range []string{"grep light", "cut -d ' ' -f 2,4", `sed 's/needle/pin/'`} {
		cmd, err := unix.Parse(spec, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := cmd.Run(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("%q: Run allocated %.0f times over 2010 lines, want O(1)", spec, allocs)
		}
	}
}

// TestExecStreamingAllocations pins the reader/writer entry point the way
// TestRunAllocations pins the chunk driver: each stage streamed through
// unix.Exec makes at most one heap allocation per hundred input lines —
// its scratch and buffers, not anything per line — so a regression that
// reintroduces per-line heap traffic fails here.
func TestExecStreamingAllocations(t *testing.T) {
	const lines = 20000
	var b strings.Builder
	for i := 0; i < lines; i++ {
		if i%3 == 0 {
			b.WriteString("The Light shines; some light words, here\n")
		} else {
			b.WriteString("a dark and Stormy night of plain words\n")
		}
	}
	in := b.String()
	ctx := context.Background()
	for _, spec := range []string{"cat", "tr A-Z a-z", "grep light", "cut -c 1-24",
		"cut -d ' ' -f 1", `sed 's/light/dark/'`, "wc -w"} {
		cmd, err := unix.Parse(spec, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := unix.Exec(ctx, cmd, strings.NewReader(in), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if perLine := allocs / lines; perLine > 0.01 {
			t.Errorf("%q: Exec allocated %.4f times per line over %d lines, want <= 0.01", spec, perLine, lines)
		}
	}
}
