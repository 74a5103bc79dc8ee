package unix_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"kumquat/internal/pipeline"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

// lineMapperCases is the one-contract table: every line-mapper command,
// plus fused chains, with literal expected output — the command's own
// Run, stage by stage for a chain. tr and cat work on bytes, so their Run
// leaves an unterminated last line unterminated; the others terminate it.
var lineMapperCases = []struct {
	specs []string // one spec: a single command; several: a fused chain
	in    string
	want  string
}{
	// tr: unterminated input, splitting on a translated-to newline, and
	// scratch reuse across a long-then-short rewritten line.
	{specs: []string{"tr a-z A-Z"}, in: "light a\nDARK\n\nmixed Case",
		want: "LIGHT A\nDARK\n\nMIXED CASE"},
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
	{specs: []string{"cat"}, in: "a\n\nb", want: "a\n\nb"},
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
// block loop behind unix.Exec fed one byte at a time, and a unix.Chain
// over the same command(s) through Run and Exec — produce the same literal
// bytes, on the table's inputs and on the empty stream.
func TestLineMapperSurfacesAgree(t *testing.T) {
	for _, tc := range lineMapperCases {
		name := strings.Join(tc.specs, " | ")
		var cmds []unix.Command
		for _, spec := range tc.specs {
			cmd, err := unix.Parse(spec, nil)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			if !unix.CanStream(cmd) {
				t.Fatalf("%q should be a line mapper", spec)
			}
			cmds = append(cmds, cmd)
		}
		fm := unix.NewChain(cmds...)
		for _, c := range []struct{ in, want string }{{tc.in, tc.want}, {"", ""}} {
			staged := c.in
			for _, cmd := range cmds {
				var err error
				if staged, err = cmd.Run(staged); err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
			}
			if staged != c.want {
				t.Errorf("%s: Run(%q) = %q, want %q", name, c.in, staged, c.want)
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

// awkFields maps the script grammar's $0..$9 to themselves, so an awk
// program's fields survive variable expansion.
var awkFields = map[string]string{"0": "$0", "1": "$1", "2": "$2", "3": "$3"}

// TestLineMapperModesAgree: every execution configuration of a
// line-mapper pipeline prints its stage-by-stage Run — the serial run —
// byte for byte, unterminated last lines included: each single-command
// row of lineMapperCases, and a fusable two-stage chain, over a file, an
// in-memory stdin and an external stdin, in every mode, with fusion on
// and off.
func TestLineMapperModesAgree(t *testing.T) {
	syn := synth.New(unix.DefaultEnv(), synth.Options{Seed: 1})
	chains := [][]string{{"tr a-z A-Z", "tr A-Z a-z"}}
	inputs := []string{"light a\nDARK\n\nmixed Case"}
	for _, tc := range lineMapperCases {
		if len(tc.specs) == 1 {
			chains, inputs = append(chains, tc.specs), append(inputs, tc.in)
		}
	}
	type config struct {
		mode pipeline.Mode
		k    int
		fuse bool
	}
	configs := []config{
		{pipeline.ModeSerial, 1, true}, {pipeline.ModeUnoptimized, 4, true},
		{pipeline.ModeOptimized, 4, true}, {pipeline.ModeOptimized, 4, false},
		{pipeline.ModePipelined, 4, true},
	}
	for i, specs := range chains {
		in, want := inputs[i], inputs[i]
		for _, spec := range specs {
			cmd, err := unix.Parse(spec, nil)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			if want, err = cmd.Run(want); err != nil {
				t.Fatalf("%s: Run: %v", spec, err)
			}
		}
		stages := strings.Join(specs, " | ") + "\n"
		syn.Env.FS.Register("in.txt", in)
		for _, src := range []struct {
			name   string
			script string
			stdin  func() io.Reader
		}{
			{"file", "cat in.txt | " + stages, func() io.Reader { return nil }},
			{"in-memory stdin", stages, func() io.Reader { return strings.NewReader(in) }},
			{"external stdin", stages, func() io.Reader { return struct{ io.Reader }{strings.NewReader(in)} }},
		} {
			parsed, err := pipeline.ParseScript(src.script, awkFields)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pipeline.CompileContext(context.Background(), parsed.Pipelines[0], syn)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range configs {
				var out strings.Builder
				_, err := plan.Execute(context.Background(), syn.Env, src.stdin(), &out, c.mode, c.k, pipeline.WithFuse(c.fuse))
				if err != nil {
					t.Fatalf("%s over %s, %v k=%d fuse=%v: %v", stages, src.name, c.mode, c.k, c.fuse, err)
				}
				if out.String() != want || plan.Stages[len(plan.Stages)-1].Spec != specs[len(specs)-1] {
					t.Errorf("%q over %s, %v k=%d fuse=%v: printed %q, serial Run %q",
						plan.Stages[len(plan.Stages)-1].Spec, src.name, c.mode, c.k, c.fuse, out.String(), want)
				}
			}
		}
	}
}

// recordingWriter keeps a copy of every Write it receives.
type recordingWriter struct{ writes [][]byte }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestExecAcrossBatchBoundary streams a line mapper and a fused chain
// over more than unix.BlockSize — short lines, a 40 KiB line across the
// first block's end, and an unterminated last line — and checks that
// Exec wrote block by block and that its writes concatenate to Run.
func TestExecAcrossBatchBoundary(t *testing.T) {
	var b strings.Builder
	for i := 0; b.Len() < 40*1024; i++ {
		fmt.Fprintf(&b, "Light line %d of the first stretch\n", i)
	}
	b.WriteString(strings.Repeat("a long LIGHT line ", 40*1024/18))
	b.WriteByte('\n')
	for i := 0; b.Len() < 120*1024; i++ {
		fmt.Fprintf(&b, "dark line %d, light %d\n", i, i%7)
	}
	b.WriteString("unterminated light tail")
	in := b.String()

	sed, err := unix.Parse(`sed 's/ight/IGHT/g'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := unix.Parse(`tr A-Z a-z | grep light | sed 's/light/L/g'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []unix.Command{sed, chain} {
		want, err := cmd.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		var w recordingWriter
		if err := unix.Exec(context.Background(), cmd, strings.NewReader(in), &w); err != nil {
			t.Fatalf("%s: Exec: %v", cmd.Spec(), err)
		}
		if got := string(bytes.Join(w.writes, nil)); got != want {
			t.Errorf("%s: Exec wrote %d bytes that differ from Run's %d", cmd.Spec(), len(got), len(want))
		}
		if len(w.writes) < 2 {
			t.Errorf("%s: Exec made %d writes over %d bytes, want more than one", cmd.Spec(), len(w.writes), len(in))
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

// TestRunAllocations pins the line driver's allocation profile: Run over
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

// BenchmarkLineKernels times the line driver over each line kernel of
// the line-mapper chain `tr A-Z a-z | grep light | sed 's/light/dark/' |
// cut -d ' ' -f 1-3`, each on the input its stage sees in that chain,
// and the chain fused into one pass. The text is 1 MB of prose-like
// lines: 4–11 words drawn Zipf-distributed from a vocabulary that opens
// with common words ("light" lands on about four lines in ten), one word
// in twelve capitalized, occasional commas, a period at each line end.
func BenchmarkLineKernels(b *testing.B) {
	words := []string{"the", "light", "of", "and", "sea", "wind", "stone", "dark", "river",
		"night", "ship", "king", "gold", "dream", "land", "said", "he", "word"}
	for _, c := range "bcdfghjklmnprstvw" {
		for _, v := range "aeiou" {
			words = append(words, string(c)+string(v)+"ra")
		}
	}
	rng := rand.New(rand.NewSource(36))
	zipf := rand.NewZipf(rng, 1.07, 1, uint64(len(words)-1))
	var text []byte
	for len(text) < 1<<20 {
		for j, n := 0, 4+rng.Intn(8); j < n; j++ {
			if j > 0 {
				text = append(text, ' ')
			}
			w := words[zipf.Uint64()]
			if rng.Intn(12) == 0 {
				text = append(text, w[0]-'a'+'A')
				w = w[1:]
			}
			text = append(text, w...)
			if rng.Intn(9) == 0 {
				text = append(text, ',')
			}
		}
		text = append(text, '.', '\n')
	}
	specs := []string{"tr A-Z a-z", "grep light", `sed 's/light/dark/'`, "cut -d ' ' -f 1-3"}
	names := []string{"tr-lower", "grep-literal", "sed-literal", "cut-f1-3"}
	in := string(text)
	var cmds []unix.Command
	for i, spec := range specs {
		cmd, err := unix.Parse(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		lm, ok := unix.AsLineMapper(cmd)
		if !ok {
			b.Fatalf("%s is not a line mapper", spec)
		}
		cmds = append(cmds, cmd)
		stageIn := in
		b.Run(names[i], func(b *testing.B) { benchLines(b, lm, stageIn) })
		in = unix.RunLines(lm, in)
	}
	fused := unix.NewChain(cmds...)
	b.Run("fused-chain", func(b *testing.B) { benchLines(b, fused, string(text)) })
}

// benchLines times RunLines of lm over input, in input bytes per second.
func benchLines(b *testing.B, lm unix.LineMapper, input string) {
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	for b.Loop() {
		unix.RunLines(lm, input)
	}
}
