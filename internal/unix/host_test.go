package unix

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kumquat/internal/textio"
)

// The tests here hold sort, sort -m, uniq, tr and the line kernels (cut,
// grep, sed, tr's line function) and wc to the host's own tools under
// LC_ALL=C, where they are installed: the reference kernels in
// merge_test.go, uniq_test.go and cut_test.go encode what GNU does, and
// this is where that encoding is checked against GNU itself.
//
// Known difference, with its precondition: the line driver terminates
// every line it emits, so sed s/// (whose Run is the line driver) ends
// an unterminated last line with a newline, where GNU sed keeps it
// unterminated. The per-line contract (LineMapper) is the precondition:
// a line mapper emits whole lines, and every pipeline stage reads it so.
// tr's Run keeps the line as GNU does; its line function, which fused
// regions run on terminated lines only, is checked here through the line
// driver too. TestLineKernelsMatchHost holds the two to the host's bytes
// plus that one newline.

// hostTool runs the named host tool with args under LC_ALL=C on stdin and
// returns its output, or skips the test when the tool is not installed.
func hostTool(t *testing.T, name, stdin string, args ...string) string {
	t.Helper()
	path, err := exec.LookPath(name)
	if err != nil {
		t.Skipf("%s is not installed: %v", name, err)
	}
	cmd := exec.Command(path, args...)
	cmd.Env = append(os.Environ(), "LC_ALL=C")
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(name == "grep" && errors.As(err, &exit) && exit.ExitCode() == 1) {
		// grep exits 1 when it selects no line; that is an answer.
		t.Fatalf("%s %q: %v", name, args, err)
	}
	return string(out)
}

// hostCorpora are seeded streams heavy in runs of identical lines, over
// a vocabulary of blanks, tabs, empty lines, numbers and key-equal but
// different lines under -f, -n and -k 2; each twice, terminated and not.
func hostCorpora() []string {
	rng := rand.New(rand.NewSource(33))
	vocab := []string{"", " ", "\t", "a", "A", "b", "a b", "a  b", "a\tb", " a", "b 1 y", "a 1 x",
		"b  z", "a y", "1", "01", "1.0", "-2", "2.5", "10 x", " 3", "\t-1", "x 10", "y 9", "z 10", "-", "ab c"}
	var corpora []string
	for _, size := range []int{40, 400, 4000} {
		var b strings.Builder
		for n := 0; n < size; {
			w := vocab[rng.Intn(len(vocab))]
			for r := 1 + rng.Intn(1+size/20); r > 0 && n < size; r-- {
				b.WriteString(w)
				b.WriteByte('\n')
				n++
			}
		}
		corpora = append(corpora, b.String(), strings.TrimSuffix(b.String(), "\n"))
	}
	return corpora
}

// TestSortMatchesHost: every sortReferenceSpecs ordering sorts each host
// corpus as the host's sort does, and merges the host-sorted pieces of it
// (held in files, the last one unterminated) as the host's sort -m does.
// On the collapse corpora, which take the collapse, sort, sort -r,
// sort -u and tr A-Z a-z | sort give the host's bytes.
func TestSortMatchesHost(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(34))
	for _, spec := range sortReferenceSpecs {
		var flags []string
		for _, f := range strings.Fields(spec)[1:] {
			if f != "-m" {
				flags = append(flags, f)
			}
		}
		s := mergeSort(t, strings.Join(append([]string{"sort"}, flags...), " "))
		m := mergeSort(t, strings.Join(append([]string{"sort", "-m"}, flags...), " "))
		for i, in := range hostCorpora() {
			want := hostTool(t, "sort", in, flags...)
			if got, err := s.Run(in); err != nil || got != want {
				t.Errorf("%s corpus %d: Run = %.200q, %v; host %.200q", s.Spec(), i, got, err, want)
			}
			runs := splitStreams(rng, in)
			files := make([]string, len(runs))
			for j, r := range runs {
				runs[j] = hostTool(t, "sort", r, flags...)
				if j == len(runs)-1 {
					runs[j] = strings.TrimSuffix(runs[j], "\n")
				}
				files[j] = filepath.Join(dir, fmt.Sprintf("run%d", j))
				if err := os.WriteFile(files[j], []byte(runs[j]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want = hostTool(t, "sort", "", append(append([]string{"-m"}, flags...), files...)...)
			if got, sorted := m.MergeStreams(runs...); !sorted || got != want {
				t.Errorf("%s corpus %d: merge = %.200q, %v; host %.200q", m.Spec(), i, got, sorted, want)
			}
		}
	}
	lower := parseCmd(t, "tr A-Z a-z")
	for i, in := range collapseHostCorpora() {
		n := len(textio.Lines(in))
		if _, ok := collapseLines(in, make([]lineRec, n), n/collapseFraction); !ok || n < collapseCutoff {
			t.Fatalf("collapse corpus %d (%d lines) does not collapse", i, n)
		}
		for _, spec := range []string{"sort", "sort -r", "sort -u"} {
			want := hostTool(t, "sort", in, strings.Fields(spec)[1:]...)
			if got, err := mergeSort(t, spec).Run(in); err != nil || got != want {
				t.Errorf("%s collapse corpus %d: Run = %.200q, %v; host %.200q", spec, i, got, err, want)
			}
		}
		want := hostTool(t, "sort", hostTool(t, "tr", in, "A-Z", "a-z"))
		got, err := lower.Run(in)
		if err == nil {
			got, err = mergeSort(t, "sort").Run(got)
		}
		if err != nil || got != want {
			t.Errorf("tr A-Z a-z | sort collapse corpus %d: Run = %.200q, %v; host %.200q", i, got, err, want)
		}
	}
}

// collapseHostCorpora are streams past collapseCutoff lines with few
// distinct lines, so a bytewise sort collapses them: lines of 1–9 bytes
// over upper and lower case and bytes from 0x80 up, with empty lines;
// terminated, and ending in an unterminated short line that also occurs
// earlier.
func collapseHostCorpora() []string {
	rng := rand.New(rand.NewSource(35))
	const alphabet = "aAbBzZ\x80\xc3\xa9\xff-"
	vocab := []string{""}
	for len(vocab) < 300 {
		w := make([]byte, 1+rng.Intn(9))
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		vocab = append(vocab, string(w))
	}
	var b strings.Builder
	for range 2 * collapseCutoff {
		b.WriteString(vocab[rng.Intn(len(vocab))])
		b.WriteByte('\n')
	}
	short := vocab[1]
	for len(short) >= 8 {
		short = short[1:]
	}
	return []string{b.String(), b.String() + short + "\n" + short}
}

// TestSortCountMatchesHost: the chain kernel (SortCmd.countRuns) gives
// the host's `sort | uniq -c` and `sort -r | uniq -c` bytes on the empty
// input, empty lines, an unterminated last line, every host and collapse
// corpus, and input of mostly distinct lines, where the collapse bails
// out and the kernel counts runs of sorted records.
func TestSortCountMatchesHost(t *testing.T) {
	var distinct strings.Builder
	for i := range 3 * collapseCutoff {
		fmt.Fprintf(&distinct, "w%d\n", i%(2*collapseCutoff))
	}
	corpora := append([]string{"", "\n", "\n\n\na\n\n", "b\na\nb", "b\na\nb\n", distinct.String()},
		append(hostCorpora(), collapseHostCorpora()...)...)
	for _, flags := range [][]string{nil, {"-r"}} {
		spec := strings.Join(append([]string{"sort"}, flags...), " ") + " | uniq -c"
		chain := parseCmd(t, spec)
		if ms := Members(chain); !ms[0].(*SortCmd).countsRuns(ms[1]) {
			t.Fatalf("%s does not run as the chain kernel", spec)
		}
		for i, in := range corpora {
			want := hostTool(t, "uniq", hostTool(t, "sort", in, flags...), "-c")
			if got, err := chain.Run(in); err != nil || got != want {
				t.Errorf("%s corpus %d: Run = %.200q, %v; host %.200q", spec, i, got, err, want)
			}
		}
	}
}

// TestUniqMatchesHost: uniq and uniq -c give the host's bytes on every
// host corpus and uniq corpus.
func TestUniqMatchesHost(t *testing.T) {
	for _, args := range [][]string{nil, {"-c"}} {
		u := parseCmd(t, strings.Join(append([]string{"uniq"}, args...), " "))
		for i, in := range append(hostCorpora(), uniqCorpora()...) {
			want := hostTool(t, "uniq", in, args...)
			if got, err := u.Run(in); err != nil || got != want {
				t.Errorf("%s corpus %d: Run = %.200q, %v; host %.200q", u.Spec(), i, got, err, want)
			}
		}
	}
}

// TestTrRepeatMatchesHost: tr's [c*n] repeats, large and octal counts,
// fills and -s membership give the host's bytes, and the specs the host
// rejects fail Parse. It leaves out huge counts under -s and -c with
// -s: GNU tr walks such a set byte by byte and takes minutes.
func TestTrRepeatMatchesHost(t *testing.T) {
	in := "aabbcc\nabc\n\x00zz  a\n"
	for _, args := range [][]string{
		{"a", "[b*100000000]"},
		{"-s", "a", "[b*1000]c"},
		{"-s", "a", "b[c*]"},
		{"[a*300]b", "[x*299]yz"},
		{"[a*0144]b", "[x*100]y"},
		{"a-c", "[x*0]y"},
		{"abcd", "p[x*]yz"},
		{"-s", "ab", "pqr[x*]"},
		{"-c", "a", "[x*2]y"},
		{"-c", "a", "[x*1000000000]y"},
	} {
		spec := hostSpec("tr", args)
		want := hostTool(t, "tr", in, args...)
		if got := run(t, spec, in); got != want {
			t.Errorf("%s: Run = %q; host %q", spec, got, want)
		}
	}
	path, err := exec.LookPath("tr")
	if err != nil {
		t.Skipf("tr is not installed: %v", err)
	}
	for _, args := range [][]string{
		{"a", "[b*99999999999999999999]"},
		{"a", "[b*18446744073709551615]"},
		{"a", "[b*08]"},
		{"a", "[b*18446744073709551613]cd"},
		{"[a*]", "x"},
		{"abc", "[x*][y*]"},
	} {
		cmd := exec.Command(path, args...)
		cmd.Env = append(os.Environ(), "LC_ALL=C")
		cmd.Stdin = strings.NewReader(in)
		hostErr := cmd.Run()
		if _, err := Parse(hostSpec("tr", args), nil); (err == nil) != (hostErr == nil) {
			t.Errorf("%s: Parse error %v; host error %v", hostSpec("tr", args), err, hostErr)
		}
	}
}

// hostSpec quotes a command's arguments into a stage spec.
func hostSpec(name string, args []string) string {
	spec := name
	for _, a := range args {
		spec += " '" + a + "'"
	}
	return spec
}

// hostLineCorpora are hostCorpora plus seeded prose-like lines over
// words in every case of "light", separated by runs of blanks, tabs and
// commas, with empty lines, blank-only lines and lines of one to nine
// fields; twice, terminated and not.
func hostLineCorpora() []string {
	rng := rand.New(rand.NewSource(36))
	words := []string{"light", "Light", "LIGHT", "lighthouse", "dark", "a", "aa", "b", "l1ght", "x9", "", "sea"}
	seps := []string{" ", " ", " ", "  ", "\t", ",", ", "}
	var b strings.Builder
	for i := 0; i < 400; i++ {
		for j, n := 0, rng.Intn(10); j < n; j++ {
			if j > 0 || rng.Intn(8) == 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		if rng.Intn(8) == 0 {
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		b.WriteByte('\n')
	}
	return append(hostCorpora(), b.String(), strings.TrimSuffix(b.String(), "\n"))
}

// TestLineKernelsMatchHost: cut, grep, sed s/// and tr's line function
// give the host's bytes on every host line corpus, and wc its counts:
// cut over single, open, multiple, overlapping and reordered field lists
// and byte lists, on lines without the delimiter and with fewer fields
// than the list names; grep literal, -v, -c, -i and anchored; sed
// literal, with & and \1 splices, and /g where the pattern matches
// empty (GNU's empty-match rule); tr translating, deleting and
// splitting lines. sed and tr's line function differ from the host by
// the known newline on an unterminated last line (see the file comment).
func TestLineKernelsMatchHost(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"cut", []string{"-d", " ", "-f", "1"}},
		{"cut", []string{"-d", " ", "-f", "2-"}},
		{"cut", []string{"-d", " ", "-f", "1-3"}},
		{"cut", []string{"-d", " ", "-f", "1,3"}},
		{"cut", []string{"-d", " ", "-f", "1-2,2-3"}},
		{"cut", []string{"-d", " ", "-f", "3,1"}},
		{"cut", []string{"-d", " ", "-f", "2,4-5,7-"}},
		{"cut", []string{"-d", " ", "-f", "6"}},
		{"cut", []string{"-d", ",", "-f", "2"}},
		{"cut", []string{"-f", "2"}},
		{"cut", []string{"-c", "1-3"}},
		{"cut", []string{"-c", "2,4-"}},
		{"cut", []string{"-c", "5,1-2,2"}},
		{"grep", []string{"light"}},
		{"grep", []string{"-v", "light"}},
		{"grep", []string{"-c", "light"}},
		{"grep", []string{"-vc", "a"}},
		{"grep", []string{"-i", "light"}},
		{"grep", []string{"-vi", "LIGHT"}},
		{"grep", []string{"^a"}},
		{"grep", []string{"b$"}},
		{"grep", []string{"^$"}},
		{"grep", []string{"l.ght"}},
		{"grep", []string{"[0-9]"}},
		{"sed", []string{"s/light/dark/"}},
		{"sed", []string{"s/light/dark/g"}},
		{"sed", []string{"s/light/<&>/"}},
		{"sed", []string{`s/\(l[a-z]*\) \(.\)/\2 \1/`}},
		{"sed", []string{"s/a*/X/g"}},
		{"sed", []string{"s/x*/-/g"}},
		{"sed", []string{"s/ */_/g"}},
		{"sed", []string{"s/[aeiou]*/<&>/g"}},
		{"sed", []string{"s/^/> /"}},
		{"sed", []string{"s/$/ </"}},
		{"sed", []string{"s/light//g"}},
		{"tr", []string{"A-Z", "a-z"}},
		{"tr", []string{"a-z", "A-Z"}},
		{"tr", []string{" ", "\\n"}},
		{"tr", []string{"-d", "aeiou"}},
		{"tr", []string{"-c", "a-z\\n", "_"}},
		{"wc", []string{"-l"}},
		{"wc", []string{"-w"}},
		{"wc", []string{"-c"}},
	}
	for _, c := range cases {
		spec := hostSpec(c.name, c.args)
		cmd := parseCmd(t, spec)
		for i, in := range hostLineCorpora() {
			want := hostTool(t, c.name, in, c.args...)
			var got string
			if lm, ok := AsLineMapper(cmd); ok && c.name == "tr" {
				got = RunLines(lm, in)
			} else {
				var err error
				if got, err = cmd.Run(in); err != nil {
					t.Fatalf("%s corpus %d: %v", spec, i, err)
				}
			}
			if (c.name == "sed" || c.name == "tr") && in != "" && !strings.HasSuffix(in, "\n") {
				want += "\n" // the known difference
			}
			if got != want {
				t.Errorf("%s corpus %d: got %.200q; host %.200q", spec, i, got, want)
			}
		}
	}
}

// TestLineCountChainsMatchHost: the mapper chains in front of wc -l that
// the optimizer prunes, and one it must not prune, give the host's count
// run whole (through the counting pass) and, where the optimizer drops a
// suffix, run without it: on the host line corpora plus chess moves and
// mail addresses, terminated and not.
func TestLineCountChainsMatchHost(t *testing.T) {
	cases := []struct {
		stages []string
		kept   int // the members the optimizer runs before wc -l
	}{
		{[]string{"tr A-Z a-z", "grep light", "sed 's/light/dark/'", "cut -d ' ' -f 1-3", "wc -l"}, 2},
		{[]string{"grep a", "sed 's/a/X/'", "wc -l"}, 1},
		{[]string{"tr A-Z a-z", "grep a", "cut -c 1-4", "wc -l"}, 2},
		{[]string{`grep '\.'`, "cut -d '.' -f 1", "wc -l"}, 1},
		{[]string{`tr ' ' '\n'`, "grep 'x'", "cut -d 'x' -f 1", "wc -l"}, 2},
		{[]string{`tr ' ' '\n'`, "grep 'x'", "cut -d '.' -f 2", "grep -v '[KQRBN]'", "cut -c 1-1", "wc -l"}, 4},
		{[]string{`tr -s ' ' '\n'`, "grep '@'", "cut -d '@' -f 1", "wc -l"}, 2},
		{[]string{"tr A-Z a-z", "cut -c 1-4", "wc -l"}, 2},
		{[]string{"grep a", `sed 's/a/\n/'`, "wc -l"}, 2},
	}
	var games strings.Builder
	moves := []string{"1.", "e4", "e5", "2.", "Nf3", "Nc6", "3.", "Bxc6", "dxc6", "4.", "Qxd8+", "Kxd8", "5.", "exd5", "O-O", "a@b.c", "x@y", "light", "Light"}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 300; i++ {
		for j, n := 0, rng.Intn(8); j < n; j++ {
			if j > 0 {
				games.WriteByte(' ')
			}
			games.WriteString(moves[rng.Intn(len(moves))])
		}
		games.WriteByte('\n')
	}
	corpora := append(hostLineCorpora(), games.String(), strings.TrimSuffix(games.String(), "\n"), "x.y", "1. exd5")
	for _, c := range cases {
		whole := parseCmd(t, strings.Join(c.stages, " | "))
		pruned := NewChain(parseCmd(t, strings.Join(c.stages[:c.kept], " | ")), parseCmd(t, "wc -l"))
		for i, in := range corpora {
			want := in
			for _, spec := range c.stages {
				argv, err := Tokenize(spec)
				if err != nil {
					t.Fatal(err)
				}
				want = hostTool(t, argv[0], want, argv[1:]...)
			}
			if got, err := whole.Run(in); err != nil || got != want {
				t.Errorf("%s corpus %d: Run = %q, %v; host %q", whole.Spec(), i, got, err, want)
			}
			if got, err := pruned.Stepwise(in, make([]int64, 2)); err != nil || got != want {
				t.Errorf("%s corpus %d: pruned to %s = %q, %v; host %q", whole.Spec(), i, pruned.Spec(), got, err, want)
			}
		}
	}
}
