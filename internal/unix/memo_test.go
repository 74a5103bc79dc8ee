package unix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kumquat/internal/textio"
)

// TestRerun: an Env hands out no memo on the first run of a script, and
// its one memo on every later run of a script it has run before.
func TestRerun(t *testing.T) {
	env := DefaultEnv()
	if env.Rerun("a") != nil || env.Rerun("b") != nil {
		t.Fatal("a first run of a script got a memo")
	}
	m := env.Rerun("a")
	if m == nil {
		t.Fatal("the second run of a script got no memo")
	}
	if env.Rerun("b") != m || env.Rerun("a") != m {
		t.Fatal("re-runs of one Env got different memos")
	}
	if env.Rerun("c") != nil {
		t.Fatal("a first run of a script got a memo once the Env had one")
	}
}

// readsEnvCases are a representative spec of every builtin, file
// operands included, and whether it reads or writes the Env's files.
var readsEnvCases = []struct {
	spec string
	want bool
}{
	{"cat f000.txt", true},
	{"cat", false},
	{"cat -", false},
	{"comm -23 - dict.sorted", true},
	{"paste - f000.txt", true},
	{"paste - -", false},
	{"diff f000.txt f001.txt", true},
	{"diff - f001.txt", true},
	{"diff - -", false},
	{"xargs cat", true},
	{"file", true},
	{"ls", true},
	{"rm f000.txt", true},
	{"mkfifo p", false},
	{"tr A-Z a-z", false},
	{"sort", false},
	{"uniq -c", false},
	{"grep a", false},
	{"wc -l", false},
	{"cut -c 1-4", false},
	{"sed 's/a/b/'", false},
	{"awk '{print $1}'", false},
	{"head -n 1", false},
	{"tail -n 1", false},
	{"bigrams_aux", false},
	{"fmt", false},
	{"rev", false},
	{"col -b", false},
	{"iconv -f utf-8 -t ascii", false},
	{"sort | uniq -c", false},
	{"tr A-Z a-z | comm -23 - dict.sorted", true},
}

// TestReadsEnvDeclarations covers every builtin: ReadsEnv answers for
// its representative spec, and for every chain that has it as a member,
// at any depth.
func TestReadsEnvDeclarations(t *testing.T) {
	env := DefaultEnv()
	covered := map[string]bool{}
	for _, tc := range readsEnvCases {
		cmd, err := Parse(tc.spec, env)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := ReadsEnv(cmd); got != tc.want {
			t.Errorf("ReadsEnv(%s) = %v, want %v", tc.spec, got, tc.want)
		}
		if got := ReadsEnv(NewChain(NewChain(cmd, cmd), cmd)); got != tc.want {
			t.Errorf("ReadsEnv of a nested chain of %s = %v, want %v", tc.spec, got, tc.want)
		}
		for _, m := range Members(cmd) {
			covered[strings.Fields(m.Spec())[0]] = true
		}
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("builtin %q has no row", name)
		}
	}
}

// TestEnvHoldersReadEnv: a command that holds a non-nil *Env or *FS
// after parsing is ReadsEnv, so a command that can reach the Env's files
// is never memoized or disk-cached unless it declares that it does not
// hold them. Every builtin is parsed, file operands included.
func TestEnvHoldersReadEnv(t *testing.T) {
	env := DefaultEnv()
	held := []reflect.Type{reflect.TypeOf(env), reflect.TypeOf(env.FS)}
	for _, tc := range readsEnvCases {
		cmd, err := Parse(tc.spec, env)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		for _, m := range Members(cmd) {
			v := reflect.ValueOf(m).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if slices.Contains(held, f.Type()) && !f.IsNil() && !ReadsEnv(m) {
					t.Errorf("%s holds a %s but is not ReadsEnv", m.Spec(), f.Type())
				}
			}
		}
	}
}

// memoHeld checks the memo's accounting: each generation's count is the
// sum of its entries, the memo's is the sum of its generations', and it
// is within MemoBytes.
func memoHeld(t *testing.T, m *Memo) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var held int64
	for script, g := range m.gens {
		var sum int64
		for _, e := range g.entries {
			sum += entrySize(e.in, e.out, e.bytesOut)
		}
		if sum != g.bytes {
			t.Fatalf("%s: generation counts %d bytes, its entries hold %d", script, g.bytes, sum)
		}
		held += g.bytes
	}
	if held != m.bytes || held > MemoBytes {
		t.Fatalf("memo counts %d bytes, its generations hold %d, the bound is %d", m.bytes, held, MemoBytes)
	}
}

// TestMemoByteBound: under a stream of distinct chunks — many scripts,
// then one run larger than the bound on its own — the memo never holds
// more than MemoBytes, evicts the least recently stored script first,
// keeps a too-large run's leading chunks, and answers what it kept.
func TestMemoByteBound(t *testing.T) {
	const chunk = 1 << 20
	buf := make([]byte, chunk+128)
	rand.New(rand.NewSource(1)).Read(buf)
	data := string(buf)
	// window(i) is a distinct 1 MiB chunk; the windows share data.
	window := func(i int) string { return data[i : i+chunk] }
	env := DefaultEnv()
	env.Rerun("x")
	m := env.Rerun("x")

	run := func(script string, chunks []string) *MemoRun {
		r := m.Begin(script, len(chunks))
		outs := make([]string, len(chunks))
		vols := make([][]int64, len(chunks))
		for i, c := range chunks {
			if _, _, ok := r.Lookup(i, c); ok {
				t.Fatalf("%s: a chunk never stored hit", script)
			}
			outs[i], vols[i] = fmt.Sprint(i), []int64{int64(i)}
		}
		r.Commit(chunks, outs, vols)
		memoHeld(t, m)
		return r
	}
	const scripts = 40
	for s := 0; s < scripts; s++ {
		run(fmt.Sprint("script", s), []string{window(2 * s), window(2*s + 1)})
	}
	m.mu.Lock()
	_, first := m.gens["script0"]
	_, last := m.gens[fmt.Sprint("script", scripts-1)]
	m.mu.Unlock()
	if first || !last {
		t.Fatalf("after %d scripts: oldest kept %v, newest kept %v; want the oldest evicted and the newest kept", scripts, first, last)
	}
	r := m.Begin(fmt.Sprint("script", scripts-1), 2)
	if out, vols, ok := r.Lookup(1, window(2*scripts-1)); !ok || out != "1" || !slices.Equal(vols, []int64{1}) {
		t.Fatalf("the newest script's chunk: %q %v %v", out, vols, ok)
	}

	big := make([]string, 80)
	for i := range big {
		big[i] = window(i)
	}
	run("big", big)
	r = m.Begin("big", len(big))
	if _, _, ok := r.Lookup(0, big[0]); !ok {
		t.Fatal("a run larger than the bound kept no leading chunk")
	}
	if _, _, ok := r.Lookup(79, big[79]); ok {
		t.Fatal("a run larger than the bound kept its last chunk")
	}
}

// TestMemoHitIsByteExact: a chunk hits only where the generation holds
// the same bytes at the same position — one byte off at the same length
// misses — and an entry keeps its own copies of its caller's chunk and
// output.
func TestMemoHitIsByteExact(t *testing.T) {
	env := DefaultEnv()
	env.Rerun("x")
	m := env.Rerun("x")
	in := []byte("alpha\nbeta\n")
	out := []byte("2\n")
	r := m.Begin("s", 2)
	r.Commit([]string{"zeta\n", textio.View(in)}, []string{"1\n", textio.View(out)}, [][]int64{{1}, {2}})
	in[0], out[0] = 'X', 'X'

	for _, tc := range []struct {
		i     int
		chunk string
		hit   bool
	}{
		{1, "alpha\nbeta\n", true},
		{1, "alpha\nbetA\n", false},
		{1, "alpha\nbeta", false},
		{0, "alpha\nbeta\n", false},
		{2, "alpha\nbeta\n", false},
	} {
		r := m.Begin("s", 3)
		got, vols, ok := r.Lookup(tc.i, tc.chunk)
		if ok != tc.hit || ok && (got != "2\n" || !slices.Equal(vols, []int64{2})) {
			t.Errorf("Lookup(%d, %q) = %q %v %v, want hit %v with the stored output", tc.i, tc.chunk, got, vols, ok, tc.hit)
		}
	}
}
