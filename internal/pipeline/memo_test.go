package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// memoOf sums the segment-memo figures of a run's stages.
func memoOf(ms []StageMetrics) MemoMetrics {
	var m MemoMetrics
	for _, st := range ms {
		m.MemoHits += st.MemoHits
		m.MemoMisses += st.MemoMisses
		m.ReusedBytes += st.ReusedBytes
	}
	return m
}

// memoRun executes plan over data registered as in.txt in env, checks
// the output against the reference, and returns the run's memo figures.
func memoRun(t *testing.T, plan *Plan, env *unix.Env, data string, k int, opts ...ExecOpt) MemoMetrics {
	t.Helper()
	return memoOf(memoStages(t, plan, env, data, k, opts...))
}

// memoStages is memoRun returning the run's stage metrics.
func memoStages(t *testing.T, plan *Plan, env *unix.Env, data string, k int, opts ...ExecOpt) []StageMetrics {
	t.Helper()
	env.FS.Register("in.txt", data)
	var out strings.Builder
	ms, err := plan.Execute(context.Background(), env, nil, &out, ModeOptimized, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != reference(t, plan, data) {
		t.Fatal("output diverges from the reference")
	}
	return ms
}

// volumes is what a run reports of each stage's stream: its volumes and
// chunk count.
func volumes(ms []StageMetrics) [][3]int64 {
	v := make([][3]int64, len(ms))
	for i, st := range ms {
		v[i] = [3]int64{st.BytesIn, st.BytesOut, int64(st.Chunks)}
	}
	return v
}

// TestMemoReusesUnchangedChunks is the mutated-chunk test: a re-run cut
// at strides misses every chunk on its first re-run and hits every one
// on the next; one flipped byte in a middle stride makes only that chunk
// miss; a stream grown at its end makes only its last chunk miss (and
// any chunk the growth adds). Every output is the reference's.
func TestMemoReusesUnchangedChunks(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | sort | uniq -c\n")
	env := unix.DefaultEnv()
	input := bookInput(110_000)
	n := len(textio.StrideLines(input, Stride))
	if n < 3 {
		t.Fatalf("the input cuts into %d strides, want at least 3", n)
	}
	if m := memoRun(t, plan, env, input, 2); m != (MemoMetrics{}) {
		t.Fatalf("the Env's first run consulted the memo: %+v", m)
	}
	if m := memoRun(t, plan, env, input, 2); m.MemoHits != 0 || m.MemoMisses != n {
		t.Fatalf("first re-run: %+v, want %d misses", m, n)
	}
	if m := memoRun(t, plan, env, input, 2); m.MemoHits != n || m.MemoMisses != 0 || m.ReusedBytes != int64(len(input)) {
		t.Fatalf("second re-run: %+v, want all %d chunks (%d bytes) reused", m, n, len(input))
	}

	b := []byte(input)
	at := Stride + Stride/2
	for b[at] < 'a' || b[at] > 'y' {
		at++
	}
	b[at]++
	mutated := string(b)
	if m := memoRun(t, plan, env, mutated, 2); m.MemoHits != n-1 || m.MemoMisses != 1 {
		t.Fatalf("one byte flipped in the second stride: %+v, want %d hits and 1 miss", m, n-1)
	}

	grown := mutated + bookInput(40)
	if m := memoRun(t, plan, env, grown, 2); m.MemoHits != n-1 || m.MemoMisses != len(textio.StrideLines(grown, Stride))-(n-1) {
		t.Fatalf("the stream grown at its end: %+v, want all %d chunks but the last reused", m, n-1)
	}
}

// TestMemoFollowsReregisteredFile: a segment with a member that reads
// the Env's files never goes through the memo, so once the file is
// registered again the output follows its new contents, while the
// segment behind it is answered from the memo.
func TestMemoFollowsReregisteredFile(t *testing.T) {
	syn := newSynth()
	env := syn.Env
	env.FS.Register("dict.txt", "w0001\n")
	plan := compilePlan(t, syn, "cat in.txt | comm -23 - dict.txt | head -n 1000 | cut -c 1-2 | sort | uniq -c\n")
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%04d", i)
	}
	input := textio.JoinLines(lines)
	var reused int
	for run, dict := range []string{"w0001\n", "w0001\n", "w0001\n", "w0002\nw0100\nw0101\n", "w0399\n"} {
		env.FS.Register("dict.txt", dict)
		env.FS.Register("in.txt", input)
		var out strings.Builder
		ms, err := plan.Execute(context.Background(), env, nil, &out, ModeOptimized, 3)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != reference(t, plan, input) {
			t.Fatalf("run %d: output does not follow dict.txt %q", run, dict)
		}
		for i, st := range ms {
			if plan.Stages[i].Spec != "comm -23 - dict.txt" {
				reused += st.MemoHits
				continue
			}
			if st.Chunks < 2 {
				t.Fatalf("comm ran in %d chunks; the test needs it chunk-parallel", st.Chunks)
			}
			if st.MemoHits+st.MemoMisses != 0 {
				t.Fatalf("run %d: the segment reading dict.txt consulted the memo: %+v", run, st.MemoMetrics)
			}
		}
	}
	if reused == 0 {
		t.Fatal("the Env's memo answered nothing; the test exercises no memo")
	}
}

// TestMemoNeverStoresFailure: a re-run in which a chunk fails stores
// nothing — the same failing input fails again rather than being
// answered — and leaves the generation before it in place.
func TestMemoNeverStoresFailure(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "cat in.txt | sort -m\n")
	env := unix.DefaultEnv()
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprintf("line%04d", i)
	}
	sorted := textio.JoinLines(lines)
	for range 3 {
		memoRun(t, plan, env, sorted, 4)
	}
	// Out of order inside the second of the four chunks.
	lines[150], lines[151] = lines[151], lines[150]
	unsorted := textio.JoinLines(lines)
	for run := range 2 {
		env.FS.Register("in.txt", unsorted)
		if _, err := plan.Execute(context.Background(), env, nil, &strings.Builder{}, ModeOptimized, 4); err == nil {
			t.Fatalf("failing run %d succeeded", run)
		}
	}
	if m := memoRun(t, plan, env, sorted, 4); m.MemoHits != 4 || m.MemoMisses != 0 {
		t.Fatalf("after the failures: %+v, want the stored run's 4 chunks answered", m)
	}
}

// TestMemoConcurrentExecutes: Executes sharing one Env, over different
// inputs at once, each get the reference's output (run under -race).
func TestMemoConcurrentExecutes(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "tr A-Z a-z | sort | uniq -c\n")
	env := unix.DefaultEnv()
	inputs := []string{bookInput(300), bookInput(301), bookInput(500)}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = reference(t, plan, in)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 4 {
				i := (g + r) % len(inputs)
				var out strings.Builder
				if _, err := plan.Execute(context.Background(), env, strings.NewReader(inputs[i]), &out, ModeOptimized, 3); err != nil {
					errs <- err
					return
				}
				if out.String() != want[i] {
					errs <- fmt.Errorf("goroutine %d run %d: output diverges on input %d", g, r, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMemoDeterminism: at 1, 4 and GOMAXPROCS workers, fuse on and off
// in turn on one Env, a run that misses and the runs that hit give the
// reference's output and the stage volumes of a run in an Env of its
// own; a chunked re-run of an unchanged input is answered whole. Both
// programs run the segment `tr A-Z a-z | grep light | sort`, as two members
// fused and as three, so their memo entries must not meet.
func TestMemoDeterminism(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | grep light | sort\n")
	env := unix.DefaultEnv()
	input := bookInput(600)
	for _, k := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, fuse := range []bool{true, false} {
			want := volumes(memoStages(t, plan, unix.DefaultEnv(), input, k, WithFuse(fuse)))
			var ms []StageMetrics
			for run := range 3 {
				ms = memoStages(t, plan, env, input, k, WithFuse(fuse))
				if got := volumes(ms); !slices.Equal(got, want) {
					t.Errorf("k=%d fuse=%v run %d: stage volumes %v, want %v", k, fuse, run, got, want)
				}
			}
			if m := memoOf(ms); k > 1 && (m.MemoHits == 0 || m.MemoMisses != 0) {
				t.Errorf("k=%d fuse=%v: the third run %+v, want every chunk answered", k, fuse, m)
			}
		}
	}
}
