package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kumquat/internal/dataflow"
	"kumquat/internal/unix"
)

var allModes = modes[:]

// TestModeTextRoundTrip: every mode encodes as its name and decodes back
// to itself; an unknown name or ordinal is refused on both sides.
func TestModeTextRoundTrip(t *testing.T) {
	for _, m := range allModes {
		text, err := m.MarshalText()
		if err != nil || string(text) != m.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", m, text, err)
		}
		var back Mode
		if err := back.UnmarshalText(text); err != nil || back != m {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, m)
		}
	}
	back := ModeSerial
	if err := back.UnmarshalText([]byte("cluster")); err == nil || back != ModeSerial {
		t.Fatalf("UnmarshalText(cluster) = %v, %v; want an error and no change", back, err)
	}
	if text, err := Mode(len(allModes)).MarshalText(); err == nil {
		t.Fatalf("out-of-range mode encoded as %q", text)
	}
}

// reference is the tests' independent oracle: every stage's command run
// to completion over the previous output — no Program, no pool, no
// executor.
func reference(t *testing.T, plan *Plan, input string) string {
	t.Helper()
	data := input
	for _, sp := range plan.Stages {
		var err error
		if data, err = sp.Cmd.Run(data); err != nil {
			t.Fatalf("reference stage %q: %v", sp.Spec, err)
		}
	}
	return data
}

// pipeSource serves s through an io.Pipe: an external stdin the executor
// cannot see through, read incrementally like a socket.
func pipeSource(s string) io.Reader {
	pr, pw := io.Pipe()
	go func() {
		_, err := io.WriteString(pw, s)
		pw.CloseWithError(err)
	}()
	return pr
}

// TestExecuteModesAgree runs one pipeline through every source kind ×
// fuse setting × mode × k and checks byte-identical output against the
// independent reference — the whole configuration matrix of the one
// region walker, live-stdin-with-fusion included.
func TestExecuteModesAgree(t *testing.T) {
	syn := newSynth()
	const corpus = "Some Light text\nmore WORDS here\nlight Again\nno match\n"
	syn.Env.FS.Register("in.txt", corpus)
	const stages = "tr A-Z a-z | grep i | sort | uniq -c\n"
	filePlan := compilePlan(t, syn, "cat in.txt | "+stages)
	stdinPlan := compilePlan(t, syn, stages)
	if filePlan.Program.Fired[dataflow.RuleFuseStreamers] == 0 {
		t.Fatal("pipeline does not exercise fusion")
	}
	want := reference(t, stdinPlan, corpus)
	sources := []struct {
		name  string
		plan  *Plan
		stdin func() io.Reader
	}{
		{"file", filePlan, func() io.Reader { return nil }},
		{"in-memory stdin", stdinPlan, func() io.Reader { return strings.NewReader(corpus) }},
		{"external stdin", stdinPlan, func() io.Reader { return pipeSource(corpus) }},
	}
	for _, src := range sources {
		for _, fuse := range []bool{true, false} {
			for _, mode := range allModes {
				for _, k := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s fuse=%v %v k=%d", src.name, fuse, mode, k)
					var out strings.Builder
					ms, err := src.plan.Execute(context.Background(), syn.Env, src.stdin(), &out, mode, k, WithFuse(fuse))
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if out.String() != want {
						t.Errorf("%s = %q, want %q", name, out.String(), want)
					}
					if len(ms) != len(src.plan.Stages) {
						t.Errorf("%s: %d metrics for %d stages", name, len(ms), len(src.plan.Stages))
					}
				}
			}
		}
	}
}

// lineGen emits a fixed number of lines, one per Read call, tracking how
// many it has produced so far.
type lineGen struct {
	total   int64
	emitted atomic.Int64
}

func (g *lineGen) Read(p []byte) (int, error) {
	n := g.emitted.Load()
	if n >= g.total {
		return 0, io.EOF
	}
	line := fmt.Sprintf("light word number %d\n", n)
	if len(p) < len(line) {
		return 0, io.ErrShortBuffer
	}
	g.emitted.Add(1)
	return copy(p, line), nil
}

// interleaveWriter records whether any output arrived while the source was
// still producing — the witness that the pipeline streamed rather than
// materializing its input.
type interleaveWriter struct {
	gen        *lineGen
	sawPartial atomic.Bool
	bytes      atomic.Int64
}

func (w *interleaveWriter) Write(p []byte) (int, error) {
	if w.gen.emitted.Load() < w.gen.total {
		w.sawPartial.Store(true)
	}
	w.bytes.Add(int64(len(p)))
	return len(p), nil
}

// TestOptimizedStreamsLineMapperPipeline checks the acceptance property:
// a line-mapper-only pipeline streams end to end — output is produced
// while input is still being read, in optimized and pipelined modes. In
// optimized mode fusion is on, so the bounded-memory property must
// survive it: the fused region itself consumes the live external stdin.
func TestOptimizedStreamsLineMapperPipeline(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "grep light | cut -c 1-5\n")
	for _, mode := range []Mode{ModeOptimized, ModePipelined} {
		gen := &lineGen{total: 100000}
		w := &interleaveWriter{gen: gen}
		var info RunInfo
		ms, err := plan.Execute(context.Background(), syn.Env, gen, w, mode, 4, WithRunInfo(&info))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if fused := mode == ModeOptimized; (info.Regions != nil) != fused || (fused && !info.Regions[0].Fused) {
			t.Errorf("%v: run info regions=%+v, want the rewritten program's fused region exactly in optimized mode", mode, info.Regions)
		}
		if !w.sawPartial.Load() {
			t.Errorf("%v: no output arrived before input was exhausted; pipeline materialized the stream", mode)
		}
		if w.bytes.Load() != 6*gen.total { // "light" + "\n" per line
			t.Errorf("%v: wrote %d bytes, want %d", mode, w.bytes.Load(), 6*gen.total)
		}
		for i, m := range ms {
			if !m.Streamed {
				t.Errorf("%v: stage %q did not stream", mode, plan.Stages[i].Spec)
			}
		}
	}
}

// heapSampler is an external stdin that serves r a few KiB per Read and,
// before each, collects garbage and samples the live heap: the peak of
// what a run holds while its source is read.
type heapSampler struct {
	r    io.Reader
	peak uint64
}

func (h *heapSampler) Read(p []byte) (int, error) {
	h.peak = max(h.peak, liveHeap())
	return h.r.Read(p[:min(len(p), 8<<10)])
}

// liveHeap is the heap in use right after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// byteCounter is a sink that keeps nothing.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestLiveStreamBoundedMemory pins the bounded-memory promise of a live
// stream: a line-mapper chain over an external stdin of ten blocks holds
// a few blocks at a time, never the stream — the one the pump is
// reading, at most an input and an output block per live region, and
// the one being written — in Optimized mode (one fused region) and in
// Pipelined mode (a region per stage).
func TestLiveStreamBoundedMemory(t *testing.T) {
	const size = 10 * unix.BlockSize
	syn := newSynth()
	plan := compilePlan(t, syn, "tr A-Z a-z | grep light | cut -c 1-12\n")
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "Light line %d of the stream, some words\n", i)
	}
	in := b.String()
	for _, row := range []struct {
		mode    Mode
		regions uint64
	}{{ModeOptimized, 1}, {ModePipelined, 3}} {
		src := &heapSampler{r: strings.NewReader(in)}
		var sink byteCounter
		base := liveHeap()
		ms, err := plan.Execute(context.Background(), syn.Env, src, &sink, row.mode, 4)
		if err != nil {
			t.Fatalf("%v: %v", row.mode, err)
		}
		if !ms[0].Streamed || sink.n == 0 {
			t.Fatalf("%v: the chain did not stream (%+v, %d bytes out)", row.mode, ms[0], sink.n)
		}
		// One block more than the count above, for the run's own state.
		bound := (2*row.regions + 3) * unix.BlockSize
		if grew := src.peak - min(src.peak, base); grew > bound {
			t.Errorf("%v: live heap grew %d bytes over a %d-byte stream, want ≤ %d (%d blocks)",
				row.mode, grew, size, bound, bound/unix.BlockSize)
		}
	}
}

// cancellingGen produces lines forever, cancelling the context after a
// fixed number of reads; execution must then abort promptly.
type cancellingGen struct {
	after  int64
	reads  atomic.Int64
	cancel context.CancelFunc
}

func (g *cancellingGen) Read(p []byte) (int, error) {
	if g.reads.Add(1) == g.after {
		g.cancel()
	}
	const line = "light word here\n"
	if len(p) < len(line) {
		return 0, io.ErrShortBuffer
	}
	return copy(p, line), nil
}

// cancellingCmd wraps a stage command so that running any chunk cancels
// the context: a cancellation that lands in the middle of a region's
// chunk fan-out.
type cancellingCmd struct {
	unix.Command
	cancel context.CancelFunc
}

func (c cancellingCmd) Run(input string) (string, error) {
	c.cancel()
	return c.Command.Run(input)
}

// TestExecuteCancellation cancels mid-stream in every mode, and
// mid-region in the chunk fan-out: Execute must return ctx.Err()
// promptly and leak no goroutines.
func TestExecuteCancellation(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "grep light | sort | uniq -c\n")
	// The mid-region row: a file-sourced plan whose sort cancels from
	// inside its first chunk run, with far more chunks than pool slots, so
	// the fan-out is still acquiring slots when the context dies.
	syn.Env.FS.Register("c.txt", strings.Repeat("light word here\n", 4096))
	midRegion := compilePlan(t, syn, "cat c.txt | sort | uniq -c\n")
	sortStage := midRegion.Stages[0]
	rows := []struct {
		name  string
		plan  *Plan
		mode  Mode
		k     int
		stdin bool
	}{
		{"optimized", plan, ModeOptimized, 4, true},
		{"unoptimized", plan, ModeUnoptimized, 4, true},
		{"serial", plan, ModeSerial, 4, true},
		{"pipelined", plan, ModePipelined, 4, true},
		{"mid-region fan-out", midRegion, ModeUnoptimized, 64, false},
	}
	before := runtime.NumGoroutine()
	for _, row := range rows {
		ctx, cancel := context.WithCancel(context.Background())
		var stdin io.Reader
		if row.stdin {
			stdin = &cancellingGen{after: 500, cancel: cancel}
		} else {
			sortStage.Cmd = cancellingCmd{Command: sortStage.Cmd, cancel: cancel}
		}
		done := make(chan error, 1)
		go func() {
			_, err := row.plan.Execute(ctx, syn.Env, stdin, io.Discard, row.mode, row.k)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", row.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Execute did not return after cancellation", row.name)
		}
		cancel()
	}
	// Every stage goroutine must have unwound.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after cancellations", before, n)
	}
}

// blockedReader blocks every Read until released — a silent terminal or
// idle socket stand-in.
type blockedReader struct {
	release chan struct{}
}

func (b *blockedReader) Read(p []byte) (int, error) {
	<-b.release
	return 0, io.EOF
}

// TestExecuteCancellationBlockedStdin: cancellation must unblock Execute
// even when the stdin source is quiescent (its Read never returns) — the
// async source reader decouples the executor from the blocked Read.
func TestExecuteCancellationBlockedStdin(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "grep light | sort | uniq -c\n")
	release := make(chan struct{})
	defer close(release) // let parked helpers exit after the test
	for _, mode := range allModes {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := plan.Execute(ctx, syn.Env, &blockedReader{release: release}, io.Discard, mode, 2)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want context.Canceled", mode, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: Execute hung on blocked stdin after cancellation", mode)
		}
	}
}

// TestPipelinedFailurePropagation: a failing stage must poison the whole
// pipelined run — the error surfaces (with stage context), downstream
// stages do not mask it, and partial output is not reported as success.
func TestPipelinedFailurePropagation(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "xargs cat | sort | uniq -c\n")
	var out strings.Builder
	_, err := plan.Execute(context.Background(), syn.Env, strings.NewReader("not-a-file\n"), &out, ModePipelined, 1)
	if err == nil {
		t.Fatal("pipelined run with failing stage returned nil error")
	}
	if !strings.Contains(err.Error(), "xargs cat") {
		t.Errorf("error lost its stage context: %v", err)
	}
	var se *stageError
	if !errors.As(err, &se) {
		t.Errorf("error is not a stage failure: %v", err)
	}
}

// failingWriter errors after accepting a few bytes — a broken output sink.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 8 {
		return 0, fmt.Errorf("sink: disk full")
	}
	return len(p), nil
}

// TestPipelinedSinkErrorAttribution: a failing output sink must surface as
// the sink's error, not be misattributed to the pipeline stages the
// teardown poisons.
func TestPipelinedSinkErrorAttribution(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("s.txt", strings.Repeat("light words here\n", 5000))
	plan := compilePlan(t, syn, "cat s.txt | grep light | cut -c 1-5\n")
	_, err := plan.Execute(context.Background(), syn.Env, nil, &failingWriter{}, ModePipelined, 1)
	if err == nil {
		t.Fatal("failing sink returned nil error")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("sink error lost: %v", err)
	}
	if strings.Contains(err.Error(), `stage "grep`) || strings.Contains(err.Error(), `stage "cut`) {
		t.Errorf("sink failure misattributed to stages: %v", err)
	}
}

// TestExecuteMetrics sanity-checks the per-stage measurements: byte
// volumes flow, parallel stages report their chunk counts, and streamed
// stages are flagged.
func TestExecuteMetrics(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("m.txt", strings.Repeat("Light words HERE\n", 200))
	plan := compilePlan(t, syn, "cat m.txt | tr A-Z a-z | sort | uniq -c\n")
	var out strings.Builder
	ms, err := plan.Execute(context.Background(), syn.Env, nil, &out, ModeOptimized, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("metrics = %d stages", len(ms))
	}
	// File input is already materialized, so the parallel tr stage runs
	// chunked (the paper's T_k), not streamed.
	if ms[0].Streamed || ms[0].Chunks != 4 || ms[0].BytesIn == 0 || ms[0].BytesOut == 0 {
		t.Errorf("tr stage should chunk 4 ways with nonzero volume: %+v", ms[0])
	}
	if ms[1].Chunks != 4 {
		t.Errorf("sort stage chunks = %d, want 4", ms[1].Chunks)
	}
	if ms[2].BytesOut != int64(len(out.String())) {
		t.Errorf("final stage BytesOut = %d, sink got %d", ms[2].BytesOut, len(out.String()))
	}
	// Unoptimized mode barriers every stage: nothing streams, parallel
	// stages chunk.
	ms, err = plan.Execute(context.Background(), syn.Env, nil, io.Discard, ModeUnoptimized, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.Streamed {
			t.Errorf("unoptimized mode streamed stage %q", plan.Stages[i].Spec)
		}
	}
}

// TestSortCombinesIntoChunkedConsumer: a parallel sort feeding a
// streamable but order-sensitive consumer exits through its combine (the
// range-parallel, order-checked k-way merge), and the consumer then runs
// chunk-parallel like any parallel region — over a file source and over
// an external stdin alike. No live stream is made of the sort's output.
func TestSortCombinesIntoChunkedConsumer(t *testing.T) {
	syn := newSynth()
	corpus := strings.Repeat("pear\napple\nfig\nquince\nloquat\nbanana\n", 50)
	syn.Env.FS.Register("in.txt", corpus)
	const stages = "sort | sed 's/^/> /'\n"
	filePlan := compilePlan(t, syn, "cat in.txt | "+stages)
	stdinPlan := compilePlan(t, syn, stages)
	want := reference(t, stdinPlan, corpus)
	for _, src := range []struct {
		name  string
		plan  *Plan
		stdin io.Reader
	}{
		{"file", filePlan, nil},
		{"external stdin", stdinPlan, pipeSource(corpus)},
	} {
		var out strings.Builder
		ms, err := src.plan.Execute(context.Background(), syn.Env, src.stdin, &out, ModeOptimized, 4)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if out.String() != want {
			t.Errorf("%s: output diverges from the oracle", src.name)
		}
		if len(ms) != 2 {
			t.Fatalf("%s: %d metrics, want 2", src.name, len(ms))
		}
		if ms[0].CombineWall <= 0 {
			t.Errorf("%s: sort stage did not combine: %+v", src.name, ms[0])
		}
		if ms[1].Chunks != 4 || ms[1].Streamed {
			t.Errorf("%s: sed stage ran %d chunks, streamed=%v; want 4 chunks, not streamed", src.name, ms[1].Chunks, ms[1].Streamed)
		}
		if _, ok := src.plan.Program.Fired[dataflow.RulePushSortMerge]; ok {
			t.Errorf("%s: plan reports the retired push-sort-merge rewrite: %v", src.name, src.plan.Program.Fired)
		}
	}
}
