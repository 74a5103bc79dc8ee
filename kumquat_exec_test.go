package kumquat

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
)

// unix50Pipelines mirrors examples/unix50's puzzle selection at test scale
// — the compat-equivalence corpus.
var unix50Pipelines = []struct{ name, src string }{
	{"4.4", `cat in/chess.txt | tr ' ' '\n' | grep 'x' | grep '\.' | cut -d '.' -f 2 | grep '[KQRBN]' | cut -c 1-1 | sort | uniq -c | sort -rn`},
	{"7.1", `cat in/history.tsv | cut -f 1 | grep 'AT&T' | wc -l`},
	{"1.3", `cat in/names.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn`},
}

func registerUnix50Inputs(env *Env) {
	var chess, hist, names strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&chess, "%d.Qxe%d Nf%d %d.xa%d b%d\n", i%30+1, i%8+1, i%8+1, i%30+2, i%8+1, i%8+1)
		fmt.Fprintf(&hist, "%s\tpdp%d\tv%d\n", []string{"AT&T Bell Labs", "Berkeley CSRG", "MIT"}[i%3], i%5+7, i%10+1)
		fmt.Fprintf(&names, "%s %s\n", []string{"Ken", "Dennis", "Brian", "Rob", "Doug"}[i%5],
			[]string{"Thompson", "Ritchie", "Kernighan", "Pike", "McIlroy"}[i%5])
	}
	env.Register("in/chess.txt", chess.String())
	env.Register("in/history.tsv", hist.String())
	env.Register("in/names.txt", names.String())
}

// TestExecuteCompatEquivalence: Execute's two output forms — captured in
// RunReport.Output when no sink is given, streamed through WithOutput —
// must be byte-identical in every mode on the unix50 examples, and equal
// the serial ground truth.
func TestExecuteCompatEquivalence(t *testing.T) {
	env := NewEnv()
	registerUnix50Inputs(env)
	sys := New(env)
	ctx := context.Background()
	for _, p := range unix50Pipelines {
		plan, err := sys.Parallelize(context.Background(), p.src+"\n")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		serial, err := plan.Execute(ctx, WithMode(Serial))
		if err != nil {
			t.Fatalf("%s serial: %v", p.name, err)
		}
		for _, mode := range []Mode{Optimized, Unoptimized, Serial, Pipelined} {
			captured, err := plan.Execute(ctx, WithMode(mode), WithParallelism(4))
			if err != nil {
				t.Errorf("%s %v captured: %v", p.name, mode, err)
				continue
			}
			var streamed strings.Builder
			if _, err := plan.Execute(ctx, WithMode(mode), WithParallelism(4), WithOutput(&streamed)); err != nil {
				t.Errorf("%s %v streamed: %v", p.name, mode, err)
				continue
			}
			if captured.Output != streamed.String() {
				t.Errorf("%s %v: captured and streamed outputs differ (%d vs %d bytes)",
					p.name, mode, len(captured.Output), streamed.Len())
			}
			if captured.Output != serial.Output {
				t.Errorf("%s %v: output differs from serial ground truth", p.name, mode)
			}
		}
	}
}

// trackingReader counts produced lines; trackingWriter witnesses output
// arriving before the input is exhausted (i.e. true streaming).
type trackingReader struct {
	total   int64
	emitted atomic.Int64
}

func (g *trackingReader) Read(p []byte) (int, error) {
	n := g.emitted.Load()
	if n >= g.total {
		return 0, io.EOF
	}
	line := fmt.Sprintf("light line %d\n", n)
	if len(p) < len(line) {
		return 0, io.ErrShortBuffer
	}
	g.emitted.Add(1)
	return copy(p, line), nil
}

type trackingWriter struct {
	gen        *trackingReader
	sawPartial atomic.Bool
	n          atomic.Int64
}

func (w *trackingWriter) Write(p []byte) (int, error) {
	if w.gen.emitted.Load() < w.gen.total {
		w.sawPartial.Store(true)
	}
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// TestExecuteStreamsStdinToOutput is the acceptance check for the
// streaming API: a line-mapper-only pipeline fed via WithStdin and drained
// via WithOutput produces output while input is still being generated.
func TestExecuteStreamsStdinToOutput(t *testing.T) {
	sys := New(nil)
	plan, err := sys.Parallelize(context.Background(), "grep light | tr a-z A-Z\n")
	if err != nil {
		t.Fatal(err)
	}
	gen := &trackingReader{total: 100000}
	sink := &trackingWriter{gen: gen}
	rep, err := plan.Execute(context.Background(),
		WithStdin(gen), WithOutput(sink), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sink.sawPartial.Load() {
		t.Error("no output before input exhausted: the pipeline materialized the stream")
	}
	if rep.Output != "" {
		t.Error("RunReport.Output must stay empty when WithOutput is given")
	}
	if rep.BytesOut != sink.n.Load() || rep.BytesOut == 0 {
		t.Errorf("BytesOut = %d, sink received %d", rep.BytesOut, sink.n.Load())
	}
	for _, st := range rep.Stages {
		if !st.Streamed {
			t.Errorf("stage %q did not stream", st.Spec)
		}
	}
}

// TestExecuteReportVerdicts: RunReport stages carry the same planning
// verdicts as Plan.Stages(), merged with execution metrics.
func TestExecuteReportVerdicts(t *testing.T) {
	env := NewEnv()
	env.Register("x", "Some Light text\nmore WORDS here\n")
	sys := New(env)
	plan, err := sys.Parallelize(context.Background(), `cat x | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Execute(context.Background(), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	infos := plan.Stages()
	if len(rep.Stages) != len(infos) {
		t.Fatalf("report has %d stages, plan has %d", len(rep.Stages), len(infos))
	}
	for i, st := range rep.Stages {
		if st.StageInfo != infos[i] {
			t.Errorf("stage %d verdict = %+v, want %+v", i, st.StageInfo, infos[i])
		}
		if st.Pipeline != 0 {
			t.Errorf("stage %d pipeline index = %d", i, st.Pipeline)
		}
	}
	if rep.Mode != Optimized || rep.Parallelism != 2 {
		t.Errorf("report config = %v/%d", rep.Mode, rep.Parallelism)
	}
	if rep.Wall <= 0 || rep.BytesIn == 0 || rep.BytesOut == 0 {
		t.Errorf("report volume/wall not recorded: %+v", rep)
	}
	// An out-of-range mode must error, not silently run optimized.
	if _, err := plan.Execute(context.Background(), WithMode(Mode(9))); err == nil {
		t.Error("Execute accepted unknown Mode(9)")
	}
}

// cancelReader cancels the context after a fixed number of reads and then
// keeps producing forever.
type cancelReader struct {
	after  int64
	reads  atomic.Int64
	cancel context.CancelFunc
}

func (g *cancelReader) Read(p []byte) (int, error) {
	if g.reads.Add(1) == g.after {
		g.cancel()
	}
	const line = "light word here\n"
	if len(p) < len(line) {
		return 0, io.ErrShortBuffer
	}
	return copy(p, line), nil
}

// TestExecuteCancellation: mid-stream cancellation must abort every mode
// promptly with ctx.Err() and leak no goroutines.
func TestExecuteCancellation(t *testing.T) {
	sys := New(nil)
	plan, err := sys.Parallelize(context.Background(), "grep light | sort | uniq -c\n")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, mode := range []Mode{Optimized, Unoptimized, Serial, Pipelined} {
		ctx, cancel := context.WithCancel(context.Background())
		gen := &cancelReader{after: 300, cancel: cancel}
		done := make(chan error, 1)
		go func() {
			_, err := plan.Execute(ctx, WithMode(mode), WithParallelism(4),
				WithStdin(gen), WithOutput(io.Discard))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want context.Canceled", mode, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: Execute did not return after cancellation", mode)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestExecuteOutputRedirect: a script pipeline redirecting to a file must
// register its output in the environment, not write it to the sink.
func TestExecuteOutputRedirect(t *testing.T) {
	env := NewEnv()
	env.Register("in.txt", "b\na\nb\n")
	sys := New(env)
	plan, err := sys.Parallelize(context.Background(), "cat in.txt | sort | uniq -c > counts.txt\ncat counts.txt | wc -l\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Execute(context.Background(), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output != "2\n" {
		t.Errorf("final output = %q, want %q", rep.Output, "2\n")
	}
	counts, err := env.Read("counts.txt")
	if err != nil || !strings.Contains(counts, "2 b") {
		t.Errorf("redirect target = %q, %v", counts, err)
	}
}
