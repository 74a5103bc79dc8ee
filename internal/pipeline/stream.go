package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// Mode selects one of the four execution configurations from the paper's
// measurement infrastructure.
type Mode int

const (
	// ModeOptimized is T_k: eliminated combiners keep the stream split
	// across consecutive parallel stages, and line-streaming stages overlap
	// through pipes instead of materializing intermediates.
	ModeOptimized Mode = iota
	// ModeUnoptimized is u_k: every parallelizable stage splits its input k
	// ways and applies its combiner; stage boundaries are barriers.
	ModeUnoptimized
	// ModeSerial is u_1: every stage runs to completion in order.
	ModeSerial
	// ModePipelined is T_orig: stages run concurrently connected by pipes,
	// with Unix-style overlap and no data parallelism.
	ModePipelined
)

func (m Mode) String() string {
	switch m {
	case ModeOptimized:
		return "optimized"
	case ModeUnoptimized:
		return "unoptimized"
	case ModeSerial:
		return "serial"
	case ModePipelined:
		return "pipelined"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// modes lists every Mode, in declaration order.
var modes = [...]Mode{ModeOptimized, ModeUnoptimized, ModeSerial, ModePipelined}

// ParseMode parses a mode name ("optimized", "unoptimized", "serial",
// "pipelined") — the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range modes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown mode %q (want optimized, unoptimized, serial or pipelined)", s)
}

// MarshalText encodes the mode as its name, so a run report carries
// "optimized" rather than an enum ordinal.
func (m Mode) MarshalText() ([]byte, error) {
	if m < ModeOptimized || m > ModePipelined {
		return nil, fmt.Errorf("pipeline: cannot encode %v", m)
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a mode name, rejecting unknown ones.
func (m *Mode) UnmarshalText(text []byte) error {
	parsed, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// StageMetrics records one stage's execution measurements for the run
// report: wall time, stream volume, and how the stage actually ran.
// Durations encode as integer nanoseconds under *_ns keys.
type StageMetrics struct {
	Wall     time.Duration `json:"wall_ns"`
	BytesIn  int64         `json:"bytes_in"`
	BytesOut int64         `json:"bytes_out"`
	// CombineWall is the portion of Wall spent recombining the k chunk
	// outputs (zero for unchunked, eliminated-combiner and streamed
	// stages) — the combine plane's share of the stage.
	CombineWall time.Duration `json:"combine_wall_ns"`
	// Chunks is the number of parallel instances the stage ran as
	// (0 when the stage was not chunked).
	Chunks int `json:"chunks"`
	// Streamed marks stages that processed their input incrementally
	// through a pipe instead of materializing it.
	Streamed bool `json:"streamed"`
}

// stageError tags a failure with the stage it originated from, so that
// downstream stages reading a poisoned pipe can recognize an upstream
// failure passing through and not re-report it.
type stageError struct {
	spec string
	err  error
}

func (e *stageError) Error() string { return fmt.Sprintf("pipeline: stage %q: %v", e.spec, e.err) }
func (e *stageError) Unwrap() error { return e.err }

// countReader / countWriter thread byte accounting through a piped
// region without copying. Each is used by one region goroutine, and the
// counts are read only after the walk's teardown has waited for it.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// asyncReader decouples an external source from the executor: the
// source's Read runs in a helper goroutine, so cancellation unblocks the
// executor even while the source is quiescent (a silent terminal, an idle
// socket). If the source is mid-Read at cancellation, the helper parks
// until that Read returns and then exits, discarding the data — the
// unavoidable residue of interrupting a blocking io.Reader.
type asyncReader struct {
	ctx context.Context
	r   io.Reader
	// size is the source's declared length when it was wrapped (0 when
	// unknown): the buffer readAll materializes it into.
	size    int
	res     chan asyncChunk
	pending []byte
	err     error
	started bool
}

type asyncChunk struct {
	data []byte
	err  error
}

func newAsyncReader(ctx context.Context, r io.Reader) *asyncReader {
	return &asyncReader{ctx: ctx, r: r, size: declaredLen(r), res: make(chan asyncChunk)}
}

// readAll materializes the whole source for a drain. Unstarted, the
// helper reads it straight into one buffer of its declared size and hands
// that over, instead of streaming 32 KiB copies through Read;
// cancellation returns at once, with the same residue as Read's.
func (ar *asyncReader) readAll() ([]byte, error) {
	if ar.started {
		return textio.ReadAll(ar, 0)
	}
	ar.started = true
	go func() {
		buf, err := textio.ReadAll(unix.ContextReader(ar.ctx, ar.r), ar.size)
		select {
		case ar.res <- asyncChunk{buf, err}:
		case <-ar.ctx.Done():
		}
	}()
	select {
	case ch := <-ar.res:
		// Sticky, so a later Read finds the source consumed.
		if ar.err = ch.err; ar.err == nil {
			ar.err = io.EOF
		}
		return ch.data, ch.err
	case <-ar.ctx.Done():
		ar.err = ar.ctx.Err()
		return nil, ar.err
	}
}

func (ar *asyncReader) Read(p []byte) (int, error) {
	for {
		if len(ar.pending) > 0 {
			n := copy(p, ar.pending)
			ar.pending = ar.pending[n:]
			return n, nil
		}
		if ar.err != nil {
			return 0, ar.err
		}
		if !ar.started {
			ar.started = true
			go func() {
				// One reusable read buffer; each chunk handed off is a
				// right-sized copy, so ownership transfers to the consumer
				// and short reads (line-buffered stdin) don't cost 32 KiB
				// of garbage apiece.
				buf := make([]byte, 32*1024)
				for {
					n, err := ar.r.Read(buf)
					chunk := make([]byte, n)
					copy(chunk, buf[:n])
					select {
					case ar.res <- asyncChunk{chunk, err}:
						if err != nil {
							return
						}
					case <-ar.ctx.Done():
						return
					}
				}
			}()
		}
		select {
		case ch := <-ar.res:
			ar.pending = ch.data
			ar.err = ch.err // sticky; surfaced once pending drains
		case <-ar.ctx.Done():
			ar.err = ar.ctx.Err()
			return 0, ar.err
		}
	}
}

// execConfig collects one Execute call's options. It only chooses what
// the walker is handed — which Program, which leaf runner — and is gone
// once the walk starts.
type execConfig struct {
	// fuse selects Optimized mode's program: the rewritten one (default)
	// or the Theorem-5-only lowering (see WithFuse).
	fuse bool
	// runInfo, when non-nil, receives the rewritten program's region
	// metrics and applied rewrites (see WithRunInfo).
	runInfo *RunInfo
	// leaves wraps the local chunk fan-out (see WithLeaves).
	leaves func(local Leaves) Leaves
}

// ExecOpt tunes one Execute call beyond the mode/k pair.
type ExecOpt func(*execConfig)

// Execute runs the plan in the given mode with k-way data parallelism,
// reading the pipeline's input from stdin (when the plan has no input
// file) and writing the final output stream to out. It returns per-stage
// execution metrics alongside any error; cancellation of ctx aborts every
// mode promptly and returns ctx.Err(). Stage goroutines are always
// reaped before returning; the one residue of cancellation is a single
// parked helper when the external stdin reader is blocked mid-Read — it
// exits as soon as that Read returns, as any io.Reader demands.
//
// A mode is data, not a code path: it selects which dataflow Program the
// one region walker (walk.go) is handed and what happens to an external
// stdin — drained up front (Serial, Unoptimized), kept live so streamable
// regions overlap through pipes in bounded memory (Optimized), or always
// live with every region pipe-connected (Pipelined).
func (p *Plan) Execute(ctx context.Context, env *unix.Env, stdin io.Reader, out io.Writer, mode Mode, k int, opts ...ExecOpt) ([]StageMetrics, error) {
	cfg := execConfig{fuse: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	// Cap in-flight chunk executions at the machine's parallelism: with
	// k > GOMAXPROCS the extra chunks wait for a free runner. The tree
	// combine runs at the same width.
	ex := &executor{
		env:   env,
		k:     k,
		width: max(min(k, runtime.GOMAXPROCS(0)), 1),
	}
	switch mode {
	case ModeSerial:
		ex.prog = p.serial
	case ModeUnoptimized:
		ex.prog = p.stagewise
	case ModeOptimized:
		ex.keepLive = true
		if ex.prog = p.theorem5; cfg.fuse {
			// Only the rewritten program reports regions and rewrites.
			ex.prog, ex.info = p.Program, cfg.runInfo
		}
	case ModePipelined:
		ex.prog, ex.piped = p.serial, true
	default:
		return nil, fmt.Errorf("pipeline: unknown execution mode %v", mode)
	}
	ex.leaves = ex.runLocal
	if cfg.leaves != nil {
		ex.leaves = cfg.leaves(ex.runLocal)
	}
	ms, err := ex.walk(ctx, p, stdin, out)
	// Cancellation dominates: whatever secondary failure the teardown
	// produced (poisoned pipes, aborted chunk runs), the caller asked to
	// stop and gets ctx.Err().
	if err != nil && ctx.Err() != nil {
		return ms, ctx.Err()
	}
	return ms, err
}

// inMemoryReader reports whether r reads from memory already held by the
// caller (the compat wrappers' strings.Reader stdin): such input is
// materialized, never blocks, and needs no async decoupling.
func inMemoryReader(r io.Reader) bool {
	switch r.(type) {
	case *strings.Reader, *bytes.Reader, *bytes.Buffer:
		return true
	}
	return false
}

func totalLen(ss []string) int64 {
	var n int64
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}
