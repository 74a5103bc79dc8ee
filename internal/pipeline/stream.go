package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"kumquat/internal/unix"
)

// Mode selects one of the four execution configurations from the paper's
// measurement infrastructure.
type Mode int

const (
	// ModeOptimized is T_k: eliminated combiners keep the stream split
	// across consecutive parallel stages, and line-mapper regions over an
	// external stdin overlap block by block instead of materializing it.
	ModeOptimized Mode = iota
	// ModeUnoptimized is u_k: every parallelizable stage splits its input k
	// ways and applies its combiner; stage boundaries are barriers.
	ModeUnoptimized
	// ModeSerial is u_1: every stage runs to completion in order.
	ModeSerial
	// ModePipelined is T_orig: line-mapper stages run concurrently, each
	// over the blocks of the one before, with Unix-style overlap and no
	// data parallelism; a whole-stream stage runs once its input ends.
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

// Unchunked reports whether the mode runs one instance per stage
// whatever k is asked for: Serial (u_1) and Pipelined (T_orig) walk
// Unoptimized's program at k = 1.
func (m Mode) Unchunked() bool { return m == ModeSerial || m == ModePipelined }

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
	// Streamed marks stages that processed their input block by block as
	// it arrived instead of materializing it.
	Streamed bool `json:"streamed"`
	// Dead marks stages the run did not run, because only a line count
	// downstream reads their output (dataflow.RuleDeadMappers); their
	// other figures are zero.
	Dead bool `json:"dead,omitempty"`
	// MemoMetrics is the Env's segment memo on the segment this stage
	// heads.
	MemoMetrics
}

// execConfig collects one Execute call's options. It only chooses what
// the walker is handed — which Program, which leaf runner — and is gone
// once the walk starts.
type execConfig struct {
	// fuse selects Optimized mode's program: the rewritten one (default)
	// or the Theorem-5-only lowering (see WithFuse).
	fuse bool
	// runInfo, when non-nil, receives the rewritten program's region
	// metrics (see WithRunInfo).
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
// reaped before returning; the one residue of cancellation is the stdin
// pump parked while the external reader is blocked mid-Read — it exits
// as soon as that Read returns, as any io.Reader demands.
//
// A mode is data, not a code path: it selects which dataflow Program the
// one region walker (walk.go) is handed, at which k (an Unchunked mode
// runs at k = 1), and what happens to an external stdin — drained up
// front (Serial, Unoptimized), kept live so streamable regions overlap
// block by block in bounded memory (Optimized), or with every
// line-mapper region live whatever the source (Pipelined).
func (p *Plan) Execute(ctx context.Context, env *unix.Env, stdin io.Reader, out io.Writer, mode Mode, k int, opts ...ExecOpt) ([]StageMetrics, error) {
	cfg := execConfig{fuse: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if mode.Unchunked() {
		k = 1
	}
	// Cap in-flight chunk executions at the machine's parallelism: with
	// k > GOMAXPROCS the extra chunks wait for a free runner.
	ex := &executor{
		env:   env,
		k:     k,
		width: max(min(k, runtime.GOMAXPROCS(0)), 1),
	}
	switch mode {
	case ModeSerial, ModeUnoptimized:
		ex.prog = p.unrewritten
	case ModeOptimized:
		ex.keepLive = true
		if ex.prog = p.theorem5; cfg.fuse {
			// Only the rewritten program reports regions.
			ex.prog, ex.info = p.Program, cfg.runInfo
		}
	case ModePipelined:
		ex.prog, ex.piped = p.unrewritten, true
	default:
		return nil, fmt.Errorf("pipeline: unknown execution mode %v", mode)
	}
	// A Leaves wrapper keeps its k chunks and runs them where it
	// chooses; only a local run counts as a run of the Env's and may
	// consult its memo.
	ex.leaves = ex.runLocal
	if cfg.leaves != nil {
		ex.leaves = cfg.leaves(ex.runLocal)
	} else {
		ex.memo = env.Rerun(p.script())
	}
	ms, err := ex.walk(ctx, p, stdin, out)
	// Cancellation dominates: whatever secondary failure the teardown
	// produced (aborted live regions or chunk runs), the caller asked to
	// stop and gets ctx.Err().
	if err != nil && ctx.Err() != nil {
		return ms, ctx.Err()
	}
	return ms, err
}

// inMemoryReader reports whether r reads from memory already held by the
// caller (a strings.Reader, or the bytes.Buffer an execute request's body
// was read into): such input is materialized, never blocks, and needs no
// pump.
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
