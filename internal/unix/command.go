// Package unix implements the Unix command substrate KumQuat parallelizes:
// pure-Go, deterministic reimplementations of every command that appears in
// the paper's 70 benchmark scripts, exposed through the same black-box
// interface the synthesizer observes (input stream in, output stream out).
//
// The paper invokes real GNU binaries through the shell; this package
// substitutes in-process implementations with matching observable behaviour
// for the exact flag combinations the benchmarks use (see DESIGN.md,
// "Substitutions"). Because KumQuat treats commands as black boxes —
// Definition 3.2, f : Stream → Stream — the substitution is invisible to
// the synthesis algorithm.
package unix

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"kumquat/internal/textio"
)

// Command is a deterministic computation over an input stream
// (Definition 3.2). Run returns the output for the full input; commands that
// would print a diagnostic and fail in a real shell (comm on unsorted input,
// xargs on missing files) return a non-nil error instead.
type Command interface {
	// Spec returns the original command text, e.g. "tr -cs A-Za-z '\\n'".
	Spec() string
	// Run executes the command on the whole input stream.
	Run(input string) (string, error)
}

// EmitFunc receives one line (without terminator). The string may be a
// transient view — into the stream driver's read buffer, or into scratch
// owned by the line function that emitted it — valid only until that
// function is handed its next line, so receivers must finish with it (copy
// it out or complete all processing) before returning.
type EmitFunc func(line string)

// LineMapper is implemented by commands that map each input line to zero or
// more output lines independently — the "Mapping Input Lines to Disjoint
// Output Lines" class of §3.4 (tr without -s, grep without -c, cut, sed s///,
// awk filters, rev, ...). It is the one per-line contract: the chunk driver
// (RunLines), the stream driver behind Exec, and fused regions all run a
// command through the function LineFunc returns; everything else is a
// whole-stream Run.
type LineMapper interface {
	Command
	// LineFunc binds the command's per-line map to a downstream sink: the
	// returned function maps one input line to zero or more output lines
	// and hands each to emit, in order, before it returns. Lines that pass
	// through unchanged are emitted as-is; rewritten lines are built in
	// scratch the returned function owns and reuses, so it allocates
	// nothing per line in steady state — and must not be shared between
	// goroutines: each concurrent chunk or stream asks for its own.
	LineFunc(emit EmitFunc) EmitFunc
}

// AsLineMapper probes a command's line-mapping capability, honouring the
// flag-dependent AsLineMapper escape hatch (tr -s, grep -c, sed Nq and
// cat FILE are not line-independent even though their types implement
// LineFunc).
func AsLineMapper(c Command) (LineMapper, bool) {
	type asLM interface {
		AsLineMapper() (LineMapper, bool)
	}
	if a, ok := c.(asLM); ok {
		return a.AsLineMapper()
	}
	if lm, ok := c.(LineMapper); ok {
		return lm, true
	}
	return nil, false
}

// CanStream reports whether Exec would run the command incrementally:
// exactly when it is a line mapper.
func CanStream(c Command) bool {
	_, ok := AsLineMapper(c)
	return ok
}

// Exec is the execution entry point over readers and writers: line
// mappers process r incrementally; whole-stream commands buffer r, run,
// and write their full output to w. ctx cancels either path — between
// lines for streamed commands, between the read/run/write phases for
// buffered ones (a Read that keeps returning data observes cancellation
// on its next call via the context-checking wrapper).
func Exec(ctx context.Context, cmd Command, r io.Reader, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if lm, ok := AsLineMapper(cmd); ok {
		return streamLines(ctx, lm, ContextReader(ctx, r), w)
	}
	buf, err := io.ReadAll(ContextReader(ctx, r))
	if err != nil {
		return err
	}
	out, err := cmd.Run(textio.View(buf))
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// ContextReader wraps r so that every Read first observes ctx: once ctx is
// done, Read returns ctx.Err(). A Read already blocked inside r is not
// interrupted — callers unblock those by closing the underlying pipe.
func ContextReader(ctx context.Context, r io.Reader) io.Reader {
	if r == nil {
		r = strings.NewReader("")
	}
	return &ctxReader{ctx: ctx, r: r}
}

type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr *ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}

// RunLines is the chunk driver: it evaluates a line mapper over a whole
// materialized stream — one scan of the input, one output builder, one
// line function for the call (so concurrent chunk runs share nothing).
// Every line-mapper command's Run is this, and so is a fused region's.
func RunLines(lm LineMapper, input string) string {
	if input == "" {
		return ""
	}
	var b strings.Builder
	b.Grow(len(input))
	mapLine := lm.LineFunc(func(line string) {
		b.WriteString(line)
		b.WriteByte('\n')
	})
	rest := input
	for rest != "" {
		var line string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, ""
		}
		mapLine(line)
	}
	return b.String()
}

// streamLines is the stream driver: it runs a line mapper incrementally
// from r to w, checking ctx every few lines so a cancelled execution
// aborts promptly without paying a per-line context poll on the hot path.
// The reader's transient line view feeds the line function, whose output
// views are copied straight into the pooled chunk buffer — no per-line
// string, field slice, or result slice.
func streamLines(ctx context.Context, lm LineMapper, r io.Reader, w io.Writer) error {
	br := newLineReader(r)
	bw := newChunkWriter(w)
	defer bw.release()
	var emitErr error
	mapLine := lm.LineFunc(func(out string) {
		if emitErr == nil {
			emitErr = bw.writeLine(out)
		}
	})
	for n := 0; ; n++ {
		if n&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		line, err := br.readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		mapLine(line)
		if emitErr != nil {
			return emitErr
		}
	}
	return bw.flush()
}

// lineReader reads newline-terminated lines without size limits.
type lineReader struct {
	r   io.Reader
	buf []byte
	// pending holds read-but-unconsumed bytes; pending[:scanned] is known
	// to contain no newline, so each refill only scans the new tail.
	pending []byte
	scanned int
	eof     bool
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: r, buf: make([]byte, 64*1024)}
}

// readLine returns the next line without its terminator; io.EOF when the
// input is exhausted. A final unterminated line is returned before EOF.
//
// The returned string is a transient zero-copy view into the reader's
// buffer: it is valid until the next readLine call, by when the caller
// must have finished with it (the stream drivers copy each mapped line
// into the output buffer before reading the next). The view stays valid
// across refills because the reader only ever appends at offsets past
// the consumed region — it never rewrites bytes a returned line spans.
func (lr *lineReader) readLine() (string, error) {
	for {
		if i := bytes.IndexByte(lr.pending[lr.scanned:], '\n'); i >= 0 {
			end := lr.scanned + i
			line := textio.View(lr.pending[:end])
			lr.pending = lr.pending[end+1:]
			lr.scanned = 0
			return line, nil
		}
		lr.scanned = len(lr.pending)
		if lr.eof {
			if len(lr.pending) > 0 {
				line := textio.View(lr.pending)
				lr.pending = lr.pending[len(lr.pending):]
				lr.scanned = 0
				return line, nil
			}
			return "", io.EOF
		}
		n, err := lr.r.Read(lr.buf)
		if n > 0 {
			lr.pending = append(lr.pending, lr.buf[:n]...)
		}
		if err == io.EOF {
			lr.eof = true
		} else if err != nil {
			return "", err
		}
	}
}

// chunkWriter batches line writes to reduce io.Pipe round trips. The
// batch buffer comes from the shared textio builder pool, so a
// steady-state streamed stage allocates nothing per flush (the old
// strings.Builder variant copied every flushed chunk through String()).
type chunkWriter struct {
	w io.Writer
	b *bytes.Buffer
}

func newChunkWriter(w io.Writer) *chunkWriter {
	return &chunkWriter{w: w, b: textio.GetBuilder()}
}

func (cw *chunkWriter) writeLine(line string) error {
	cw.b.WriteString(line)
	cw.b.WriteByte('\n')
	if cw.b.Len() >= 32*1024 {
		return cw.flush()
	}
	return nil
}

func (cw *chunkWriter) flush() error {
	if cw.b.Len() == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.b.Bytes())
	cw.b.Reset()
	return err
}

// release returns the batch buffer to the pool; the chunkWriter must not
// be used afterwards. Paired with newChunkWriter on every path via defer.
func (cw *chunkWriter) release() {
	if cw.b != nil {
		textio.PutBuilder(cw.b)
		cw.b = nil
	}
}

// Env supplies the execution environment shared by commands: the simulated
// file system used by xargs, comm and sed-generated path prefixes.
type Env struct {
	FS *FS
}

// DefaultEnv returns an Env with a fresh synthetic file system.
func DefaultEnv() *Env { return &Env{FS: NewFS()} }

// Parse compiles a command spec (shell-style text such as
// "grep -c 'light.*light'" or "sort -rn") into a Command. Leading VAR=VALUE
// environment assignments are skipped; $VAR references must already be
// resolved by the caller (the pipeline parser does this).
func Parse(spec string, env *Env) (Command, error) {
	if env == nil {
		env = DefaultEnv()
	}
	argv, err := Tokenize(spec)
	if err != nil {
		return nil, fmt.Errorf("unix: parse %q: %w", spec, err)
	}
	// Skip environment assignments such as LC_COLLATE=C.
	for len(argv) > 0 && isEnvAssign(argv[0]) {
		argv = argv[1:]
	}
	if len(argv) == 0 {
		return nil, fmt.Errorf("unix: empty command in %q", spec)
	}
	ctor, ok := builtins[argv[0]]
	if !ok {
		return nil, fmt.Errorf("unix: unknown command %q", argv[0])
	}
	cmd, err := ctor(spec, argv[1:], env)
	if err != nil {
		return nil, fmt.Errorf("unix: %q: %w", spec, err)
	}
	return cmd, nil
}

func isEnvAssign(tok string) bool {
	i := strings.IndexByte(tok, '=')
	if i <= 0 {
		return false
	}
	for _, c := range tok[:i] {
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

type ctor func(spec string, args []string, env *Env) (Command, error)

var builtins = map[string]ctor{
	"cat":    newCat,
	"tr":     newTr,
	"sort":   newSort,
	"uniq":   newUniq,
	"grep":   newGrep,
	"wc":     newWc,
	"cut":    newCut,
	"sed":    newSed,
	"awk":    newAwk,
	"head":   newHead,
	"tail":   newTail,
	"xargs":  newXargs,
	"comm":   newComm,
	"paste":  newPaste,
	"ls":     newLs,
	"mkfifo": newMkfifo,
	"rm":     newRm,
	"diff":   newDiff,

	// bigrams_aux stands in for the shell helper function the oneliners
	// bi-grams script defines (paper footnote 5's "function calls").
	"bigrams_aux": newBigramsAux,
	"fmt":         newFmt,
	"rev":         newRev,
	"col":         newCol,
	"iconv":       newIconv,
	"file":        newFile,
}

// Names returns the set of supported command names (for documentation and
// the CLI's error messages).
func Names() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	return names
}
