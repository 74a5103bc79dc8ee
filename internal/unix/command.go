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
	"slices"
	"strings"
	"sync"

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
// transient view into scratch owned by the line function that emitted it,
// valid only until that function is handed its next line, so receivers
// must finish with it (copy it out or complete all processing) before
// returning.
type EmitFunc func(line string)

// LineMapper is implemented by commands that map each input line to zero or
// more output lines independently — the "Mapping Input Lines to Disjoint
// Output Lines" class of §3.4 (tr without -s, grep without -c, cut, sed s///,
// awk filters, rev, ...). It is the one per-line contract: the line driver
// (RunLines) and line-mapper chains run a command through the function
// LineFunc returns; everything else, a live stream's blocks included, goes
// through Run.
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

// CanStream reports whether Exec would run the command block by block:
// exactly when it is a line mapper.
func CanStream(c Command) bool {
	_, ok := AsLineMapper(c)
	return ok
}

// BlockSize is the size a live stream moves in: ReadBlocks reads it into
// blocks of this many bytes, each cut after its last whole line, so every
// block but the last ends in a newline.
const BlockSize = 64 << 10

// ReadBlocks cuts the byte stream r into owned, line-aligned blocks: each
// call of the returned function yields the next block, then io.EOF.
func ReadBlocks(r io.Reader) func() (string, error) {
	return (&blockReader{r: r}).next
}

// blockReader is the state of one ReadBlocks stream.
type blockReader struct {
	r io.Reader
	// tail holds the bytes read past the last block's final newline.
	tail []byte
	// err is the reader's sticky error, io.EOF once it is exhausted.
	err error
}

// next returns the next block: the whole lines among the next BlockSize
// bytes (more when one line is longer), or the unterminated rest of the
// stream at its end; then io.EOF. It reads straight into the block, and
// cuts it once less than bytes.MinRead of room is left, so no Read is
// handed a smaller buffer. Each block is a fresh buffer that nothing
// writes again, so a block, and any view into it, may be kept.
func (br *blockReader) next() (string, error) {
	buf := make([]byte, len(br.tail), max(BlockSize, 2*len(br.tail)))
	copy(buf, br.tail)
	br.tail = nil
	for br.err == nil {
		if cap(buf)-len(buf) < bytes.MinRead {
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
				// A copy, so the tail does not keep a consumed block alive.
				br.tail = bytes.Clone(buf[i+1:])
				return textio.View(buf[:i+1]), nil
			}
			buf = slices.Grow(buf, len(buf))
		}
		n, err := br.r.Read(buf[len(buf):cap(buf)])
		buf, br.err = buf[:len(buf)+n], err
	}
	if br.err != io.EOF {
		return "", br.err
	}
	if len(buf) == 0 {
		return "", io.EOF
	}
	return textio.View(buf), nil
}

// EachBlock is the block loop: it hands every block next returns to fn,
// in order, until next reports io.EOF (a clean end) or either fails.
func EachBlock(next func() (string, error), fn func(block string) error) error {
	for {
		b, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// JoinBlocks materializes a block stream: every block next returns,
// joined once at their total size (a single block is taken as it is).
func JoinBlocks(next func() (string, error)) (string, error) {
	var blocks []string
	err := EachBlock(next, func(b string) error {
		blocks = append(blocks, b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return strings.Join(blocks, ""), nil
}

// Exec is the execution entry point over readers and writers: the block
// loop over r's line-aligned blocks. A line mapper runs Run on each block
// as it arrives, which is Run on the whole stream by line independence:
// every block but the last is whole lines, and a line mapper's Run of
// whole lines followed by more input is the concatenation of its Run of
// each. Any other command joins the blocks once and runs Run on the whole
// stream. ctx is observed before every read and every write.
func Exec(ctx context.Context, cmd Command, r io.Reader, w io.Writer) error {
	next := ReadBlocks(ContextReader(ctx, r))
	write := func(out string) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := io.WriteString(w, out)
		return err
	}
	if CanStream(cmd) {
		return EachBlock(next, func(b string) error {
			out, err := cmd.Run(b)
			if err != nil {
				return err
			}
			return write(out)
		})
	}
	in, err := JoinBlocks(next)
	if err != nil {
		return err
	}
	out, err := cmd.Run(in)
	if err != nil {
		return err
	}
	return write(out)
}

// ContextReader wraps r so that every Read first observes ctx: once ctx is
// done, Read returns ctx.Err(). A Read already blocked inside r is not
// interrupted — the executor reads an external source on a goroutine of
// its own for that reason.
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

// RunLines is the line driver: it evaluates a line mapper over a whole
// materialized stream — one scan of the input, one output builder, one
// line function for the call (so concurrent chunk runs share nothing).
// Every line is emitted terminated. Every line-mapper command's Run is
// this except tr's and cat's, which work on bytes; so is a line-mapper
// Chain's Run over its terminated lines.
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

// Env supplies the execution environment shared by commands: the simulated
// file system used by xargs, comm and sed-generated path prefixes, and
// the memo of the chain runs it has already seen (see Rerun).
type Env struct {
	FS *FS

	mu   sync.Mutex
	ran  map[string]bool
	memo *Memo
}

// DefaultEnv returns an Env with a fresh synthetic file system.
func DefaultEnv() *Env { return &Env{FS: NewFS()} }

// Parse compiles a command spec (shell-style text such as
// "grep -c 'light.*light'" or "sort -rn") into a Command, and a fragment
// with unquoted pipes ("tr A-Z a-z | sort") into a Chain of its members.
// Leading VAR=VALUE environment assignments are skipped; $VAR references
// must already be resolved by the caller (the pipeline parser does this).
func Parse(spec string, env *Env) (Command, error) {
	if env == nil {
		env = DefaultEnv()
	}
	members, err := SplitMembers(spec)
	if err != nil {
		return nil, fmt.Errorf("unix: parse %q: %w", spec, err)
	}
	if len(members) > 1 {
		cmds := make([]Command, len(members))
		for i, m := range members {
			if cmds[i], err = Parse(m, env); err != nil {
				return nil, err
			}
		}
		return NewChain(cmds...), nil
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
