package textio

import (
	"bytes"
	"strings"
	"sync"
)

// LineSeq is an indexed view of a stream's lines: the backing string plus
// one offset per line start. It exists so that code which walks the same
// stream repeatedly — sortedness checks, k-way merging, combiner domain
// checks — indexes it once instead of re-splitting it into a fresh
// []string on every pass. A LineSeq costs one []int allocation (half the
// memory of the equivalent []string headers) and its Line method returns
// zero-copy substrings of the backing string. It is for walking lines by
// number; splitting a stream k ways needs no index (see ChunkLines).
//
// Line boundaries follow Lines' semantics exactly: a trailing newline does
// not produce an empty final line, an unterminated final line is still a
// line, and the empty string has no lines.
type LineSeq struct {
	str string
	// offs holds each line's start offset plus one past-the-end sentinel:
	// line i is str[offs[i] : offs[i+1]-1]. For an unterminated final line
	// the sentinel is len(str)+1, as if the stream carried a virtual
	// trailing newline, which keeps the indexing formula uniform.
	offs []int
}

// ScanLines indexes stream s into a LineSeq in one pass.
func ScanLines(s string) LineSeq {
	if s == "" {
		return LineSeq{}
	}
	n := strings.Count(s, "\n")
	if s[len(s)-1] != '\n' {
		n++
	}
	offs := make([]int, 1, n+1)
	for i := 0; i < len(s); {
		j := strings.IndexByte(s[i:], '\n')
		if j < 0 {
			offs = append(offs, len(s)+1)
			break
		}
		i += j + 1
		offs = append(offs, i)
	}
	return LineSeq{str: s, offs: offs}
}

// Len returns the number of lines.
func (ls LineSeq) Len() int {
	if len(ls.offs) == 0 {
		return 0
	}
	return len(ls.offs) - 1
}

// Line returns line i without its terminator, as a zero-copy substring of
// the backing string.
func (ls LineSeq) Line(i int) string {
	end := ls.offs[i+1] - 1
	if end > len(ls.str) {
		end = len(ls.str)
	}
	return ls.str[ls.offs[i]:end]
}

// Str returns the backing stream.
func (ls LineSeq) Str() string { return ls.str }

// Chunk is ChunkLines over the backing stream. Its only caller is the
// repo benchmark's textio.chunk_us probe (benchmark/ is frozen); the
// executor splits with ChunkLines directly, and this shim retires with
// the probe.
func (ls LineSeq) Chunk(k int) []string { return ChunkLines(ls.str, k) }

// builders pools scratch buffers for combine-output assembly. A pooled
// buffer keeps its grown capacity across combines, so a steady-state
// combine pays exactly one allocation — the final exact-sized String()
// copy — instead of the log-growth reallocation chain of a fresh builder.
var builders = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuilder returns an empty scratch buffer from the shared pool. Pair
// with PutBuilder once the buffer's contents have been copied out (e.g.
// via String()).
func GetBuilder() *bytes.Buffer {
	b := builders.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuilder returns buf to the pool. Oversized buffers are dropped so a
// single huge combine cannot pin its peak allocation forever.
func PutBuilder(buf *bytes.Buffer) {
	const maxPooled = 1 << 20
	if buf.Cap() > maxPooled {
		return
	}
	builders.Put(buf)
}
