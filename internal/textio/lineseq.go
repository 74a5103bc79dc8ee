package textio

import "strings"

// LineSeq is an indexed view of a stream's lines: the backing string plus
// one offset per line start, for code that walks a stream's lines by
// number — xargs, the combiner domain checks' in-domain test reference,
// and FS.ReadSeq. Sortedness checks, k-way merging and the combiner
// domain checks walk their operands in place and build no index. A
// LineSeq costs one []int allocation (half the memory of the equivalent
// []string headers) and its Line method returns zero-copy substrings of
// the backing string. Splitting a stream k ways needs no index (see
// ChunkLines).
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
