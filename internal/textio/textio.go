// Package textio provides the stream and string utilities that underpin the
// KumQuat combiner DSL semantics and the parallel pipeline splitter.
//
// Terminology follows the paper: a stream is a string that ends with a
// newline character (Definition 3.1); streams are structured as lines
// separated by '\n', lines as words separated by ' ', and so on.
package textio

import (
	"io"
	"strings"
	"unsafe"
)

// IsStream reports whether s is a stream per Definition 3.1: a string that
// ends with a newline character. The empty string is not a stream.
func IsStream(s string) bool {
	return len(s) > 0 && s[len(s)-1] == '\n'
}

// EnsureStream appends a trailing newline if s is nonempty and lacks one.
// The empty string stays empty.
func EnsureStream(s string) string {
	if s == "" || IsStream(s) {
		return s
	}
	return s + "\n"
}

// Lines splits a stream into its lines, without terminators. A trailing
// newline does not produce an empty final line: Lines("a\nb\n") is
// ["a", "b"], and Lines("\n") is [""]. Lines("") is nil.
func Lines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// JoinLines is the inverse of Lines: it joins lines with '\n' and appends a
// trailing newline. JoinLines(nil) is "". The output is built once, into
// a builder sized to it.
func JoinLines(lines []string) string {
	n := 0
	for _, l := range lines {
		n += len(l) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// SplitFirst splits s at the first occurrence of delimiter d, returning the
// head (before d) and tail (after d). ok is false when d does not occur,
// in which case head is s and tail is "".
//
// This is the DSL semantics' splitFirst: for "a,b,c" with d="," it returns
// ("a", "b,c", true).
func SplitFirst(d byte, s string) (head, tail string, ok bool) {
	i := strings.IndexByte(s, d)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

// SplitLast splits s at the last occurrence of delimiter d, returning the
// prefix before d and the element after d. ok is false when d does not
// occur, in which case last is s and init is "".
func SplitLast(d byte, s string) (init, last string, ok bool) {
	i := strings.LastIndexByte(s, d)
	if i < 0 {
		return "", s, false
	}
	return s[:i], s[i+1:], true
}

// SplitFirstLine splits a stream into its first line (without terminator)
// and the remaining stream. For "a\nb\n" it returns ("a", "b\n").
// For a single-line stream "a\n" it returns ("a", "").
// ok is false when y contains no newline at all.
func SplitFirstLine(y string) (line, rest string, ok bool) {
	i := strings.IndexByte(y, '\n')
	if i < 0 {
		return y, "", false
	}
	return y[:i], y[i+1:], true
}

// SplitLastLine splits a stream into everything before its last line and the
// last line (without terminator). For "a\nb\n" it returns ("a\n", "b").
// For a single-line stream "b\n" it returns ("", "b"). ok is false when y
// does not end with a newline (so there is no well-formed last line).
func SplitLastLine(y string) (rest, line string, ok bool) {
	if !IsStream(y) {
		return "", y, false
	}
	body := y[:len(y)-1]
	i := strings.LastIndexByte(body, '\n')
	if i < 0 {
		return "", body, true
	}
	return y[:i+1], body[i+1:], true
}

// SplitLastNonemptyLine returns the last nonempty line of stream y, together
// with the prefix of y up to and including that line's terminator boundary
// split point. ok is false when y has no nonempty line.
//
// Used by the offset operator, whose anchor is the last line of y1 that
// actually carries a value.
func SplitLastNonemptyLine(y string) (line string, ok bool) {
	lines := Lines(y)
	for i := len(lines) - 1; i >= 0; i-- {
		if lines[i] != "" {
			return lines[i], true
		}
	}
	return "", false
}

// PadKind identifies the flavour of left padding on a formatted table line.
type PadKind int

const (
	// PadNone marks a line with no leading padding.
	PadNone PadKind = iota
	// PadSpaces marks a line padded with one or more leading spaces.
	PadSpaces
	// PadTab marks a line padded with a single leading tab.
	PadTab
)

// Pad describes the left padding removed from a table line by DelPad, with
// enough information for AddPad to restore column alignment. Width is the
// total width (padding + first field) of the original line, which AddPad
// preserves when re-padding a new first field.
type Pad struct {
	Kind  PadKind
	Count int // number of pad characters removed
	Width int // len(padding) + len(first field) at removal time; 0 if unknown
}

// DelPad removes leading spaces (or a single leading tab) from s, returning
// the removed-padding descriptor and the remaining string. This is the DSL
// semantics' delPad. A line with no leading whitespace yields PadNone.
func DelPad(s string) (Pad, string) {
	if strings.HasPrefix(s, "\t") {
		return Pad{Kind: PadTab, Count: 1}, s[1:]
	}
	n := 0
	for n < len(s) && s[n] == ' ' {
		n++
	}
	if n == 0 {
		return Pad{}, s
	}
	return Pad{Kind: PadSpaces, Count: n}, s[n:]
}

// AddPad re-inserts padding before field so that the padded field occupies
// the same total width as the original (pad + original first field) when the
// padding was spaces; a tab pad is restored verbatim. If the new field is
// at least as wide as the original total width, no padding is added —
// matching GNU uniq -c's "%7d" behaviour where wide counts outgrow the
// column. This is the DSL semantics' addPad/calcPad pair.
func AddPad(p Pad, field string) string {
	switch p.Kind {
	case PadTab:
		return "\t" + field
	case PadSpaces:
		pad := p.Width - len(field)
		if p.Width == 0 { // unknown target width: restore original count
			pad = p.Count
		}
		if pad < 0 {
			pad = 0
		}
		return strings.Repeat(" ", pad) + field
	default:
		return field
	}
}

// FieldPad computes the Pad for a table line whose first field is delimited
// by d: it removes the padding, splits off the first field, and records the
// total (pad+field) width needed to re-align a replacement field.
// ok is false when the deformatted line does not contain d.
func FieldPad(d byte, line string) (p Pad, head, tail string, ok bool) {
	p, rest := DelPad(line)
	head, tail, ok = SplitFirst(d, rest)
	if !ok {
		return p, head, tail, false
	}
	p.Width = p.Count + len(head)
	return p, head, tail, true
}

// CountByte counts occurrences of d in s (Definition B.10's C(d, y)).
// IndexByte-driven so no one-byte needle string is materialized per call
// (wc -l and xargs wc call this once per multi-GB stream or per file).
func CountByte(d byte, s string) int {
	n := 0
	for i := 0; i < len(s); {
		j := strings.IndexByte(s[i:], d)
		if j < 0 {
			break
		}
		n++
		i += j + 1
	}
	return n
}

// View returns b's bytes as a string without copying. The caller must
// guarantee b is never mutated afterwards — the executor upholds this by
// treating stage input buffers as immutable once chunked.
func View(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// ReadAll reads r to EOF like io.ReadAll, but into one buffer allocated
// up front for size bytes — the stream's declared length (an HTTP
// Content-Length, a bytes.Reader's Len) — instead of starting at 512
// bytes and doubling. It is the one materializing read of a request
// body or a drained stream. size is a hint, not a limit: a shorter
// stream returns what arrived with the reader's own error, if any, and a
// longer one grows the buffer. size ≤ 0 means unknown.
func ReadAll(r io.Reader, size int) ([]byte, error) {
	if size <= 0 {
		return io.ReadAll(r)
	}
	// One spare byte lets the final read report EOF without growing.
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ChunkLines splits stream s into k line-aligned substreams whose
// concatenation equals s: the one splitter behind every parallel region,
// shard dispatch and benchmark. Chunks are balanced by byte count: each
// split point is the first line boundary at or after the ideal byte
// offset of what remains, so a split costs k-1 newline probes whatever
// the stream's size. len(result) == max(k, 1); when s has fewer lines
// than k the trailing chunks are empty.
//
// The substrings share s's backing array (Go substring slicing does not
// copy), so splitting a memory-mapped input moves no bytes.
func ChunkLines(s string, k int) []string {
	if k <= 1 {
		return []string{s}
	}
	chunks := make([]string, k)
	i, start := 0, 0
	for ; i < k-1; i++ {
		target := start + (len(s)-start)/(k-i)
		j := strings.IndexByte(s[target:], '\n')
		if j < 0 {
			break
		}
		cut := target + j + 1
		chunks[i], start = s[start:cut], cut
	}
	chunks[i] = s[start:]
	return chunks
}

// AllDigits reports whether s is a nonempty string of ASCII digits
// (the domain L(add) = [0-9]+).
func AllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
