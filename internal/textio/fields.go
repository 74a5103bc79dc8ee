package textio

import (
	"unicode"
	"unicode/utf8"
)

// This file is the shared field-splitting core of the data plane: one
// branch-light scalar kernel behind every per-line whitespace field walk
// in the command substrate (awk $N, sort -k, xargs, wc -w, fmt). The
// kernel iterates fields through a stack-allocated cursor instead of
// materializing a []string per line, so the steady-state cost of field
// access is zero heap allocations; callers that genuinely need a slice
// reuse one through AppendFields.

// asciiSpace marks the ASCII whitespace bytes strings.Fields splits on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// FieldSeq is a zero-allocation cursor over the fields of one line.
// The zero value is exhausted; construct with Fields. Field boundaries
// match strings.Fields: runs of Unicode whitespace, no empty fields.
type FieldSeq struct {
	s   string
	pos int
}

// Fields returns a cursor over the whitespace-separated fields of s,
// with strings.Fields semantics: fields are maximal runs of
// non-whitespace, and leading/trailing/repeated whitespace produces no
// empty fields.
func Fields(s string) FieldSeq { return FieldSeq{s: s} }

// Next returns the next field and true, or "" and false when the line
// is exhausted. The returned string is a zero-copy substring of the
// line.
func (f *FieldSeq) Next() (string, bool) {
	s := f.s
	i := skipSpace(s, f.pos)
	if i >= len(s) {
		f.pos = i
		return "", false
	}
	end := fieldEnd(s, i)
	f.pos = end
	return s[i:end], true
}

// skipSpace advances past whitespace starting at i.
func skipSpace(s string, i int) int {
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return i
}

// fieldEnd advances from the start of a field to one past its last byte.
func fieldEnd(s string, i int) int {
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return i
}

// CountFields counts the whitespace-separated fields of s without
// materializing them — wc -w over a stream is one pass and zero
// allocations.
func CountFields(s string) int {
	n := 0
	for i := 0; i < len(s); {
		i = skipSpace(s, i)
		if i >= len(s) {
			break
		}
		n++
		i = fieldEnd(s, i)
	}
	return n
}

// AppendFields appends the whitespace-separated fields of s to dst and
// returns the extended slice, reusing dst's capacity — the kernel's
// face for callers that need indexed field access (awk's $N) and can
// recycle the slice across lines.
func AppendFields(dst []string, s string) []string {
	fs := Fields(s)
	for {
		f, ok := fs.Next()
		if !ok {
			return dst
		}
		dst = append(dst, f)
	}
}
