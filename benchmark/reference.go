package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// Independent references: plain Go over the generated bytes, sharing no
// code with the program's command substrate, planner or executors.

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// addWords counts data's lower-cased maximal letter runs into counts —
// what `tr -cs A-Za-z '\n' | tr A-Z a-z` turns into lines. streamStart
// marks data as the head of the stream: a stream that opens with a
// non-letter makes tr emit one leading empty line.
func addWords(counts map[string]int, data []byte, streamStart bool) {
	if streamStart && len(data) > 0 && !isLetter(data[0]) {
		counts[""]++
	}
	var word []byte
	for _, c := range data {
		if isLetter(c) {
			word = append(word, c|0x20)
			continue
		}
		if len(word) > 0 {
			counts[string(word)]++
			word = word[:0]
		}
	}
	if len(word) > 0 {
		counts[string(word)]++
	}
}

// renderWordFreq prints counts as `sort | uniq -c | sort -rn` would:
// "%7d word" lines by count descending; ties fall to sort's last-resort
// whole-line comparison, which -r also reverses.
func renderWordFreq(counts map[string]int) string {
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if ci, cj := counts[words[i]], counts[words[j]]; ci != cj {
			return ci > cj
		}
		return words[i] > words[j]
	})
	var b strings.Builder
	for _, w := range words {
		fmt.Fprintf(&b, "%7d %s\n", counts[w], w)
	}
	return b.String()
}

// wordFreq is the whole word-frequency reference over one stream.
func wordFreq(data []byte) string {
	counts := map[string]int{}
	addWords(counts, data, true)
	return renderWordFreq(counts)
}

// chainCount is the reference for the line-mapper chain
// `tr A-Z a-z | grep light | sed 's/light/dark/' | cut -d ' ' -f 1-3 | wc -l`:
// the number of lines that contain "light" once lower-cased. sed and cut
// rewrite a line but never drop or add one, so the count is decided by
// the grep.
func chainCount(data []byte) string {
	n := 0
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if bytes.Contains(bytes.ToLower(line), []byte("light")) {
			n++
		}
	}
	return fmt.Sprintf("%d\n", n)
}

// lineFreq is the reference for `tr A-Z a-z | sort | uniq -c`: each
// lower-cased line with its count, in byte order.
func lineFreq(data []byte) string {
	counts := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		counts[string(bytes.ToLower(line))]++
	}
	lines := make([]string, 0, len(counts))
	for l := range counts {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%7d %s\n", counts[l], l)
	}
	return b.String()
}
