package unix

import (
	"strconv"
	"strings"
	"testing"
)

// referenceCut is cut one field (or byte) at a time, from the raw LIST:
// it splits the line into every field, keeps the ones some range of LIST
// names, and joins them with the delimiter. In -f mode a line without
// the delimiter passes through whole. It is what LineFunc's merged-range
// spans must equal. ok is false for a LIST cut rejects.
func referenceCut(line, list string, chars bool, delim byte) (_ string, ok bool) {
	var ranges [][2]int
	for _, part := range strings.Split(list, ",") {
		lo, hi, found := strings.Cut(part, "-")
		l, err := strconv.Atoi(lo)
		if err != nil || l < 1 {
			return "", false
		}
		h := l
		switch {
		case found && hi == "":
			h = cutOpen
		case found:
			if h, err = strconv.Atoi(hi); err != nil || h < l {
				return "", false
			}
		}
		ranges = append(ranges, [2]int{l, h})
	}
	selected := func(pos int) bool {
		for _, r := range ranges {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	var kept []string
	if chars {
		for i := 0; i < len(line); i++ {
			if selected(i + 1) {
				kept = append(kept, line[i:i+1])
			}
		}
		return strings.Join(kept, ""), true
	}
	if strings.IndexByte(line, delim) < 0 {
		return line, true
	}
	d := string([]byte{delim})
	for i, f := range strings.Split(line, d) {
		if selected(i + 1) {
			kept = append(kept, f)
		}
	}
	return strings.Join(kept, d), true
}

// cutLines runs cut's line function on every line of input (split on
// '\n', as RunLines does) and collects what it emits per line.
func cutLines(t testing.TB, c Command, input string) []string {
	t.Helper()
	lm, ok := AsLineMapper(c)
	if !ok {
		t.Fatalf("%s is not a line mapper", c.Spec())
	}
	var got []string
	mapLine := lm.LineFunc(func(line string) { got = append(got, strings.Clone(line)) })
	for _, line := range strings.Split(input, "\n") {
		mapLine(line)
	}
	return got
}

// checkCut holds cut with LIST in the given mode to referenceCut on
// every line of input.
func checkCut(t testing.TB, input, list string, chars bool, delim byte) {
	t.Helper()
	args := []string{"-f", list, "-d", string([]byte{delim})}
	if chars {
		args = []string{"-c", list}
	}
	c, err := newCut("cut", args, nil)
	lines := strings.Split(input, "\n")
	want := make([]string, len(lines))
	refOK := true
	for i, line := range lines {
		want[i], refOK = referenceCut(line, list, chars, delim)
	}
	if (err == nil) != refOK {
		t.Fatalf("cut %q: Parse error %v, reference accepts it: %v", args, err, refOK)
	}
	if err != nil {
		return
	}
	got := cutLines(t, c, input)
	for i := range lines {
		if got[i] != want[i] {
			t.Fatalf("cut %q on %q = %q, want %q", args, lines[i], got[i], want[i])
		}
	}
}

var cutReferenceLists = []string{"1", "2", "3", "1-3", "2-", "1,3", "3,1", "1-2,2-3", "2-3,1",
	"1,2,3", "1-2,4-", "5", "2,4-5,7-", "1-1,1", "3-4,1-2", "4-,2"}

// TestCutMatchesReference: every list in both modes, on lines with empty
// fields, leading and trailing delimiters, no delimiter, and fewer fields
// than the list's lowest.
func TestCutMatchesReference(t *testing.T) {
	input := "a b c d e f g\n\na\na b\n b  c \n  \nab cd ef gh ij\nx y z"
	for _, list := range cutReferenceLists {
		checkCut(t, input, list, false, ' ')
		checkCut(t, input, list, true, ' ')
		checkCut(t, strings.ReplaceAll(input, " ", ","), list, false, ',')
	}
	for _, bad := range []string{"0", "", "3-1", "a", "1,", "-2"} {
		checkCut(t, input, bad, false, ' ')
	}
}

// FuzzCutMatchesReference holds the merged-range, view-emitting line
// function to the per-field reference on fuzzed lines and lists.
func FuzzCutMatchesReference(f *testing.F) {
	for _, list := range cutReferenceLists {
		f.Add("a b c d e f\nx  y\nnone\n", list, false, byte(' '))
		f.Add("abcdefgh\nxy\n", list, true, byte(' '))
	}
	f.Add(",,a,,b,", "2,4-", false, byte(','))
	f.Fuzz(func(t *testing.T, input, list string, chars bool, delim byte) {
		checkCut(t, input, list, chars, delim)
	})
}
