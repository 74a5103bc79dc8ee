package unix

import (
	"fmt"
	"strings"
)

// Tokenize splits a command spec using shell-like word splitting:
// whitespace separates words; single quotes preserve everything literally;
// double quotes preserve everything except \" \\ \$ escapes; a backslash
// outside quotes escapes the next character. Adjacent quoted and unquoted
// segments concatenate into one word, so s/\$/'0s'/ tokenizes to "s/$/0s/".
func Tokenize(spec string) ([]string, error) {
	var argv []string
	var cur []byte
	inWord := false
	i := 0
	for i < len(spec) {
		c := spec[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			if inWord {
				argv = append(argv, string(cur))
				cur = cur[:0]
				inWord = false
			}
			i++
		case c == '\'':
			inWord = true
			j := i + 1
			for j < len(spec) && spec[j] != '\'' {
				j++
			}
			if j >= len(spec) {
				return nil, fmt.Errorf("unterminated single quote")
			}
			cur = append(cur, spec[i+1:j]...)
			i = j + 1
		case c == '"':
			inWord = true
			i++
			for i < len(spec) && spec[i] != '"' {
				if spec[i] == '\\' && i+1 < len(spec) {
					switch spec[i+1] {
					case '"', '\\', '$', '`':
						cur = append(cur, spec[i+1])
						i += 2
						continue
					}
				}
				cur = append(cur, spec[i])
				i++
			}
			if i >= len(spec) {
				return nil, fmt.Errorf("unterminated double quote")
			}
			i++
		case c == '\\':
			if i+1 >= len(spec) {
				return nil, fmt.Errorf("trailing backslash")
			}
			inWord = true
			cur = append(cur, spec[i+1])
			i += 2
		default:
			inWord = true
			cur = append(cur, c)
			i++
		}
	}
	if inWord {
		argv = append(argv, string(cur))
	}
	return argv, nil
}

// SplitMembers is the one pipe splitter (Parse, the script parser, the
// conformance shrinker): it splits on '|' outside quotes, which follow
// Tokenize, so grep 'a|b' is one trimmed member. An empty member or an
// unterminated quote is an error.
func SplitMembers(spec string) ([]string, error) {
	var members []string
	quote, start := byte(0), 0
	for i := 0; i <= len(spec); i++ {
		switch {
		case i == len(spec) || quote == 0 && spec[i] == '|':
			m := strings.TrimSpace(spec[start:i])
			if m == "" {
				return nil, fmt.Errorf("empty pipeline segment")
			}
			members, start = append(members, m), i+1
		case spec[i] == '\\' && quote != '\'' && i+1 < len(spec):
			i++
		case quote == 0 && (spec[i] == '\'' || spec[i] == '"'):
			quote = spec[i]
		case spec[i] == quote:
			quote = 0
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("unterminated %c quote", quote)
	}
	return members, nil
}
