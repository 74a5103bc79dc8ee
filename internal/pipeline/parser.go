// Package pipeline implements KumQuat's pipeline layer (Figure 2): parsing
// shell scripts into pipelines of command stages, planning the data-parallel
// version (which stages get parallelized, which synthesized combiners get
// eliminated per Theorem 5, which stages stay sequential), and executing
// serial, unoptimized-parallel, optimized-parallel and pipelined versions.
package pipeline

import (
	"fmt"
	"strings"

	"kumquat/internal/unix"
)

// Pipeline is one sequence of commands connected by pipes. InputFile names
// the data source when the pipeline starts with "cat FILE" or ends its
// first command with "< FILE"; stage counting follows the paper's footnote
// 3 (the initial cat is not a stage).
type Pipeline struct {
	InputFile  string
	OutputFile string // "> FILE" redirect; later pipelines may read it
	Stages     []string
}

// Script is a parsed benchmark script: variable definitions plus one or
// more pipelines.
type Script struct {
	Vars      map[string]string
	Pipelines []*Pipeline
}

// ParseScript parses the benchmark-script subset of shell: VAR=VALUE and
// VAR=${VAR:-default} assignments, comments, and pipeline lines. preset
// variables override script defaults (like environment variables would).
func ParseScript(src string, preset map[string]string) (*Script, error) {
	s := &Script{Vars: map[string]string{}}
	for k, v := range preset {
		s.Vars[k] = v
	}
	for ln, rawLine := range strings.Split(src, "\n") {
		line := strings.TrimSpace(rawLine)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, def, ok := parseAssignment(line); ok {
			if _, preset := s.Vars[name]; !preset {
				s.Vars[name] = def
			}
			continue
		}
		p, err := parsePipelineLine(line, s.Vars)
		if err != nil {
			return nil, fmt.Errorf("pipeline: line %d: %w", ln+1, err)
		}
		s.Pipelines = append(s.Pipelines, p)
	}
	if len(s.Pipelines) == 0 {
		return nil, fmt.Errorf("pipeline: script has no pipelines")
	}
	return s, nil
}

// parseAssignment recognizes VAR=VALUE and VAR=${VAR:-default}.
func parseAssignment(line string) (name, value string, ok bool) {
	if strings.ContainsAny(line, "|") || strings.Contains(line, " ") && !strings.Contains(line[:strings.IndexByte(line, ' ')], "=") {
		return "", "", false
	}
	i := strings.IndexByte(line, '=')
	if i <= 0 {
		return "", "", false
	}
	name = line[:i]
	for _, c := range name {
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_' || c >= '0' && c <= '9') {
			return "", "", false
		}
	}
	v := line[i+1:]
	// ${VAR:-default}
	if strings.HasPrefix(v, "${") && strings.HasSuffix(v, "}") {
		inner := v[2 : len(v)-1]
		if j := strings.Index(inner, ":-"); j >= 0 {
			return name, inner[j+2:], true
		}
		return name, "", true
	}
	return name, strings.Trim(v, `"'`), true
}

// expandVars substitutes $VAR and ${VAR} references. Backslash-escaped
// dollars (awk's \$1 inside double quotes) are preserved verbatim for the
// command tokenizer to handle.
func expandVars(s string, vars map[string]string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			b.WriteByte(s[i])
			b.WriteByte(s[i+1])
			i++
			continue
		}
		if s[i] != '$' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		j := i + 1
		braced := false
		if s[j] == '{' {
			braced = true
			j++
		}
		start := j
		for j < len(s) && (s[j] >= 'A' && s[j] <= 'Z' || s[j] >= 'a' && s[j] <= 'z' || s[j] == '_' || s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if start == j {
			b.WriteByte(s[i])
			continue
		}
		name := s[start:j]
		if braced && j < len(s) && s[j] == '}' {
			j++
		}
		b.WriteString(vars[name])
		i = j - 1
	}
	return b.String()
}

// parsePipelineLine expands the line's variables, splits it into stages
// with the one pipe splitter (unix.SplitMembers), and extracts the input
// source from a leading "cat FILE" or a "< FILE" redirect. The script
// grammar is served to untrusted clients by kumquatd, so malformed lines
// — empty segments, unterminated quotes, redirects without a target —
// are hard errors rather than silently dropped syntax.
func parsePipelineLine(line string, vars map[string]string) (*Pipeline, error) {
	segments, err := unix.SplitMembers(expandVars(line, vars))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{}
	for i, seg := range segments {
		// Input redirect on the first segment: "cmd < FILE".
		if i == 0 {
			if j := strings.LastIndexByte(seg, '<'); j >= 0 && !strings.ContainsAny(seg[j:], "'\"") {
				p.InputFile = strings.TrimSpace(seg[j+1:])
				if p.InputFile == "" {
					return nil, fmt.Errorf("input redirect without target")
				}
				seg = strings.TrimSpace(seg[:j])
			}
		}
		// Leading "cat FILE" is the data source, not a stage (footnote 3).
		if i == 0 && p.InputFile == "" {
			if argv, err := unix.Tokenize(seg); err == nil && len(argv) == 2 && argv[0] == "cat" && argv[1] != "-" {
				p.InputFile = argv[1]
				continue
			}
		}
		// Record trailing "> FILE" output redirects (later pipelines in the
		// same script read the file, as the poets scripts do).
		if i == len(segments)-1 {
			if j := strings.LastIndexByte(seg, '>'); j >= 0 && !strings.ContainsAny(seg[j:], "'\"") {
				p.OutputFile = strings.TrimSpace(seg[j+1:])
				if p.OutputFile == "" {
					return nil, fmt.Errorf("output redirect without target")
				}
				seg = strings.TrimSpace(seg[:j])
			}
		}
		if seg == "" {
			continue
		}
		p.Stages = append(p.Stages, seg)
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("pipeline has no stages")
	}
	return p, nil
}
