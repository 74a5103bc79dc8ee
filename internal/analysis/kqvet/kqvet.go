// Package kqvet drives the repository's analyzer suite as one
// multichecker: it loads the requested packages, runs every registered
// analyzer, applies the committed baseline (pinned findings must carry a
// justification; stale pins fail the run), and renders text and JSON
// reports. cmd/kqvet is a thin flag wrapper over Main so tests can run
// the whole checker in-process.
package kqvet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kumquat/internal/analysis"
	"kumquat/internal/analysis/captable"
	"kumquat/internal/analysis/ctxflow"
	"kumquat/internal/analysis/docs"
	"kumquat/internal/analysis/goroleak"
	"kumquat/internal/analysis/hotalloc"
)

// All returns the registered analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		captable.Analyzer,
		ctxflow.Analyzer,
		docs.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
	}
}

// Options configures one kqvet run.
type Options struct {
	// Dir is the working directory for package resolution ("" = cwd).
	Dir string
	// Patterns are go-list package patterns; default ./...
	Patterns []string
	// Baseline is the path of the committed baseline file; relative
	// paths resolve against Dir. Empty disables baselining.
	Baseline string
	// WriteBaseline regenerates the baseline from the current findings
	// (preserving justifications of entries that still match) instead of
	// failing on them.
	WriteBaseline bool
	// JSONOut, when nonempty, receives the full findings report —
	// baselined findings included — as indented JSON (the CI artifact).
	JSONOut string
	// Analyzers filters the suite by name; empty runs everything.
	Analyzers []string
}

// Report is the JSON artifact shape.
type Report struct {
	// Analyzers names the suite that ran.
	Analyzers []string `json:"analyzers"`
	// Findings holds every diagnostic, baselined ones included.
	Findings []analysis.Finding `json:"findings"`
	// Unbaselined counts the findings that fail the run.
	Unbaselined int `json:"unbaselined"`
}

// Exit codes: Main returns 0 on a clean run, 1 when any unbaselined,
// unjustified or stale finding survives, and 2 on an internal error.
const (
	// ExitClean marks a run with no failing findings.
	ExitClean = 0
	// ExitFindings marks unbaselined findings, unjustified pins or stale
	// baseline entries.
	ExitFindings = 1
	// ExitError marks a loader or analyzer failure.
	ExitError = 2
)

// Main runs the multichecker and writes human-readable findings to
// stderr. It returns the process exit code.
func Main(opts Options, stdout, stderr io.Writer) int {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	suite, err := selectAnalyzers(opts.Analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	pkgs, err := analysis.Load(dir, opts.Patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	root := analysis.ModuleRoot(dir)
	findings, err := analysis.RunAnalyzers(root, pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}

	var stale []analysis.BaselineEntry
	baselinePath := ""
	if opts.Baseline != "" {
		baselinePath = opts.Baseline
		if !filepath.IsAbs(baselinePath) {
			baselinePath = filepath.Join(dir, baselinePath)
		}
		if opts.WriteBaseline {
			return writeBaseline(baselinePath, findings, stderr)
		}
		base, err := analysis.ReadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "kqvet: %v\n", err)
			return ExitError
		}
		stale = base.Apply(findings)
	}

	code := ExitClean
	unbaselined := 0
	for _, f := range findings {
		switch {
		case !f.Baselined:
			unbaselined++
			fmt.Fprintf(stderr, "%s\n", f)
			code = ExitFindings
		case f.Justification == "":
			unbaselined++
			fmt.Fprintf(stderr, "%s [baselined without justification — explain or fix]\n", f)
			code = ExitFindings
		}
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "kqvet: stale baseline entry (finding no longer occurs): %s: %s: %s\n",
			e.File, e.Analyzer, e.Message)
		code = ExitFindings
	}

	if opts.JSONOut != "" {
		rep := Report{Findings: findings, Unbaselined: unbaselined}
		for _, a := range suite {
			rep.Analyzers = append(rep.Analyzers, a.Name)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(opts.JSONOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "kqvet: writing %s: %v\n", opts.JSONOut, err)
			return ExitError
		}
	}

	baselined := len(findings) - unbaselined
	fmt.Fprintf(stdout, "kqvet: %d packages, %d analyzers: %d findings (%d baselined, %d failing)\n",
		len(pkgs), len(suite), len(findings), baselined, unbaselined)
	return code
}

// selectAnalyzers resolves a name filter against the registry.
func selectAnalyzers(names []string) ([]*analysis.Analyzer, error) {
	all := All()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(analyzerNames(all), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// analyzerNames lists the suite's names, sorted.
func analyzerNames(as []*analysis.Analyzer) []string {
	var names []string
	for _, a := range as {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// writeBaseline regenerates the baseline file from findings, carrying
// forward the justification of every entry that still matches and leaving
// new entries' justifications empty for the author to fill in (kqvet
// fails until they do).
func writeBaseline(path string, findings []analysis.Finding, stderr io.Writer) int {
	prev, err := analysis.ReadBaseline(path)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	prev.Apply(findings)
	entries := make([]analysis.BaselineEntry, 0, len(findings))
	for _, f := range findings {
		entries = append(entries, analysis.BaselineEntry{
			Analyzer:      f.Analyzer,
			File:          f.File,
			Message:       f.Message,
			Justification: f.Justification,
		})
	}
	if err := analysis.WriteBaseline(path, entries); err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	fmt.Fprintf(stderr, "kqvet: wrote %d entries to %s (fill in empty justifications)\n", len(entries), path)
	return ExitClean
}
