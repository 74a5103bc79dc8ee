// Package kqvet drives the repository's analyzer suite as one
// multichecker: it loads the requested packages, runs every registered
// analyzer and writes each finding to stderr in vet style. Any finding
// fails the run. cmd/kqvet is a thin wrapper over Main so tests can run
// the whole checker in-process.
package kqvet

import (
	"fmt"
	"io"

	"kumquat/internal/analysis"
	"kumquat/internal/analysis/ctxflow"
	"kumquat/internal/analysis/docs"
	"kumquat/internal/analysis/goroleak"
)

// All returns the registered analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		docs.Analyzer,
		goroleak.Analyzer,
	}
}

// Exit codes: Main returns 0 on a clean run, 1 when any finding
// survives, and 2 on an internal error.
const (
	// ExitClean marks a run with no findings.
	ExitClean = 0
	// ExitFindings marks a run with at least one finding.
	ExitFindings = 1
	// ExitError marks a loader or analyzer failure.
	ExitError = 2
)

// Main runs every analyzer over the packages matched by patterns
// (default ./...), resolved from dir. It writes one line per finding to
// stderr and a summary to stdout, and returns the process exit code.
func Main(dir string, patterns []string, stdout, stderr io.Writer) int {
	suite := All()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	findings, err := analysis.RunAnalyzers(analysis.ModuleRoot(dir), pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "kqvet: %v\n", err)
		return ExitError
	}
	for _, f := range findings {
		fmt.Fprintf(stderr, "%s\n", f)
	}
	fmt.Fprintf(stdout, "kqvet: %d packages, %d analyzers: %d findings\n",
		len(pkgs), len(suite), len(findings))
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}
