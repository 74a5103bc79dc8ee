// Package analysis is the repository's static-analysis plane: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus an offline package loader.
//
// The container that builds this repo has no module proxy access, so the
// canonical x/tools framework cannot be vendored; this package mirrors its
// API shape closely enough that the analyzers under internal/analysis/...
// are a mechanical port away from running under the real multichecker if
// x/tools ever becomes available. Each analyzer encodes one invariant the
// paper's guarantees rest on but the compiler cannot see and no run-time
// test checks more directly — see the package docs of ctxflow, goroleak
// and docs. Output and allocation properties are pinned by tests, not
// here.
//
// Type information is produced without the network: packages are
// enumerated with `go list -export -deps -json` (which also compiles
// export data into the build cache) and imports are resolved through the
// standard library's gc importer with a lookup function over those export
// files. This works for module-local and standard-library imports alike
// and needs nothing beyond the Go toolchain itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name and a Run function
// applied to each loaded package. The invariant it enforces is stated
// once, in its package doc. The shape mirrors x/tools'
// analysis.Analyzer minus Doc, Requires and Facts, which no kqvet
// analyzer needs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. Lower-case, no
	// spaces.
	Name string
	// Run analyzes one package, reporting findings through pass.Report.
	// A non-nil error aborts the whole kqvet run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	// Analyzer is the checker this pass is running.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files holds the package's parsed non-test source files, comments
	// included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and object resolution for every expression
	// and identifier in Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position inside the pass's file set and a
// human-readable message stating the violated invariant.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violation.
	Message string
}

// CalleeFunc resolves the function or method a call expression invokes,
// looking through parentheses. It returns nil for calls through function
// values, type conversions, and builtins — the cases where no *types.Func
// names the callee. Shared by every analyzer that matches calls by
// fully-qualified name (e.g. "context.Background",
// "(*sync.WaitGroup).Add").
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
