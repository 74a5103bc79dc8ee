// Package hotalloc flags per-iteration allocation patterns inside loops
// in designated hot-path packages: fmt.Sprintf calls, string<->[]byte
// conversions, and string concatenation with +. The repo benchmark's
// `dsl.combine.*` timings and `unix.<cmd>.allocs_per_line` figures
// (BENCHMARK.json) hold only while the data plane stays
// allocation-lean, and the data plane's allocation budget is measured
// against these call sites — this analyzer keeps new ones from creeping
// in.
//
// A package is hot when its import path is in HotPackages or any of its
// files carries the `//kqvet:hotpath` comment directive.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kumquat/internal/analysis"
)

// HotPackages lists the import paths held to the allocation-lean bar:
// the line data plane, the command kernels, and the DSL combine path.
var HotPackages = []string{
	"kumquat/internal/textio",
	"kumquat/internal/unix",
	"kumquat/internal/dsl",
}

// directive is the opt-in marker a package may carry in any file comment.
const directive = "//kqvet:hotpath"

// Analyzer is the hotalloc checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag fmt.Sprintf, string<->[]byte conversions and + string " +
		"concatenation inside loops of hot-path packages",
	Run: run,
}

// run checks every loop body in a hot package.
func run(pass *analysis.Pass) error {
	if !isHot(pass) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				checkLoop(pass, n.Body)
				return true
			case *ast.RangeStmt:
				checkLoop(pass, n.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// isHot reports whether the pass's package is designated hot.
func isHot(pass *analysis.Pass) bool {
	for _, p := range HotPackages {
		if pass.Pkg.Path() == p {
			return true
		}
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == directive {
					return true
				}
			}
		}
	}
	return false
}

// checkLoop walks one loop body. Nested loops are visited again by run's
// outer walk, but each offending node reports once (reported guards the
// string-concat chain; call/conversion checks are idempotent per node, and
// the reported set de-duplicates across the outer revisits).
func checkLoop(pass *analysis.Pass, body *ast.BlockStmt) {
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	// covered marks + chains already accounted for by an enclosing
	// construct (the RHS of a reported +=), so one statement reports once.
	covered := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// The outer walk re-enters nested loops; avoid double reports
			// by letting only the innermost enclosing loop claim them.
			if n.Pos() != body.Pos() {
				return false
			}
		case *ast.CallExpr:
			checkCall(pass, report, n)
		case *ast.BinaryExpr:
			checkConcat(pass, report, n, covered[n])
			if n.Op == token.ADD && isString(pass, n) {
				return false // checkConcat descended already
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				report(n.Pos(), "string += in hot-path loop reallocates per iteration; use a strings.Builder")
				if add, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr); ok {
					covered[add] = true
				}
			}
		}
		return true
	})
}

// checkCall flags Sprintf and allocating conversions.
func checkCall(pass *analysis.Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		if fn.FullName() == "fmt.Sprintf" {
			report(call.Pos(), "fmt.Sprintf in hot-path loop allocates per iteration; preformat or use strconv/append")
		}
		return
	}
	// Conversion: the Fun position resolves to a type, with one operand.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	argT, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	to, from := tv.Type.Underlying(), argT.Type.Underlying()
	switch {
	case isStringT(to) && isByteSlice(from):
		report(call.Pos(), "string([]byte) conversion in hot-path loop copies the buffer; keep []byte or use textio.View")
	case isByteSlice(to) && isStringT(from):
		report(call.Pos(), "[]byte(string) conversion in hot-path loop copies the string; plumb []byte through")
	}
}

// checkConcat flags non-constant string + chains, reporting only the
// outermost + of a chain. inChain marks that an ancestor already reported.
func checkConcat(pass *analysis.Pass, report func(token.Pos, string, ...any), e *ast.BinaryExpr, inChain bool) {
	if e.Op != token.ADD || !isString(pass, e) {
		return
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	if !inChain {
		report(e.Pos(), "string + concatenation in hot-path loop allocates per iteration; use a strings.Builder")
		inChain = true
	}
	// Descend to catch Sprintf/conversions nested under the chain without
	// re-reporting each sub-+.
	for _, sub := range []ast.Expr{e.X, e.Y} {
		ast.Inspect(sub, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkConcat(pass, report, n, inChain)
				if n.Op == token.ADD && isString(pass, n) {
					return false
				}
			case *ast.CallExpr:
				checkCall(pass, report, n)
			}
			return true
		})
	}
}

// isString reports whether expr's static type is (underlying) string.
func isString(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && tv.Type != nil && isStringT(tv.Type.Underlying())
}

// isStringT reports whether an underlying type is string.
func isStringT(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteSlice reports whether an underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
