// Package ctxflow checks context discipline in library code: no
// context.Background()/context.TODO() outside main packages and tests
// (every worker path must inherit the caller's cancellation so parallel
// output stays byte-identical under cancellation), and any function that
// takes a context.Context must take it as its first parameter so the
// propagation chain is visible at every call site.
package ctxflow

import (
	"go/ast"
	"go/types"

	"kumquat/internal/analysis"
)

// Analyzer is the ctxflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background/TODO in non-main library code and " +
		"require context.Context parameters to come first",
	Run: run,
}

// run applies both context rules to a library package; main packages are
// exempt (an entry point legitimately roots its own context, usually via
// signal.NotifyContext).
func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRootContext(pass, n)
			case *ast.FuncDecl:
				if n.Type != nil {
					checkCtxFirst(pass, n.Type)
				}
			case *ast.FuncLit:
				checkCtxFirst(pass, n.Type)
			}
			return true
		})
	}
	return nil
}

// checkRootContext flags calls that mint a fresh root context.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch fn.FullName() {
	case "context.Background", "context.TODO":
		pass.Reportf(call.Pos(), "%s in library code severs cancellation; thread the caller's ctx instead", fn.FullName())
	}
}

// checkCtxFirst flags context.Context parameters that are not the first
// parameter of their function.
func checkCtxFirst(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			idx += max(1, len(field.Names))
			continue
		}
		if isContext(tv.Type) && idx > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			return
		}
		idx += max(1, len(field.Names))
	}
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
