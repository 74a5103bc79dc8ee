// Package goroleak checks that every goroutine launched in library code
// is bounded: either the launching function joins it through a
// sync.WaitGroup (the shape of par.For, the one bounded fan-out), or the
// goroutine body has a ctx-cancel exit path (selects on ctx.Done(), the
// shape of the streaming reader pump). A fire-and-forget goroutine
// outlives its request, keeps buffers alive, and — under the service
// plane's admission control — silently erodes the in-flight accounting.
package goroleak

import (
	"go/ast"
	"go/types"

	"kumquat/internal/analysis"
)

// Analyzer is the goroleak checker.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Run:  run,
}

// run checks every `go` statement in a library package; main packages
// are exempt (a daemon's signal-watcher goroutine is process-scoped by
// design).
func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		// Walk with an explicit ancestor stack (ast.Inspect reports each
		// node's exit as a nil visit) so each `go` statement can see its
		// enclosing functions.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if g, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, g, stack)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// checkGo validates one go statement against the bounding rules.
func checkGo(pass *analysis.Pass, g *ast.GoStmt, stack []ast.Node) {
	// Rule 1: an enclosing function joins workers through a WaitGroup.
	for i := len(stack) - 1; i >= 0; i-- {
		if body := funcBody(stack[i]); body != nil && usesWaitGroup(pass, body) {
			return
		}
	}
	// Rule 2: the goroutine body itself has a ctx-cancel exit path.
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok && hasCtxExit(pass, lit.Body) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine is neither joined by a sync.WaitGroup nor bounded by a ctx-cancel exit path (potential leak)")
}

// funcBody extracts the body of a function node.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// usesWaitGroup reports whether body calls Add/Done/Wait on a
// sync.WaitGroup.
func usesWaitGroup(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Add", "Done", "Wait":
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isWaitGroup(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "WaitGroup" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// hasCtxExit reports whether body references ctx.Done() — the canonical
// cancellation exit of a pump goroutine.
func hasCtxExit(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil &&
			fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			found = true
		}
		return !found
	})
	return found
}
