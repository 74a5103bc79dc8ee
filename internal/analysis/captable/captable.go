// Package captable flags ad-hoc accumulator folds over dsl.Op.Eval
// outside the dsl package. A hand-written fold bypasses dsl.CombineK's
// handling of empty substreams (identity elements, skipped before
// folding), of Swap (a swapped candidate folds the substreams in
// reverse), and of the concat, merge and rerun combiners that §3.5 runs
// once over all k substreams, so k-way combines must route through
// dsl.CombineK.
package captable

import (
	"go/ast"
	"go/types"

	"kumquat/internal/analysis"
)

// dslPath is the package that owns the Op capability contract.
const dslPath = "kumquat/internal/dsl"

// Analyzer is the captable checker.
var Analyzer = &analysis.Analyzer{
	Name: "captable",
	Doc:  "forbid ad-hoc combiner folds over Op.Eval that bypass dsl.CombineK",
	Run:  run,
}

// run applies the fold rule outside dsl when the package can see dsl.Op.
func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == dslPath {
		return nil
	}
	if op := opInterface(pass); op != nil {
		checkFolds(pass, op)
	}
	return nil
}

// opInterface resolves the dsl.Op interface from the pass's direct
// imports; nil when dsl is out of view.
func opInterface(pass *analysis.Pass) *types.Interface {
	var dsl *types.Package
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == dslPath {
			dsl = imp
			break
		}
	}
	if dsl == nil {
		return nil
	}
	obj, ok := dsl.Scope().Lookup("Op").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// checkFolds flags accumulator loops over Op.Eval outside dsl.
func checkFolds(pass *analysis.Pass, op *types.Interface) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				assign, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, rhs := range assign.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isOpEval(pass, call, op) {
						continue
					}
					if accumulates(assign, call) {
						pass.Reportf(assign.Pos(), "ad-hoc combiner fold over Op.Eval bypasses dsl.CombineK's handling of empty substreams, Swap and the all-at-once combiners; route k-way combines through dsl.CombineK")
					}
				}
				return true
			})
			return true
		})
	}
}

// isOpEval reports whether call invokes Eval on a value whose type
// implements dsl.Op.
func isOpEval(pass *analysis.Pass, call *ast.CallExpr, op *types.Interface) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Eval" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	return types.Implements(t, op) ||
		types.Implements(types.NewPointer(t), op) ||
		types.AssignableTo(t, op)
}

// accumulates reports whether an assignment feeds one of its own LHS
// variables back into the call's arguments — the fold signature.
func accumulates(assign *ast.AssignStmt, call *ast.CallExpr) bool {
	lhs := make(map[string]bool)
	for _, l := range assign.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			lhs[id.Name] = true
		}
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && lhs[id.Name] {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
