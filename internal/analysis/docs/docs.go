// Package docs is the repository's godoc lint, migrated from
// internal/doclint into the kqvet static-analysis plane: every exported
// top-level identifier — type, function, method on an exported type,
// const or var — in the enforced packages must carry a doc comment. Group
// declarations (`const (...)`, `var (...)`) may document the group
// instead of each member.
//
// Enforcement covers the packages listed in Packages (entries ending in
// "/..." match by prefix) plus any package carrying the `//kqvet:docs`
// comment directive.
package docs

import (
	"go/ast"
	"strings"

	"kumquat/internal/analysis"
)

// Packages lists the enforced import paths: the synthesis-, service- and
// test-plane-facing packages doclint always covered, plus the dataflow
// optimizer and the static-analysis plane itself.
var Packages = []string{
	"kumquat/internal/synth",
	"kumquat/internal/synth/cache",
	"kumquat/internal/dsl",
	"kumquat/internal/server",
	"kumquat/internal/server/api",
	"kumquat/internal/server/client",
	"kumquat/internal/cluster",
	"kumquat/internal/faultinject",
	"kumquat/internal/conformance",
	"kumquat/internal/dataflow",
	"kumquat/internal/obs",
	"kumquat/internal/textio",
	"kumquat/internal/analysis/...",
}

// directive is the opt-in marker a package may carry in any file comment.
const directive = "//kqvet:docs"

// Analyzer is the docs checker.
var Analyzer = &analysis.Analyzer{
	Name: "docs",
	Run:  run,
}

// run lints the package when it is enforced.
func run(pass *analysis.Pass) error {
	if !enforced(pass) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					pass.Reportf(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				lintGenDecl(pass, d)
			}
		}
	}
	return nil
}

// enforced reports whether the pass's package is under doc lint.
func enforced(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, p := range Packages {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		} else if path == p {
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

// lintGenDecl checks a type/const/var declaration; a spec is documented
// if it or its enclosing group carries a comment.
func lintGenDecl(pass *analysis.Pass, d *ast.GenDecl) {
	kind := d.Tok.String()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				pass.Reportf(s.Pos(), "exported %s %s has no doc comment", kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a function is free-standing or a
// method on an exported type (methods on unexported types are not part
// of the package's godoc surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr: // generic receiver
			typ = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return true
		}
	}
}
