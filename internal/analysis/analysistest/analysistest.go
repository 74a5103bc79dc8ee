// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want "regexp"` comments in the fixture
// sources — the same convention as golang.org/x/tools'
// go/analysis/analysistest, re-implemented over the offline loader so it
// works without the x/tools dependency.
//
// A fixture line expecting a diagnostic carries a trailing comment:
//
//	ctx := context.Background() // want `context.Background in library code`
//
// Multiple expectations may follow one `want`, each in its own quoted
// (double-quoted or backquoted) Go string. Every diagnostic must match an
// expectation on its line and every expectation must be matched by a
// diagnostic; any surplus on either side fails the test.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kumquat/internal/analysis"
)

// wantRE extracts the quoted expectation strings after a `want` marker.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads each fixture package directory (conventionally
// testdata/src/<name> relative to the analyzer's package), applies a, and
// reports every mismatch between actual diagnostics and `// want`
// expectations as a test error.
func Run(t *testing.T, a *analysis.Analyzer, fixtureDirs ...string) {
	t.Helper()
	for _, dir := range fixtureDirs {
		runDir(t, a, dir)
	}
}

// expectation is one unmatched `want` pattern at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// runDir checks analyzer a against one fixture package.
func runDir(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	scrubWants(pkg)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on fixture %s: %v", a.Name, dir, err)
	}

	used := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		file := filepath.Base(pos.Filename)
		matched := false
		for i, w := range wants {
			if !used[i] && w.file == file && w.line == pos.Line && w.re.MatchString(d.Message) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, file, pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none",
				a.Name, w.re, w.file, w.line)
		}
	}
}

// collectWants parses the `// want` expectations out of every comment in
// the fixture package.
func collectWants(t *testing.T, pkg *analysis.Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[len("want "):], -1) {
					pat, err := unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// scrubWants detaches comment groups that consist solely of `want`
// expectations from the doc/trailing-comment slots of declarations, so
// comment-sensitive analyzers (docs) see the fixture as it would look
// without the test metadata. The groups stay in File.Comments, where
// positions are still needed; only the semantic attachment is removed.
func scrubWants(pkg *analysis.Package) {
	pureWant := func(cg *ast.CommentGroup) bool {
		if cg == nil {
			return false
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				return false
			}
		}
		return true
	}
	clear := func(cg **ast.CommentGroup) {
		if pureWant(*cg) {
			*cg = nil
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				clear(&n.Doc)
			case *ast.GenDecl:
				clear(&n.Doc)
			case *ast.TypeSpec:
				clear(&n.Doc)
				clear(&n.Comment)
			case *ast.ValueSpec:
				clear(&n.Doc)
				clear(&n.Comment)
			case *ast.ImportSpec:
				clear(&n.Doc)
				clear(&n.Comment)
			case *ast.Field:
				clear(&n.Doc)
				clear(&n.Comment)
			}
			return true
		})
	}
}

// unquote interprets a backquoted or double-quoted Go string literal.
func unquote(q string) (string, error) {
	if len(q) >= 2 && q[0] == '`' {
		return q[1 : len(q)-1], nil
	}
	return strconv.Unquote(q)
}
