package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Finding is one resolved diagnostic: the analyzer that produced it, a
// root-relative file position, and the message.
type Finding struct {
	// Analyzer names the checker that fired.
	Analyzer string
	// File is the slash-separated path of the offending file, relative
	// to the root passed to RunAnalyzers (the module root under kqvet).
	File string
	// Line is the 1-based line of the finding within File.
	Line int
	// Col is the 1-based column of the finding.
	Col int
	// Message states the violated invariant.
	Message string
}

// String renders the finding in the familiar vet style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer to every package and returns the
// merged findings sorted by file, line, column and analyzer. File paths
// are relativized to root when possible.
func RunAnalyzers(root string, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				file := pos.Filename
				if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
					file = rel
				}
				findings = append(findings, Finding{
					Analyzer: a.Name,
					File:     filepath.ToSlash(file),
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
