// Package analysis is a dependency-light reimplementation of the core
// of golang.org/x/tools/go/analysis: named analyzers that inspect one
// type-checked package and report positioned diagnostics, and the one
// loader that type-checks a tree of packages from source for them
// (load.go). The module's TestLint runs every analyzer over the tree
// inside go test.
//
// The repo builds offline (no module proxy), so the x/tools module is
// not available; everything here rests on the standard library only
// (go/ast, go/parser, go/types). The API deliberately mirrors
// x/tools so analyzers could migrate to the real framework with
// mechanical edits if the dependency ever becomes available.
//
// Analyzers encode repo contracts the compiler cannot see — the fsx
// fault-injection boundary, durability error discipline, metrics
// registration, hot-path allocation budgets. See internal/analysis/analyzers.
//
// Suppression: a diagnostic may be silenced in place with
//
//	//provlint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a directive without one, one that names no analyzer of the
// suite, or one that silences nothing, is itself reported. See
// ignore.go.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one static check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and
	// //provlint:ignore directives. Lowercase, no spaces.
	Name string

	// Doc is the analyzer's documentation: first line is a one-line
	// summary, the rest explains the contract it enforces and why.
	Doc string

	// Run applies the analyzer to one package, reporting findings via
	// pass.Report / pass.Reportf. A non-nil error aborts the whole
	// lint (reserved for internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's non-test files
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one positioned finding.
type Diagnostic struct {
	AnalyzerName string
	Pos          token.Pos
	Message      string
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) {
	d.AnalyzerName = p.Analyzer.Name
	p.report(d)
}

// Reportf records one finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// RunAnalyzers applies every analyzer to the package's non-test
// files, drops the findings //provlint:ignore directives silence, and
// returns the rest sorted by position, together with a diagnostic for
// each malformed directive (in the test files too), for each directive
// that names an analyzer outside suite, the analyzers that exist, and
// for each that silenced nothing although every analyzer it names ran.
// The module's TestLint and the analysistest harness both run through
// it, so suppression semantics cannot drift between the tree and the
// analyzer tests.
func RunAnalyzers(fset *token.FileSet, pkg *Package, suite, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sup := ScanSuppressions(fset, pkg.Files)
	diags = slices.DeleteFunc(diags, func(d Diagnostic) bool {
		return sup.Suppressed(d.AnalyzerName, fset.Position(d.Pos))
	})
	diags = append(diags, sup.Malformed...)
	diags = append(diags, sup.Unused(suite, analyzers)...)
	diags = append(diags, ScanSuppressions(fset, pkg.TestFiles).Malformed...)
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		return cmp.Or(strings.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Line, pb.Line),
			cmp.Compare(pa.Column, pb.Column), strings.Compare(a.Message, b.Message))
	})
	return diags, nil
}
