// Package analysistest runs a provlint analyzer over fixture packages
// under testdata/src and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that fixtures read identically.
//
// Fixtures are self-contained: imports resolve against testdata/src
// only (including stubs for "os", "fmt", and the provex packages the
// analyzers match on), never against the real module or GOROOT, so
// the tests are hermetic and fast. As on the module, a fixture's
// _test.go files are parsed for their directives and never analyzed.
// A fixture line expects diagnostics with a trailing comment:
//
//	f, _ := os.Create("x") // want `os\.Create bypasses`
//
// Each backquoted or double-quoted string is a regexp that must match
// exactly one diagnostic reported on that line; diagnostics with no
// matching want (and wants with no diagnostic) fail the test.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"provex/internal/analysis"
)

// TestDataDir is where fixture packages live, relative to the test.
const TestDataDir = "testdata/src"

// Run loads the fixture tree under testdata/src with analysis.Load
// (imports resolve inside it only), applies the analyzer to each named
// package through analysis.RunAnalyzers (including the shared
// //provlint:ignore suppression pass, whose directives may name any
// analyzer of suite), and compares diagnostics against the // want
// expectations of its files, test files included.
func Run(t *testing.T, suite []*analysis.Analyzer, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, TestDataDir, "", nil)
	if err != nil {
		t.Fatalf("loading the fixtures: %v", err)
	}
	for _, pkgPath := range pkgPaths {
		t.Run(a.Name+"/"+pkgPath, func(t *testing.T) {
			i := slices.IndexFunc(pkgs, func(p *analysis.Package) bool { return p.Path == pkgPath })
			if i < 0 {
				t.Fatalf("no fixture package %q under %s", pkgPath, TestDataDir)
			}
			diags, err := analysis.RunAnalyzers(fset, pkgs[i], suite, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s on %q: %v", a.Name, pkgPath, err)
			}
			checkWants(t, fset, slices.Concat(pkgs[i].Files, pkgs[i].TestFiles), diags)
		})
	}
}

// want is one expectation: a regexp at a file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE requires the pattern to start with a quote so prose that
// merely contains the word "want" is not mistaken for an expectation.
var wantRE = regexp.MustCompile("//\\s*want\\s+([\"`].*)$")

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, m[1], pos) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns extracts the quoted (double-quote or backquote)
// patterns from the tail of a want comment.
func splitPatterns(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want patterns must be quoted strings, got %q", pos, s)
		}
		end := 1
		for ; end < len(s); end++ {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		raw := s[:end+1]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			t.Fatalf("%s: cannot unquote want pattern %s: %v", pos, raw, err)
		}
		pats = append(pats, pat)
		s = strings.TrimSpace(s[end+1:])
	}
	return pats
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.AnalyzerName)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
