// Suppression directives. A finding that is deliberate — a cmd tool
// writing a report straight to disk, a sampled slow path inside an
// annotated hot function — is silenced in place, next to the code it
// excuses, with a mandatory reason:
//
//	//provlint:ignore fsxdiscipline bench report, never read by the store
//
// The directive names the analyzer(s) it silences (comma-separated)
// and applies to diagnostics on its own line (trailing comment) or on
// the line directly below it (comment above the statement). A
// directive with no analyzer name or no reason is itself reported —
// an unexplained suppression is exactly the kind of silent contract
// erosion provlint exists to stop — and so is one that names an
// analyzer that does not exist (a typo silences nothing), and one that
// silences no finding although every analyzer it names ran: it would
// hide, unseen, whatever finding later lands on its line.

package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

const ignorePrefix = "provlint:ignore"

type directive struct {
	pos       token.Pos
	analyzers []string
	used      bool // it silenced a finding
}

// Suppressions is the per-package index of //provlint:ignore
// directives, built once and consulted for every diagnostic.
type Suppressions struct {
	// byLine maps filename → line → directives covering that line.
	byLine map[string]map[int][]*directive
	all    []*directive // in comment order
	// Malformed holds one diagnostic per syntactically bad directive.
	Malformed []Diagnostic
}

// ScanSuppressions walks every comment in files and indexes the
// ignore directives.
func ScanSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Directives follow the //go:build convention: no space
				// after //, so prose that merely mentions the directive
				// never triggers it.
				rest, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.Malformed = append(s.Malformed, Diagnostic{
						AnalyzerName: "provlint",
						Pos:          c.Pos(),
						Message:      "malformed //provlint:ignore directive: want //provlint:ignore <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				d := &directive{pos: c.Pos(), analyzers: strings.Split(fields[0], ",")}
				s.all = append(s.all, d)
				pos := fset.Position(c.Pos())
				if s.byLine[pos.Filename] == nil {
					s.byLine[pos.Filename] = make(map[int][]*directive)
				}
				// A trailing comment excuses its own line; a comment on
				// its own line excuses the statement below. Both are
				// registered — the harmless over-approximation keeps the
				// scanner source-free (it never needs the raw line text).
				s.byLine[pos.Filename][pos.Line] = append(s.byLine[pos.Filename][pos.Line], d)
				s.byLine[pos.Filename][pos.Line+1] = append(s.byLine[pos.Filename][pos.Line+1], d)
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by a directive, and marks the covering directives
// used.
func (s *Suppressions) Suppressed(analyzer string, pos token.Position) bool {
	hit := false
	for _, d := range s.byLine[pos.Filename][pos.Line] {
		if slices.Contains(d.analyzers, analyzer) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Unused returns a diagnostic for each directive that names an
// analyzer outside suite, and for each that Suppressed never matched
// although every analyzer it names is one of ran. A directive naming an
// analyzer of the suite that did not run is left alone: it may silence
// that analyzer's findings.
func (s *Suppressions) Unused(suite, ran []*Analyzer) []Diagnostic {
	notIn := func(set []*Analyzer) func(string) bool {
		return func(name string) bool {
			return !slices.ContainsFunc(set, func(a *Analyzer) bool { return a.Name == name })
		}
	}
	var out []Diagnostic
	for _, d := range s.all {
		msg := "//provlint:ignore " + strings.Join(d.analyzers, ",") + " silences no finding: delete the directive"
		if i := slices.IndexFunc(d.analyzers, notIn(suite)); i >= 0 {
			msg = "//provlint:ignore names " + d.analyzers[i] + ", which is no analyzer"
		} else if d.used || slices.ContainsFunc(d.analyzers, notIn(ran)) {
			continue
		}
		out = append(out, Diagnostic{AnalyzerName: "provlint", Pos: d.pos, Message: msg})
	}
	return out
}
