// The tree loader: the one go/types set-up of the repo. The module's
// tree rules (TestLint and TestExportsHaveProductionCallers at the
// root) and the analyzer fixtures (analysistest) both load through it,
// so what an analyzer sees under test is what it sees on the tree.

package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one directory of a loaded tree, type-checked from
// source.
type Package struct {
	Path  string      // import path
	Files []*ast.File // the non-test files, type-checked
	// TestFiles are the _test.go files, parsed only: no analyzer runs
	// over them, but their //provlint:ignore directives are checked.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Load parses every .go file under root, with comments, outside
// testdata/ and hidden directories below it, and type-checks each
// directory's non-test files as one package whose import path is
// modPath joined with the directory's path under root. Imports resolve
// to the tree's own packages first and otherwise through fallback; with
// a nil fallback an import from outside the tree is an error. The
// packages come back sorted by import path. The first parse, import or
// type error is returned, with its position.
func Load(fset *token.FileSet, root, modPath string, fallback types.Importer) ([]*Package, error) {
	l := &loader{fset: fset, fallback: fallback, pkgs: map[string]*Package{}, loading: map[string]bool{}}
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(name)) // name is under root
		imp := path.Join(modPath, filepath.ToSlash(dir))
		p := l.pkgs[imp]
		if p == nil {
			p = &Package{Path: imp}
			l.pkgs[imp] = p
		}
		if strings.HasSuffix(name, "_test.go") {
			p.TestFiles = append(p.TestFiles, f)
		} else {
			p.Files = append(p.Files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	for _, p := range out {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loader type-checks a walked tree's packages on demand, each once; it
// is the types.Importer of every package it checks.
type loader struct {
	fset     *token.FileSet
	fallback types.Importer
	pkgs     map[string]*Package
	loading  map[string]bool // the packages being checked: an import of one is a cycle
}

func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		if l.fallback == nil {
			return nil, fmt.Errorf("package %q is not in the tree", path)
		}
		return l.fallback.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *loader) check(p *Package) error {
	if p.Types != nil {
		return nil
	}
	l.loading[p.Path] = true
	defer delete(l.loading, p.Path)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p.Path, l.fset, p.Files, info)
	if err != nil {
		return err
	}
	p.Types, p.Info = pkg, info
	return nil
}
