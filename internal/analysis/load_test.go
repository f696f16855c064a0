package analysis

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// writeTree writes files (slash-separated path → source) under a fresh
// directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestLoadResolvesTheTreeFirst: an import the tree holds is its own
// package even where the fallback also answers for it, and an import
// it does not hold goes to the fallback.
func TestLoadResolvesTheTreeFirst(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": "package a\n\nimport (\n\t\"m/b\"\n\t_ \"ext\"\n)\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nconst Y = 1\n",
	})
	var asked []string
	fallback := importerFunc(func(path string) (*types.Package, error) {
		asked = append(asked, path)
		pkg := types.NewPackage(path, filepath.Base(path))
		pkg.MarkComplete()
		return pkg, nil
	})
	pkgs, err := Load(token.NewFileSet(), root, "m", fallback)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "m/a" || pkgs[1].Path != "m/b" {
		t.Fatalf("loaded %v, want m/a and m/b", pkgs)
	}
	if got := pkgs[0].Types.Imports()[0]; got != pkgs[1].Types {
		t.Errorf("m/a imports %v, want the tree's m/b", got)
	}
	if len(asked) != 1 || asked[0] != "ext" {
		t.Errorf("the fallback was asked for %q, want only ext", asked)
	}
}

// TestLoadErrorsArePositioned: an import cycle and a type error each
// fail the load with the position of the line at fault.
func TestLoadErrorsArePositioned(t *testing.T) {
	for _, c := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"import cycle", map[string]string{
			"a/a.go": "package a\n\nimport _ \"m/b\"\n",
			"b/b.go": "package b\n\nimport _ \"m/a\"\n",
		}, `b\.go:3:10: could not import m/a \(import cycle through "m/a"\)`},
		{"type error", map[string]string{
			"a/a.go": "package a\n\nvar X int = \"s\"\n",
		}, `a\.go:3:13: cannot use "s"`},
		{"outside the tree", map[string]string{
			"a/a.go": "package a\n\nimport _ \"fmt\"\n",
		}, `a\.go:3:10: could not import fmt \(package "fmt" is not in the tree\)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(token.NewFileSet(), writeTree(t, c.files), "m", nil)
			if err == nil || !regexp.MustCompile(c.want).MatchString(err.Error()) {
				t.Errorf("Load = %v, want an error matching %s", err, c.want)
			}
		})
	}
}

// TestMalformedDirectiveInTestFileFails: no analyzer runs over a
// _test.go file, but a malformed directive there is still a finding.
func TestMalformedDirectiveInTestFileFails(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go":      "package p\n",
		"p/p_test.go": "package p\n\n//provlint:ignore fsxdiscipline\nfunc helper() {}\n",
	})
	fset := token.NewFileSet()
	pkgs, err := Load(fset, root, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(fset, pkgs[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the one malformed directive: %v", len(diags), diags)
	}
	if pos := fset.Position(diags[0].Pos); filepath.Base(pos.Filename) != "p_test.go" || pos.Line != 3 {
		t.Errorf("malformed directive reported at %s, want p_test.go:3", pos)
	}
}
