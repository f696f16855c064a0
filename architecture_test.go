package provex_test

// Doc-drift contract for ARCHITECTURE.md: the map must mention every
// internal/ package and every cmd/ binary by name. The directory
// listing is read live, so adding a package without a row here (or
// renaming one and orphaning its row) fails the build, the same deal
// observability_test.go enforces for metric families. The file also
// holds the tree's rules on production code: which files may import
// unsafe, that every atomic is a typed one, and that every exported
// function under internal/ has a production caller.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// entries lists the subdirectory names of dir (non-directories are
// skipped; hidden directories too).
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if de.IsDir() && !strings.HasPrefix(de.Name(), ".") {
			names = append(names, de.Name())
		}
	}
	if len(names) == 0 {
		t.Fatalf("no subdirectories under %s", dir)
	}
	return names
}

func TestArchitectureDocCoversTree(t *testing.T) {
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, pkg := range entries(t, "internal") {
		// A package is "mentioned" when its name appears as a word —
		// backtick-quoted in the tables, or bare in the diagrams.
		if !strings.Contains(text, "`"+pkg+"`") && !containsWord(text, pkg) {
			t.Errorf("internal/%s is not mentioned in ARCHITECTURE.md", pkg)
		}
	}
	for _, bin := range entries(t, "cmd") {
		if !strings.Contains(text, bin) {
			t.Errorf("cmd/%s is not mentioned in ARCHITECTURE.md", bin)
		}
	}
}

// TestArchitectureDocNamesExist is the reverse direction: every
// `internal/...` path the map cites must exist in the tree, so a
// package rename cannot orphan its documentation.
func TestArchitectureDocNamesExist(t *testing.T) {
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(doc), "\n") {
		for rest := line; ; {
			i := strings.Index(rest, "internal/")
			if i < 0 {
				break
			}
			name := rest[i+len("internal/"):]
			if j := strings.IndexAny(name, "`{ .,|)"); j >= 0 {
				name = name[:j]
			}
			rest = rest[i+len("internal/"):]
			if name == "" {
				continue
			}
			if _, err := os.Stat("internal/" + name); err != nil {
				t.Errorf("ARCHITECTURE.md cites internal/%s which does not exist (line: %s)",
					name, strings.TrimSpace(line))
			}
		}
	}
}

// unsafeAllowed lists the non-test files that may import unsafe: the
// message record's layout (score.Msg). Everything else reads a record
// through its accessors, so a layout mistake has one file to hide in;
// go test -race runs it under checkptr.
var unsafeAllowed = []string{
	"internal/score/record.go",
}

// TestUnsafeIsContained: the non-test files of the module that import
// unsafe are exactly unsafeAllowed.
func TestUnsafeIsContained(t *testing.T) {
	var got []string
	walkProduction(t, parser.ImportsOnly, func(path string, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				got = append(got, path)
			}
		}
	})
	slices.Sort(got)
	if !slices.Equal(got, unsafeAllowed) {
		t.Errorf("non-test files importing unsafe: %q, want exactly %q", got, unsafeAllowed)
	}
}

// walkProduction parses every non-test .go file of the module outside
// testdata/ and hidden directories, with mode, and calls fn with its
// slash-separated path.
func walkProduction(t *testing.T, mode parser.Mode, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedAtomicsOnly: no non-test file calls a package-level
// function of sync/atomic (atomic.AddInt64, atomic.LoadUint32, ...).
// Every atomic is then a typed one (atomic.Int64, atomic.Pointer[T]),
// whose value plain code cannot read or write, so a field cannot be
// touched atomically in one place and plainly in another.
func TestTypedAtomicsOnly(t *testing.T) {
	walkProduction(t, parser.SkipObjectResolution, func(path string, f *ast.File) {
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
				name = "atomic"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" || name == "_" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
				t.Errorf("%s: calls %s.%s; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", path, name, sel.Sel.Name)
			}
			return true
		})
	})
}

// exportsWithoutCaller lists what TestExportsHaveProductionCallers
// lets through, each with its reason. A key is a file, a directory
// (ending in /) or a function as the test names it.
var exportsWithoutCaller = map[string]string{
	"internal/fsx/fault.go":           "test fake: the fault injector every durability test drives",
	"internal/fsx/memfs.go":           "test fake: the in-memory filesystem with crash images",
	"internal/repl/fault.go":          "test fake: the faulty transport of the replication tests",
	"internal/analysis/analysistest/": "test harness: runs an analyzer over its fixtures",
	"(*bundle.Bundle).Validate":       "declared oracle: checks a bundle's invariants (Def. 3) in tests and fuzzers",
	"(*tweet.Message).Validate":       "declared oracle: checks a parsed message's invariants in tests and fuzzers",
}

// TestExportsHaveProductionCallers: every exported function or method
// declared under internal/ is named by some non-test file of the
// module (internal/, cmd/, bench/, examples/ or the root), unless
// exportsWithoutCaller lets it through. An export only tests call
// belongs in the tests. The check is by name, so it over-approximates
// use: a dead export that shares its name with a live identifier —
// any method called Next, say — slips through.
func TestExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ path, name, key string }
	var decls []decl
	uses := map[string]int{}
	walkProduction(t, parser.SkipObjectResolution, func(path string, f *ast.File) {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(path, "internal/") {
				continue
			}
			declared[fd.Name] = true
			decls = append(decls, decl{path, fd.Name.Name, funcKey(f.Name.Name, fd)})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
	})
	matched := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		if k := allowedBy(d.path, d.key); k != "" {
			matched[k] = true
			continue
		}
		t.Errorf("%s: %s is exported, but no non-test file names it", d.path, d.key)
	}
	for k := range exportsWithoutCaller {
		if !matched[k] {
			t.Errorf("exportsWithoutCaller lets %s through, but it holds no export without a caller", k)
		}
	}
}

// funcKey names fd as go doc would: pkg.F, (pkg.T).M or (*pkg.T).M.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ, star := fd.Recv.List[0].Type, ""
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, "*"
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	return "(" + star + pkg + "." + name + ")." + fd.Name.Name
}

// allowedBy returns the exportsWithoutCaller key that lets the export
// key declared in path through, or "".
func allowedBy(path, key string) string {
	for k := range exportsWithoutCaller {
		if k == path || k == key || strings.HasSuffix(k, "/") && strings.HasPrefix(path, k) {
			return k
		}
	}
	return ""
}

// containsWord reports whether text contains name delimited by
// non-identifier characters (so "core" in "score" does not count).
func containsWord(text, name string) bool {
	for idx := 0; ; {
		i := strings.Index(text[idx:], name)
		if i < 0 {
			return false
		}
		i += idx
		before := byte(' ')
		if i > 0 {
			before = text[i-1]
		}
		after := byte(' ')
		if j := i + len(name); j < len(text) {
			after = text[j]
		}
		if !isIdent(before) && !isIdent(after) {
			return true
		}
		idx = i + len(name)
	}
}

func isIdent(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}
