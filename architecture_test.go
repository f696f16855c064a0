package provex_test

// Doc-drift contract for ARCHITECTURE.md: the map must mention every
// internal/ package and every cmd/ binary by name. The directory
// listing is read live, so adding a package without a row here (or
// renaming one and orphaning its row) fails the build, the same deal
// observability_test.go enforces for metric families. The file also
// holds the tree's rules on production code, all read from one
// type-checked load of the module: provlint's analyzers (TestLint),
// which files may import unsafe, that every atomic is a typed one, and
// that every exported function under internal/ has a production caller.

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"provex/internal/analysis"
	"provex/internal/analysis/analyzers"
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
	loadModule(t).eachFile(func(_ *analysis.Package, path string, f *ast.File) {
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

// module is the module's packages, loaded once for every tree rule:
// the non-test files of every directory outside testdata/ and hidden
// directories (internal/, cmd/, bench/, examples/ and the root), each
// package type-checked from source, the standard library too.
type module struct {
	fset *token.FileSet
	pkgs []*analysis.Package
}

var (
	moduleOnce   sync.Once
	moduleLoaded *module
	moduleErr    error
)

// loadModule returns the module's one load, made by the first caller.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() {
		fset := token.NewFileSet()
		pkgs, err := analysis.Load(fset, ".", "provex", importer.ForCompiler(fset, "source", nil))
		moduleLoaded, moduleErr = &module{fset, pkgs}, err
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleLoaded
}

// eachFile calls fn with every non-test file of the module, its
// package and its slash-separated path.
func (m *module) eachFile(fn func(p *analysis.Package, path string, f *ast.File)) {
	for _, p := range m.pkgs {
		for _, f := range p.Files {
			fn(p, filepath.ToSlash(m.fset.Position(f.Pos()).Filename), f)
		}
	}
}

// TestLint runs provlint's analyzers (internal/analysis/analyzers) over
// every package of the module: each finding, each malformed
// //provlint:ignore directive (test files included) and each directive
// that silences nothing fails it, printed as file:line:col: message
// [analyzer]. DESIGN.md §2f and §2j say what each analyzer holds.
func TestLint(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.pkgs {
		diags, err := analysis.RunAnalyzers(m.fset, p, analyzers.All(), analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s [%s]", m.fset.Position(d.Pos), d.Message, d.AnalyzerName)
		}
	}
}

// TestTypedAtomicsOnly: no non-test file calls a package-level
// function of sync/atomic (atomic.AddInt64, atomic.LoadUint32, ...).
// Every atomic is then a typed one (atomic.Int64, atomic.Pointer[T]),
// whose value plain code cannot read or write, so a field cannot be
// touched atomically in one place and plainly in another.
func TestTypedAtomicsOnly(t *testing.T) {
	loadModule(t).eachFile(func(_ *analysis.Package, path string, f *ast.File) {
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
	"analyzers.All":                   "the analyzer list TestLint runs",
	"(*bundle.Bundle).Validate":       "declared oracle: checks a bundle's invariants (Def. 3) in tests and fuzzers",
	"(*tweet.Message).Validate":       "declared oracle: checks a parsed message's invariants in tests and fuzzers",
	"score.U":                         "declared oracle: Eq. 2 as the paper writes it, beside the fused Eq. 5 scorer",
	"score.H":                         "declared oracle: Eq. 3 as the paper writes it, beside the fused Eq. 5 scorer",
	"(*core.Engine).Probe":            "declared oracle: the unfloored match probe that Seed and Resume must agree with",
}

// TestExportsHaveProductionCallers: every exported function or method
// declared under internal/ is used by some non-test file of the module
// (internal/, cmd/, bench/, examples/ or the root), unless
// exportsWithoutCaller lets it through. An export only tests call
// belongs in the tests. Uses are resolved with go/types, so a live
// identifier that merely shares an export's name keeps nothing alive,
// and a method also counts as used when its type is converted to an
// interface the method satisfies (fsx.FaultFS's methods, through
// fsx.FS).
func TestExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ path, key string }
	decls := map[*types.Func]decl{}
	m := loadModule(t)
	m.eachFile(func(p *analysis.Package, path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/") {
			return
		}
		for _, d := range f.Decls {
			// A String method counts as used: fmt reaches it through a
			// dynamic fmt.Stringer check that types cannot follow.
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && !(fd.Recv != nil && fd.Name.Name == "String") {
				decls[p.Info.Defs[fd.Name].(*types.Func)] = decl{path, funcKey(f.Name.Name, fd)}
			}
		}
	})
	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	m.conversions(func(from, to types.Type) {
		iface, ok := to.Underlying().(*types.Interface)
		if !ok || types.IsInterface(from) {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			obj, _, _ := types.LookupFieldOrMethod(from, true, nil, iface.Method(i).Name())
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	})
	matched := map[string]bool{}
	for fn, d := range decls {
		if used[fn] {
			continue
		}
		if k := allowedBy(d.path, d.key); k != "" {
			matched[k] = true
			continue
		}
		t.Errorf("%s: %s is exported, but no non-test file uses it", d.path, d.key)
	}
	for k := range exportsWithoutCaller {
		if !matched[k] {
			t.Errorf("exportsWithoutCaller lets %s through, but it holds no export without a caller", k)
		}
	}
}

// conversions calls fn with the from and to types of every place the
// module's files assign a value to a typed slot: call arguments and
// explicit conversions, assignments, typed declarations, returns,
// composite literal elements, channel sends, and type arguments to
// their constraints.
func (m *module) conversions(to func(from, to types.Type)) {
	fn := func(from, t types.Type) {
		if from != nil && t != nil {
			to(from, t)
		}
	}
	var info *types.Info // the package being walked
	typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }
	// walk visits root, whose return statements return results; a
	// function inside it is walked with its own.
	var walk func(root ast.Node, results *types.Tuple)
	walk = func(root ast.Node, results *types.Tuple) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
				}
				return false
			case *ast.FuncLit:
				walk(n.Body, typeOf(n).(*types.Signature).Results())
				return false
			case *ast.ReturnStmt:
				if len(n.Results) == results.Len() {
					for i, e := range n.Results {
						fn(typeOf(e), results.At(i).Type())
					}
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() {
					fn(typeOf(n.Args[0]), tv.Type)
				} else if sig, ok := typeOf(n.Fun).(*types.Signature); ok {
					params := sig.Params()
					for i, a := range n.Args {
						if i >= params.Len()-1 && sig.Variadic() && !n.Ellipsis.IsValid() {
							fn(typeOf(a), params.At(params.Len()-1).Type().(*types.Slice).Elem())
						} else if i < params.Len() {
							fn(typeOf(a), params.At(i).Type())
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						fn(typeOf(n.Rhs[i]), typeOf(n.Lhs[i]))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						fn(typeOf(v), typeOf(n.Type))
					}
				}
			case *ast.SendStmt:
				if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
					fn(typeOf(n.Value), ch.Elem())
				}
			case *ast.CompositeLit:
				switch u := typeOf(n).Underlying().(type) {
				case *types.Struct:
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							fn(typeOf(kv.Value), info.Uses[kv.Key.(*ast.Ident)].Type())
						} else if i < u.NumFields() {
							fn(typeOf(e), u.Field(i).Type())
						}
					}
				case *types.Slice, *types.Array, *types.Map:
					elem := u.(interface{ Elem() types.Type }).Elem()
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if mp, ok := u.(*types.Map); ok {
								fn(typeOf(kv.Key), mp.Key())
							}
							e = kv.Value
						}
						fn(typeOf(e), elem)
					}
				}
			}
			return true
		})
	}
	for _, p := range m.pkgs {
		info = p.Info
		for _, f := range p.Files {
			walk(f, nil)
		}
		for id, inst := range info.Instances {
			var tparams *types.TypeParamList
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				tparams = obj.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					tparams = named.TypeParams()
				}
			}
			for i := 0; tparams != nil && i < inst.TypeArgs.Len(); i++ {
				fn(inst.TypeArgs.At(i), tparams.At(i).Constraint())
			}
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
