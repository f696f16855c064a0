package provex_test

// Doc-drift contract for ARCHITECTURE.md: the map must mention every
// internal/ package and every cmd/ binary by name. The directory
// listing is read live, so adding a package without a row here (or
// renaming one and orphaning its row) fails the build, the same deal
// observability_test.go enforces for metric families. The file also
// holds the tree's one import rule: which files may import unsafe.

import (
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
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				got = append(got, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, unsafeAllowed) {
		t.Errorf("non-test files importing unsafe: %q, want exactly %q", got, unsafeAllowed)
	}
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
