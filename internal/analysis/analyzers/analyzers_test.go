package analyzers

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"provex/internal/analysis/analysistest"
)

func TestFsxDiscipline(t *testing.T) {
	analysistest.Run(t, All(), FsxDiscipline, "fsxdiscipline")
}

func TestDurabilityErr(t *testing.T) {
	analysistest.Run(t, All(), DurabilityErr, "durabilityerr",
		"provex/internal/shard", "provex/internal/repl")
}

func TestMetricsReg(t *testing.T) {
	analysistest.Run(t, All(), MetricsReg, "metricsreg")
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, All(), HotPathAlloc, "hotpathalloc")
}

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, All(), LockGuard, "lockguard")
}

func TestWgBalance(t *testing.T) {
	analysistest.Run(t, All(), WgBalance, "wgbalance")
}

func TestSendAfterClose(t *testing.T) {
	analysistest.Run(t, All(), SendAfterClose, "sendafterclose")
}

// TestSuppression runs fsxdiscipline over a fixture where some
// violations carry //provlint:ignore directives: suppressed lines must
// stay silent, mismatched or out-of-range directives must not.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, All(), FsxDiscipline, "suppress")
}

// TestSuppressionConcurrency proves the ignore scanner composes with
// the concurrency analyzers: directives naming lockguard silence
// exactly the lines they cover, and mismatched analyzer names or
// out-of-range directives leave the finding live.
func TestSuppressionConcurrency(t *testing.T) {
	analysistest.Run(t, All(), LockGuard, "suppresslock")
}

// TestParseGuardedBy pins the annotation grammar the lockguard
// analyzer and CONTRIBUTING.md both promise.
func TestParseGuardedBy(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"// guarded by mu", "mu", true},
		{"// guarded by mu.", "mu", true},
		{"// hit count; guarded by statsMu, see DESIGN.md", "statsMu", true},
		{"// guarded by RWMutex", "RWMutex", true},
		{"// guarded by s.mu", "", false}, // dotted paths are not sibling names
		{"// guarded by", "", false},
		{"// guarded by 2fast", "", false},
		{"// plain prose with no marker", "", false},
		{"// guard by mu (typo: not the marker)", "", false},
	}
	for _, c := range cases {
		name, ok := parseGuardedBy(c.text)
		if ok != c.ok || name != c.name {
			t.Errorf("parseGuardedBy(%q) = (%q, %v), want (%q, %v)", c.text, name, ok, c.name, c.ok)
		}
	}
}

// FuzzParseGuardedBy holds the annotation parser to its contract on
// arbitrary comment text: never panic, and any accepted name is a
// plain non-empty Go identifier that round-trips through a canonical
// annotation.
func FuzzParseGuardedBy(f *testing.F) {
	f.Add("// guarded by mu")
	f.Add("// guarded by ")
	f.Add("//guarded by\tmu.")
	f.Add("// totals; guarded by statsMu, repo convention")
	f.Add("/* guarded by rw */")
	f.Fuzz(func(t *testing.T, text string) {
		name, ok := parseGuardedBy(text)
		if !ok {
			if name != "" {
				t.Fatalf("rejected input returned non-empty name %q", name)
			}
			return
		}
		if name == "" {
			t.Fatal("accepted annotation with empty mutex name")
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			ident := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9')
			if !ident {
				t.Fatalf("accepted name %q contains non-identifier byte %q", name, c)
			}
		}
		again, ok2 := parseGuardedBy("// guarded by " + name)
		if !ok2 || again != name {
			t.Fatalf("canonical annotation for %q did not round-trip: (%q, %v)", name, again, ok2)
		}
	})
}

// TestEveryAnalyzerHasFixture is the meta-test: each analyzer wired
// into provlint must ship a testdata fixture that demonstrably makes
// it fire, so a new analyzer cannot land untested.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc or Run", a)
			continue
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true

		dir := filepath.Join("testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %q has no fixture package under testdata/src/%s: %v", a.Name, a.Name, err)
			continue
		}
		hasWant := false
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte("// want ")) {
				hasWant = true
			}
		}
		if !hasWant {
			t.Errorf("fixture for analyzer %q has no // want expectations: it cannot prove the analyzer fires", a.Name)
		}
	}
}
