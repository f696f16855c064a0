package provex_test

// The figure pin: every deterministic cell of the paper's figures at
// bench scale (benchScale: seed 1, 20 000 messages) is held in
// testdata/figures/, one file per figure — bundle counts, size and span
// histograms, accuracy and return, matched pairs, messages held,
// estimated MB, edges by type, the Fig. 10 showcases with their trails
// and both ablations. The wall-time columns are left out: Fig. 12 and
// 13 keep only their message counts, the ablations lose ingest_s.
//
// Re-pin after a change that means to move a figure with
//
//	go test . -run TestFigurePin -update
//
// and name every changed line in CHANGES.md.

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"provex/internal/experiments"
)

const figuresDir = "testdata/figures"

// wallTime reports whether column col of figure fig is a wall-clock
// reading, which no two runs share.
func wallTime(fig, col string) bool {
	return (fig == "fig12" || fig == "fig13") && col != "messages" || col == "ingest_s"
}

// pinText renders f's deterministic cells: each table's title, columns
// and rows, tab-separated, then the trails verbatim.
func pinText(f experiments.Figure) string {
	var b strings.Builder
	for _, t := range f.Tables {
		var keep []int
		for i, c := range t.Columns {
			if !wallTime(f.Name, c) {
				keep = append(keep, i)
			}
		}
		line := func(cells []string) {
			out := make([]string, len(keep))
			for j, i := range keep {
				out[j] = cells[i]
			}
			b.WriteString(strings.Join(out, "\t") + "\n")
		}
		b.WriteString("== " + t.Title + " ==\n")
		line(t.Columns)
		for _, r := range t.Rows {
			line(r)
		}
	}
	for _, trail := range f.Trails {
		b.WriteString("-- trail --\n" + trail + "\n")
	}
	return b.String()
}

// TestFigurePin regenerates every figure at bench scale and compares
// each with its pinned file line by line. It runs in a process of its
// own: Fig. 11(a)'s estimate sizes the summary index's term columns by
// term ID, and the process-wide term dictionary numbers terms in the
// order the process first sees them, so a test with another vocabulary
// run before it would move the megabytes.
func TestFigurePin(t *testing.T) {
	if run := "^TestFigurePin$"; flag.Lookup("test.run").Value.String() != run {
		args := []string{"-test.run=" + run, "-test.count=1"}
		if *update {
			args = append(args, "-update")
		}
		if out, err := exec.Command(os.Args[0], args...).CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	figs := experiments.Run(benchScale(), "all")
	var names []string
	for _, f := range figs {
		name := f.Name + ".txt"
		names = append(names, name)
		path := filepath.Join(figuresDir, name)
		got := pinText(f)
		if *update {
			if err := os.MkdirAll(figuresDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			continue
		}
		want, have := strings.Split(string(data), "\n"), strings.Split(got, "\n")
		for i := 0; i < max(len(want), len(have)); i++ {
			w, h := "", ""
			if i < len(want) {
				w = want[i]
			}
			if i < len(have) {
				h = have[i]
			}
			if w != h {
				t.Errorf("%s line %d:\n  pinned: %s\n  got:    %s", path, i+1, w, h)
			}
		}
	}
	des, err := os.ReadDir(figuresDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !slices.Contains(names, de.Name()) {
			t.Errorf("%s/%s pins a figure the run no longer produces", figuresDir, de.Name())
		}
	}
	if *update {
		t.Logf("pinned %d figures in %s", len(figs), figuresDir)
	}
}
