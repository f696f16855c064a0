package provex_test

// Doc-drift contract for EXPERIMENTS.md's figure sections: every table
// they show is quoted from bench_results_default.txt, the output of the
// header's one command, in a fenced block, and every line of such a
// block must be a line of that file. A regeneration that moves a cell
// fails here until the quote is updated with it, and a table cannot
// dodge the check by being a markdown table: the figure sections hold
// none. Trailing blanks are not compared (the command pads its columns
// and the document does not keep the padding).

import (
	"os"
	"strings"
	"testing"
)

func TestExperimentsQuoteTheResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadFile("bench_results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, line := range strings.Split(string(results), "\n") {
		printed[strings.TrimRight(line, " ")] = true
	}
	text := string(doc)
	start := strings.Index(text, "\n## Fig. 6")
	end := strings.Index(text, "\n## Beyond the paper")
	if start < 0 || end < start {
		t.Fatal("EXPERIMENTS.md: no figure sections between \"## Fig. 6\" and \"## Beyond the paper\"")
	}
	blocks, quoted := 0, 0
	fenced := false
	for i, line := range strings.Split(text[start:end], "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			if !fenced {
				blocks++
			}
			fenced = !fenced
		case fenced:
			quoted++
			if !printed[strings.TrimRight(line, " ")] {
				t.Errorf("EXPERIMENTS.md figure sections, line %d of the range: not a line of bench_results_default.txt: %q", i, line)
			}
		case strings.HasPrefix(line, "|"):
			t.Errorf("EXPERIMENTS.md figure sections hold a markdown table row, which no check holds to the results: %q", line)
		}
	}
	if fenced {
		t.Error("EXPERIMENTS.md figure sections: a fenced block is not closed")
	}
	t.Logf("%d quoted lines in %d blocks", quoted, blocks)
	if blocks < 8 {
		t.Errorf("EXPERIMENTS.md figure sections quote %d blocks, want the tables of Figs. 8–11 and both ablations (at least 8)", blocks)
	}
}
