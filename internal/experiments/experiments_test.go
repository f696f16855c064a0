package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testScale keeps experiment tests fast while preserving the shapes
// the assertions check.
func testScale() Scale {
	return Scale{
		Messages:      12_000,
		SweepMessages: 12_000,
		PoolLimit:     250,
		BundleLimit:   150,
		SweepLimits:   []int{50, 250, 1000},
		Checkpoints:   4,
		Seed:          1,
	}
}

// sharedRun caches one pass of every group for all figure-view tests.
// At testScale the sweep is as long as the main run, so the truth
// stops at Messages.
var sharedRun *pass

func getRun(t *testing.T) *pass {
	t.Helper()
	if sharedRun == nil {
		p := &pass{s: testScale(), figs: map[string][]*Table{}}
		p.addFig6()
		p.addThree()
		p.addFig9()
		p.addAblations()
		p.run()
		sharedRun = p
	}
	return sharedRun
}

// fig returns table i of the named figure of the shared run.
func fig(t *testing.T, name string, i int) *Table {
	t.Helper()
	tabs := getRun(t).figs[name]
	if i >= len(tabs) {
		t.Fatalf("%s has %d tables, want table %d", name, len(tabs), i)
	}
	return tabs[i]
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// column returns column c of tab as numbers.
func column(t *testing.T, tab *Table, c int) []float64 {
	t.Helper()
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		out[i] = parseCell(t, row[c])
	}
	return out
}

func TestRunThreeMethodsSeries(t *testing.T) {
	bundles := fig(t, "fig7", 0)
	if len(bundles.Rows) != 4 {
		t.Fatalf("checkpoints = %v", column(t, bundles, 0))
	}
	last := len(bundles.Rows) - 1

	fullB, partialB := column(t, bundles, 1), column(t, bundles, 2)
	for i := 1; i < len(fullB); i++ {
		if fullB[i] < fullB[i-1] {
			t.Error("full index bundle count must grow monotonically")
		}
	}
	if partialB[last] > float64(testScale().PoolLimit)*1.5 {
		t.Errorf("partial pool %v far above limit %d", partialB[last], testScale().PoolLimit)
	}
	if fullB[last] <= partialB[last] {
		t.Error("full index should hold more bundles than partial at the end")
	}

	// Memory ordering at the end of the stream: full > partial variants.
	if mem := fig(t, "fig11", 0); column(t, mem, 1)[last] <= column(t, mem, 2)[last] {
		t.Error("full index should cost more memory than partial")
	}
	// Accuracy/return in range, for partial (column 1) and limit (2).
	acc, ret := fig(t, "fig8", 0), fig(t, "fig8", 1)
	for c := 1; c <= 2; c++ {
		a, r := column(t, acc, c), column(t, ret, c)
		for i := range a {
			if a[i] < 0 || a[i] > 1 || r[i] < 0 || r[i] > 1 {
				t.Fatalf("%s metrics out of range: acc=%v ret=%v", acc.Columns[c], a[i], r[i])
			}
		}
		if a[last] < 0.5 {
			t.Errorf("%s final accuracy %v implausibly low", acc.Columns[c], a[last])
		}
	}
	if getRun(t).truth.eng.Snapshot().EdgesCreated == 0 {
		t.Error("ground truth found no edges")
	}
}

func TestFig6Tables(t *testing.T) {
	tables := getRun(t).figs["fig6"]
	if len(tables) != 2 {
		t.Fatalf("fig6 returned %d tables", len(tables))
	}
	var total int64
	var small, large int64
	for _, row := range tables[0].Rows {
		n, _ := strconv.ParseInt(row[1], 10, 64)
		total += n
		if row[0] == "1" || row[0] == "2" {
			small += n
		}
		if row[0] == "overflow" || len(row[0]) >= 3 {
			large += n
		}
	}
	if total == 0 {
		t.Fatal("no bundles in size distribution")
	}
	if small < total/3 {
		t.Errorf("paper shape violated: small bundles %d of %d (expect a remarkable proportion)", small, total)
	}
	if out := tables[0].Render(); !strings.Contains(out, "Fig 6(a)") {
		t.Error("render missing title")
	}
}

func TestFig7Shape(t *testing.T) {
	tab := fig(t, "fig7", 0)
	if len(tab.Rows) == 0 {
		t.Fatal("empty Fig7")
	}
	lastRow := tab.Rows[len(tab.Rows)-1]
	full := parseCell(t, lastRow[1])
	partial := parseCell(t, lastRow[2])
	if full <= partial {
		t.Errorf("Fig7 final: full %v <= partial %v", full, partial)
	}
}

func TestFig8Shape(t *testing.T) {
	tabs := getRun(t).figs["fig8"]
	if len(tabs) != 2 {
		t.Fatal("Fig8 should return accuracy and return tables")
	}
	for _, tab := range tabs {
		for _, row := range tab.Rows {
			for _, cell := range row[1:3] {
				v := parseCell(t, cell)
				if v < 0 || v > 1 {
					t.Errorf("%s: metric %v out of [0,1]", tab.Title, v)
				}
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tab := fig(t, "fig9", 0)
	if len(tab.Columns) != 1+len(testScale().SweepLimits) {
		t.Fatalf("columns = %v", tab.Columns)
	}
	last := tab.Rows[len(tab.Rows)-1]
	smallest := parseCell(t, last[1])
	biggest := parseCell(t, last[len(last)-1])
	if biggest < smallest {
		t.Errorf("bigger pool should not be less accurate: %v vs %v", biggest, smallest)
	}
	if biggest < 0.5 {
		t.Errorf("largest pool accuracy %v implausibly low", biggest)
	}
}

func TestFig10Showcases(t *testing.T) {
	tab, trails := fig10(testScale())
	if len(tab.Rows) != 2 {
		t.Fatalf("Fig10 rows = %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[1] == "-" {
			t.Errorf("showcase %q not found", row[0])
		}
	}
	if len(trails) != 2 {
		t.Fatalf("trails = %d, want 2", len(trails))
	}
	joined := strings.Join(trails, "\n")
	if !strings.Contains(joined, "bundle") {
		t.Error("trails missing bundle render")
	}
}

func TestFig11Shape(t *testing.T) {
	tabs := getRun(t).figs["fig11"]
	if len(tabs) != 2 {
		t.Fatal("Fig11 should return MB and count tables")
	}
	lastMem := tabs[0].Rows[len(tabs[0].Rows)-1]
	if parseCell(t, lastMem[1]) <= parseCell(t, lastMem[2]) {
		t.Error("full memory should exceed partial at stream end")
	}
	lastCnt := tabs[1].Rows[len(tabs[1].Rows)-1]
	fullCnt := parseCell(t, lastCnt[1])
	if int(fullCnt) != testScale().Messages {
		t.Errorf("full keeps all messages: got %v, want %d", fullCnt, testScale().Messages)
	}
}

func TestFig12And13Monotone(t *testing.T) {
	t12 := fig(t, "fig12", 0)
	prev := -1.0
	for _, row := range t12.Rows {
		v := parseCell(t, row[1])
		if v < prev {
			t.Error("cumulative time decreased")
		}
		prev = v
	}
	t13 := fig(t, "fig13", 0)
	lastRow := t13.Rows[len(t13.Rows)-1]
	match, place := parseCell(t, lastRow[1]), parseCell(t, lastRow[2])
	if match <= 0 || place <= 0 {
		t.Errorf("stage times not positive: %v", lastRow)
	}
}

func TestConnBreakdown(t *testing.T) {
	tab := fig(t, "conn-breakdown", 0)
	if len(tab.Rows) == 0 {
		t.Fatal("empty breakdown")
	}
	var total float64
	for _, row := range tab.Rows {
		total += parseCell(t, row[1])
	}
	want := getRun(t).truth.eng.Snapshot().EdgesCreated
	if int64(total) != want {
		t.Errorf("breakdown sums to %v, want %d", total, want)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.AddRow(1, 2.5)
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2.500", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	s := PaperScale()
	if s.Messages != 700_000 || s.SweepMessages != 4_250_000 || s.PoolLimit != 10_000 {
		t.Errorf("PaperScale = %+v", s)
	}
	if len(s.SweepLimits) != 7 || s.SweepLimits[0] != 5_000 || s.SweepLimits[6] != 100_000 {
		t.Errorf("PaperScale sweep limits = %v", s.SweepLimits)
	}
	d := DefaultScale()
	// The default keeps the paper's pool/messages ratio within 2x.
	paperRatio := float64(PaperScale().PoolLimit) / float64(PaperScale().Messages)
	defRatio := float64(d.PoolLimit) / float64(d.Messages)
	if defRatio < paperRatio/2 || defRatio > paperRatio*2 {
		t.Errorf("default pool ratio %v far from paper's %v", defRatio, paperRatio)
	}
}

func TestCheckpointEvery(t *testing.T) {
	s := Scale{Checkpoints: 4}
	if got := s.checkpointEvery(100); got != 25 {
		t.Errorf("checkpointEvery(100) = %d, want 25", got)
	}
	if got := s.checkpointEvery(2); got != 1 {
		t.Errorf("tiny stream stride = %d, want 1", got)
	}
	none := Scale{}
	if got := none.checkpointEvery(100); got != 100 {
		t.Errorf("zero checkpoints stride = %d, want 100 (single sample)", got)
	}
}

func TestShowcaseConfigHasScripts(t *testing.T) {
	cfg := testScale().showcaseConfig()
	if len(cfg.Scripts) != 2 {
		t.Fatalf("showcase scripts = %d, want 2", len(cfg.Scripts))
	}
	names := cfg.Scripts[0].Name + " " + cfg.Scripts[1].Name
	if !strings.Contains(names, "cics") || !strings.Contains(names, "tsunami") {
		t.Errorf("showcase scripts = %q", names)
	}
}
