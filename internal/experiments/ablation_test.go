package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"provex/internal/core"
)

// checkAblation asserts the common structure: a truth row plus the
// variants, every accuracy/return within [0,1], truth row at 1/1.
func checkAblation(t *testing.T, tab *Table, wantRows int) {
	t.Helper()
	if len(tab.Rows) != wantRows {
		t.Fatalf("%s: rows = %d, want %d", tab.Title, len(tab.Rows), wantRows)
	}
	for i, row := range tab.Rows {
		acc, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad accuracy cell %q", row[1])
		}
		ret, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad return cell %q", row[2])
		}
		if acc < 0 || acc > 1 || ret < 0 || ret > 1 {
			t.Errorf("%s row %d out of range: %v", tab.Title, i, row)
		}
		if i == 0 && (acc != 1 || ret != 1) {
			t.Errorf("truth row should score 1/1: %v", row)
		}
	}
}

func TestAblationFreshness(t *testing.T) {
	checkAblation(t, fig(t, "ablations", 0), 3)
}

// TestAblationRefineTrigger: the "(default)" row runs the Partial
// Index's own cadence and names it, and the freshness ablation's
// default, the same configuration, reads the same; the fixed cadences
// follow.
func TestAblationRefineTrigger(t *testing.T) {
	tab := fig(t, "ablations", 1)
	checkAblation(t, tab, 5)
	every := core.PartialIndexConfig(testScale().PoolLimit).Pool.CheckEvery
	if got, want := tab.Rows[1][0], fmt.Sprintf("check-every-%d (default)", every); got != want {
		t.Errorf("row 1 is %q, want %q", got, want)
	}
	if fresh := fig(t, "ablations", 0).Rows[1]; !slices.Equal(fresh[1:5], tab.Rows[1][1:5]) {
		t.Errorf("the default cadence reads %v, the freshness ablation's default %v", tab.Rows[1][1:5], fresh[1:5])
	}
}
