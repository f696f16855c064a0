package experiments

import (
	"strconv"
	"testing"
)

func ablationScale() Scale {
	s := testScale()
	s.Messages = 8000
	return s
}

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
	checkAblation(t, AblationFreshness(ablationScale()), 3)
}

func TestAblationRefineTrigger(t *testing.T) {
	checkAblation(t, AblationRefineTrigger(ablationScale()), 4)
}
