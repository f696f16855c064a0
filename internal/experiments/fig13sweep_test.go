package experiments

import (
	"strings"
	"testing"
)

// TestFig13Sweep runs a miniature sweep and pins the shape of its
// output: evenly spaced monotone checkpoints, cumulative (never
// decreasing) stage times, and a passing linearity guardrail — tiny
// runs sit under the noise floor, so CheckLinear must not flake here.
func TestFig13Sweep(t *testing.T) {
	s := DefaultScale()
	s.PoolLimit = 200
	const max = 3000
	r := Fig13Sweep(s, max, 1)

	if len(r.Points) != 100 {
		t.Fatalf("got %d checkpoints, want 100", len(r.Points))
	}
	if last := r.Points[len(r.Points)-1]; last.Messages != max {
		t.Fatalf("final checkpoint at %d messages, want %d", last.Messages, max)
	}
	prev := SweepPoint{}
	for i, p := range r.Points {
		if p.Messages <= prev.Messages {
			t.Fatalf("checkpoint %d: messages %d not increasing past %d", i, p.Messages, prev.Messages)
		}
		if p.MatchSec < prev.MatchSec || p.PlaceSec < prev.PlaceSec || p.RefineSec < prev.RefineSec {
			t.Fatalf("checkpoint %d: cumulative stage time decreased: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	if p := r.Points[len(r.Points)-1]; p.MatchSec <= 0 || p.PlaceSec <= 0 {
		t.Fatalf("final checkpoint has zero stage time: %+v", p)
	}

	if err := r.CheckLinear(1.5); err != nil {
		t.Errorf("CheckLinear(1.5) on a %d-message run: %v", max, err)
	}

	tab := r.Table()
	if len(tab.Rows) != len(r.Points) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(r.Points))
	}
	for _, col := range []string{"messages", "bundle_match", "message_placement", "memory_refinement"} {
		found := false
		for _, c := range tab.Columns {
			found = found || c == col
		}
		if !found {
			t.Errorf("table missing column %q (have %v)", col, tab.Columns)
		}
	}
	if !strings.Contains(tab.Title, "Fig 13") {
		t.Errorf("table title %q does not mention Fig 13", tab.Title)
	}
}

// TestFig13SweepCheckLinearCatchesQuadratic feeds CheckLinear a
// fabricated quadratic curve and expects rejection — the guardrail must
// actually guard.
func TestFig13SweepCheckLinearCatchesQuadratic(t *testing.T) {
	r := &Fig13SweepResult{Max: 100_000}
	for i := 1; i <= 10; i++ {
		n := i * 10_000
		x := float64(n) / 10_000
		r.Points = append(r.Points, SweepPoint{
			Messages: n,
			MatchSec: x * 0.05,    // linear: fine
			PlaceSec: x * x * 0.1, // quadratic: 4× per doubling
		})
	}
	err := r.CheckLinear(1.5)
	if err == nil {
		t.Fatal("CheckLinear accepted a quadratic placement curve")
	}
	if !strings.Contains(err.Error(), "message_placement") {
		t.Errorf("error %q does not name the offending stage", err)
	}

	// The same curve below the noise floor must pass.
	for i := range r.Points {
		r.Points[i].PlaceSec /= 100
		r.Points[i].MatchSec /= 100
	}
	if err := r.CheckLinear(1.5); err != nil {
		t.Errorf("CheckLinear rejected a sub-noise-floor run: %v", err)
	}
}
