package trace

import (
	"testing"
)

// TestHotPathZeroAlloc is the acceptance gate for tracing on the
// ingest path: a nil recorder, a disabled recorder and an enabled but
// non-sampling call must all add zero allocations per Begin.
func TestHotPathZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		if d := nilRec.Begin(1); d != nil {
			t.Fatal("nil recorder sampled")
		}
	}); n != 0 {
		t.Errorf("nil recorder Begin allocates %.1f per op, want 0", n)
	}

	disabled := New(Options{SampleEvery: 0, Buffer: 8})
	if n := testing.AllocsPerRun(1000, func() {
		if d := disabled.Begin(1); d != nil {
			t.Fatal("disabled recorder sampled")
		}
	}); n != 0 {
		t.Errorf("disabled Begin allocates %.1f per op, want 0", n)
	}

	// Enabled with a huge period: every call takes the unsampled branch
	// (counter increment + modulo) and must still be allocation-free.
	sparse := New(Options{SampleEvery: 1 << 30, Buffer: 8})
	if n := testing.AllocsPerRun(1000, func() {
		if d := sparse.Begin(1); d != nil {
			t.Fatal("sparse recorder sampled within the test window")
		}
	}); n != 0 {
		t.Errorf("unsampled Begin allocates %.1f per op, want 0", n)
	}
}

func TestSampling(t *testing.T) {
	r := New(Options{SampleEvery: 3, Buffer: 16})
	sampled := 0
	for i := 1; i <= 9; i++ {
		if d := r.Begin(uint64(i)); d != nil {
			sampled++
			r.Commit(d)
		}
	}
	if sampled != 3 {
		t.Errorf("sampled %d of 9 at SampleEvery=3", sampled)
	}
	if got := len(r.Recent(100)); got != 3 {
		t.Errorf("Recent holds %d decisions, want 3", got)
	}
}

func TestCommitMargins(t *testing.T) {
	r := New(Options{SampleEvery: 1, Buffer: 16})

	// Join with two scored candidates: margin = top1 - top2.
	d := r.Begin(1)
	d.Threshold = 0.55
	d.Candidates = []CandidateScore{
		{Bundle: 10, Total: 0.9},
		{Bundle: 11, Total: 0.7},
		{Bundle: 12, Total: 0.2, Skipped: "closed"}, // never scored
	}
	d.Winner, d.Bundle = 10, 10
	r.Commit(d)
	if d.BestScore != 0.9 || !almost(d.Margin, 0.2) {
		t.Errorf("join margin: best=%v margin=%v", d.BestScore, d.Margin)
	}

	// Join with one scored candidate: top2 floors at the threshold.
	d = r.Begin(2)
	d.Threshold = 0.55
	d.Candidates = []CandidateScore{{Bundle: 10, Total: 0.8}}
	d.Winner, d.Bundle = 10, 10
	r.Commit(d)
	if !almost(d.Margin, 0.25) {
		t.Errorf("single-candidate margin = %v, want 0.25", d.Margin)
	}

	// New bundle with a losing candidate: margin = threshold - best.
	d = r.Begin(3)
	d.Threshold = 0.55
	d.NewBundle = true
	d.Candidates = []CandidateScore{{Bundle: 10, Total: 0.4}}
	r.Commit(d)
	if !almost(d.BestScore, 0.4) || !almost(d.Margin, 0.15) {
		t.Errorf("new-bundle margin: best=%v margin=%v", d.BestScore, d.Margin)
	}

	// New bundle with nothing scored: margin = threshold.
	d = r.Begin(4)
	d.Threshold = 0.55
	d.NewBundle = true
	r.Commit(d)
	if d.BestScore != 0 || !almost(d.Margin, 0.55) {
		t.Errorf("empty new-bundle margin: best=%v margin=%v", d.BestScore, d.Margin)
	}
}

func almost(got, want float64) bool {
	diff := got - want
	return diff < 1e-12 && diff > -1e-12
}

func TestRingRotationAndExplain(t *testing.T) {
	r := New(Options{SampleEvery: 1, Buffer: 4})
	for i := 1; i <= 6; i++ {
		d := r.Begin(uint64(i))
		d.Bundle = uint64(100 + i)
		r.Commit(d)
	}
	// Ring of 4 after 6 commits: 1 and 2 rotated out.
	for _, gone := range []uint64{1, 2} {
		if _, ok := r.Explain(gone); ok {
			t.Errorf("Explain(%d) found a rotated-out decision", gone)
		}
	}
	for _, present := range []uint64{3, 4, 5, 6} {
		d, ok := r.Explain(present)
		if !ok || d.MsgID != present || d.Bundle != 100+present {
			t.Errorf("Explain(%d) = %+v, %v", present, d, ok)
		}
	}
	recent := r.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d, want 4", len(recent))
	}
	for i, d := range recent { // newest first: 6, 5, 4, 3
		if want := uint64(6 - i); d.MsgID != want {
			t.Errorf("Recent[%d].MsgID = %d, want %d", i, d.MsgID, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].MsgID != 6 {
		t.Errorf("Recent(2) = %+v", got)
	}
	if seq := recent[0].Seq; seq != 6 {
		t.Errorf("newest Seq = %d, want 6", seq)
	}
}

func TestRefinementRing(t *testing.T) {
	r := New(Options{SampleEvery: 0, Buffer: 3}) // decisions off, refines still on
	for i := 1; i <= 5; i++ {
		r.RecordRefine(RefineEvent{Bundle: uint64(i), Reason: "ranked", Rank: i})
	}
	evs := r.Refinements(10)
	if len(evs) != 3 {
		t.Fatalf("Refinements returned %d, want 3", len(evs))
	}
	for i, ev := range evs { // newest first: 5, 4, 3
		if want := uint64(5 - i); ev.Bundle != want || ev.Seq != want {
			t.Errorf("Refinements[%d] = %+v, want bundle/seq %d", i, ev, want)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.SampleEvery() != 0 || r.Buffer() != 0 {
		t.Error("nil recorder reports enabled state")
	}
	r.Commit(nil)
	r.RecordRefine(RefineEvent{})
	if _, ok := r.Explain(1); ok {
		t.Error("nil Explain found something")
	}
	if r.Recent(5) != nil || r.Refinements(5) != nil {
		t.Error("nil reads returned data")
	}
}

func TestComputeDigest(t *testing.T) {
	if g := ComputeDigest(nil, 0); g.Decisions != 0 || g.NearTie != DefaultNearTie {
		t.Errorf("empty digest = %+v", g)
	}
	ds := []*Decision{
		{NewBundle: false, Margin: 0.30},
		{NewBundle: false, Margin: 0.01}, // near-tie
		{NewBundle: false, Margin: 0.20},
		{NewBundle: true, Margin: 0.55},
	}
	g := ComputeDigest(ds, 0)
	if g.Decisions != 4 {
		t.Errorf("decisions = %d", g.Decisions)
	}
	if !almost(g.NewBundleRate, 0.25) {
		t.Errorf("new-bundle rate = %v", g.NewBundleRate)
	}
	if !almost(g.MeanMargin, (0.30+0.01+0.20)/3) {
		t.Errorf("mean margin = %v", g.MeanMargin)
	}
	if !almost(g.NearTieRate, 1.0/3) {
		t.Errorf("near-tie rate = %v", g.NearTieRate)
	}
	// Custom near-tie threshold sweeps in the 0.20 join too.
	if g := ComputeDigest(ds, 0.25); !almost(g.NearTieRate, 2.0/3) {
		t.Errorf("near-tie rate at 0.25 = %v", g.NearTieRate)
	}
}
