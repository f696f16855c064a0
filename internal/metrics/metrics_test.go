package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Counter = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent Counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("Gauge = %d, want 7", got)
	}
}

func TestStageTimer(t *testing.T) {
	var s StageTimer
	s.Observe(10 * time.Millisecond)
	s.Observe(30 * time.Millisecond)
	if got := s.Total(); got != 40*time.Millisecond {
		t.Errorf("Total = %v, want 40ms", got)
	}
	if got := s.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	s.Time(func() { time.Sleep(time.Millisecond) })
	if s.Count() != 3 || s.Total() <= 40*time.Millisecond {
		t.Errorf("Time did not accumulate: count=%d total=%v", s.Count(), s.Total())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []int64{0, 1, 2, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	buckets, total, mean, max := h.Snapshot()
	if total != 8 {
		t.Fatalf("total = %d, want 8", total)
	}
	wantCounts := []int64{2, 2, 2, 2} // <=1, <=10, <=100, overflow
	for i, b := range buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if max != 5000 {
		t.Errorf("max = %d, want 5000", max)
	}
	if mean <= 0 {
		t.Errorf("mean = %v, want > 0", mean)
	}
}

func TestPow2Histogram(t *testing.T) {
	h := NewPow2Histogram(4) // bounds 1,2,4,8
	buckets, _, _, _ := h.Snapshot()
	want := []int64{1, 2, 4, 8, -1}
	for i, b := range buckets {
		if b.UpperBound != want[i] {
			t.Errorf("bound %d = %d, want %d", i, b.UpperBound, want[i])
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(50)
	s := h.String()
	if !strings.Contains(s, "<=10") || !strings.Contains(s, "<=100") {
		t.Errorf("String output missing buckets: %q", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewPow2Histogram(10)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1); v <= 500; v++ {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	_, total, _, _ := h.Snapshot()
	if total != 2000 {
		t.Errorf("concurrent total = %d, want 2000", total)
	}
}

func TestMemEstimator(t *testing.T) {
	var m MemEstimator
	m.Add(1 << 20)
	if m.Bytes() != 1<<20 {
		t.Errorf("Bytes = %d, want %d", m.Bytes(), 1<<20)
	}
	m.Sub(1 << 19)
	if m.Bytes() != 1<<19 {
		t.Errorf("Bytes = %d, want %d", m.Bytes(), 1<<19)
	}
}

func TestStringCosts(t *testing.T) {
	if got := StringCost("abcd"); got != StringOverhead+4 {
		t.Errorf("StringCost = %d", got)
	}
}

// Property: histogram total always equals the number of observations
// and the sum of bucket counts.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []int64) bool {
		h := NewPow2Histogram(16)
		for _, v := range vals {
			h.Observe(v)
		}
		buckets, total, _, _ := h.Snapshot()
		var sum int64
		for _, b := range buckets {
			sum += b.Count
		}
		return total == int64(len(vals)) && sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
