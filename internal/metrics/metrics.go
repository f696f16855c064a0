// Package metrics instruments the provenance engine: counters, stage
// timers (the paper's Figure 13 splits ingest cost into bundle match,
// message placement and memory refinement), histograms for the bundle
// characteristics study (Figure 6), and a deterministic memory
// estimator used for the Figure 11 memory-cost curves.
//
// The estimator exists because Go's runtime heap statistics measure the
// whole process, and the paper's comparison needs the footprint of the
// provenance structures alone, independent of GC timing and test
// harness overhead ("to measure this memory metric independently of
// hardware configuration").
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//provex:hotpath per-message increment on the untraced ingest path
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
//
//provex:hotpath per-message increment on the untraced ingest path
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
//
//provex:hotpath queue-depth style updates inside the ingest loop
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
//
//provex:hotpath in-flight tracking on every HTTP request
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// StageTimer accumulates wall time spent in one pipeline stage.
// Figure 13 plots its cumulative value per stage over the stream.
type StageTimer struct {
	total atomic.Int64 // nanoseconds
	count atomic.Int64
}

// Time runs fn and charges its duration to the stage.
func (s *StageTimer) Time(fn func()) {
	start := time.Now()
	fn()
	s.Observe(time.Since(start))
}

// Observe charges d to the stage.
//
//provex:hotpath per-stage timing around every ingested message
func (s *StageTimer) Observe(d time.Duration) {
	s.total.Add(int64(d))
	s.count.Add(1)
}

// Total returns accumulated stage time.
func (s *StageTimer) Total() time.Duration { return time.Duration(s.total.Load()) }

// Count returns how many observations were charged.
func (s *StageTimer) Count() int64 { return s.count.Load() }

// Histogram counts observations into caller-defined bucket upper bounds
// (inclusive), plus an overflow bucket. It is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64 // sorted ascending; immutable after NewHistogram
	counts []int64 // len(bounds)+1, last = overflow; guarded by mu
	total  int64   // guarded by mu
	sum    int64   // guarded by mu
	max    int64   // guarded by mu
}

// NewHistogram builds a histogram over the given inclusive upper
// bounds, which must be sorted ascending and non-empty.
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// NewPow2Histogram builds power-of-two bounds 1,2,4,...,2^(n-1) —
// the natural scale for the paper's bundle-size distribution plot.
func NewPow2Histogram(n int) *Histogram {
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = 1 << uint(i)
	}
	return NewHistogram(bounds...)
}

// Observe records v.
//
//provex:hotpath WAL fsync latency and HTTP request duration feed here
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Open-coded binary search: the sort.Search form costs a closure
	// header per call, which hotpathalloc (and the zero-alloc budget)
	// refuse on this path.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Bucket describes one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is inclusive; the overflow bucket reports
	// UpperBound == -1.
	UpperBound int64
	Count      int64
}

// Snapshot returns the buckets, total observation count, mean and max.
func (h *Histogram) Snapshot() (buckets []Bucket, total int64, mean float64, max int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets = make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		ub := int64(-1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		buckets = append(buckets, Bucket{UpperBound: ub, Count: c})
	}
	if h.total > 0 {
		mean = float64(h.sum) / float64(h.total)
	}
	return buckets, h.total, mean, h.max
}

// String renders an ASCII sketch, useful in example output and -v tests.
func (h *Histogram) String() string {
	buckets, total, mean, max := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "histogram n=%d mean=%.1f max=%d\n", total, mean, max)
	var peak int64 = 1
	for _, bk := range buckets {
		if bk.Count > peak {
			peak = bk.Count
		}
	}
	for _, bk := range buckets {
		if bk.Count == 0 {
			continue
		}
		label := "overflow"
		if bk.UpperBound >= 0 {
			label = fmt.Sprintf("<=%d", bk.UpperBound)
		}
		bar := strings.Repeat("#", int(1+bk.Count*40/peak))
		fmt.Fprintf(&b, "  %-10s %8d %s\n", label, bk.Count, bar)
	}
	return b.String()
}
