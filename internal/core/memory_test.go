package core

import (
	"runtime"
	"testing"

	"provex/internal/gen"
)

// TestMemEstimateTracksHeap: Stats.MemTotal — Figure 11(a)'s metric,
// summed from the cost constants of metrics/memest.go as structures
// grow — is an estimate of real bytes, so it must stay within 30 % of
// the live heap a bare engine's ingest actually leaves reachable. (It
// was 45 % of it while the model priced a message at 96 B, a node at
// 32 B and every bundle's eight maps at nothing.)
func TestMemEstimateTracksHeap(t *testing.T) {
	const n = 20000
	g := gen.New(gen.DefaultConfig())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := e.Snapshot()
	runtime.KeepAlive(g)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(st.MemTotal()) / float64(heap)
	t.Logf("estimate %d B (bundles %d + index %d), live heap %d B: ratio %.2f",
		st.MemTotal(), st.MemBundles, st.MemIndex, heap, ratio)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("MemTotal is %.0f %% of the live heap (%d of %d B), want within 30 %%",
			100*ratio, st.MemTotal(), heap)
	}
}
