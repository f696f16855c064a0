package query

import (
	"runtime"
	"testing"
	"unsafe"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
)

// TestLiveHeapPerMessage is the memory budget of the serving shape: an
// unbounded engine behind a Processor (message index included) may
// keep this many reachable bytes per ingested message on the paper's
// crawl shape. The figure is HeapAlloc after a forced collection, which
// is what the process's peak RSS follows at about 2× (the GC goal).
//
// History, B/msg: 1 884 with eight maps per bundle; 1 194 when bundles
// below PruneMinNodes got the row-table summary; 980 when the message
// index became ordinals, byte-coded postings in slabs and a term table
// of its own, and keyword slices were cut to fit. The budget is about
// 10 % above the last. A change that needs more should say where the
// bytes go (EXPERIMENTS.md has the by-owner table) and move the budget
// knowingly.
func TestLiveHeapPerMessage(t *testing.T) {
	const (
		n      = 20000
		budget = 1100
	)
	// Most bundles never hold a second message, so the struct itself is
	// a per-message cost: 128 B is id, node slice, the two summary forms,
	// two dates, flags and the estimate — one date per fact, no field
	// only tests reach.
	if got := unsafe.Sizeof(bundle.Bundle{}); got != 128 {
		t.Errorf("unsafe.Sizeof(bundle.Bundle{}) = %d, want 128", got)
	}
	g := gen.New(gen.DefaultConfig())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	for i := 0; i < n; i++ {
		p.Insert(g.Next())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(g)
	perMsg := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d live heap bytes per message (budget %d)", perMsg, budget)
	if perMsg > budget {
		t.Errorf("%d live heap bytes per message after %d messages, budget %d", perMsg, n, budget)
	}
}
