package metrics

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRuntimeMemoryFamilies: RegisterProcess exports the runtime's view
// of the heap, re-read on every scrape, with values that hang together:
// something is live after a collection, the goal is at or above it, the
// runtime maps more than the live heap, and the cycle counter moves.
func TestRuntimeMemoryFamilies(t *testing.T) {
	reg := NewRegistry()
	RegisterProcess(reg)
	scrape := func() map[string]float64 {
		var b strings.Builder
		if err := reg.Expose(&b); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(b.String(), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "provex_runtime_") {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				out[name] = v
			}
		}
		return out
	}
	runtime.GC()
	first := scrape()
	live, goal := first["provex_runtime_heap_live_bytes"], first["provex_runtime_heap_goal_bytes"]
	mapped, cycles := first["provex_runtime_mem_mapped_bytes"], first["provex_runtime_gc_cycles_total"]
	if len(first) != 4 || live <= 0 || goal < live || mapped <= live || cycles < 1 {
		t.Errorf("runtime families do not hang together: %v", first)
	}
	runtime.GC()
	if again := scrape()["provex_runtime_gc_cycles_total"]; again <= cycles {
		t.Errorf("gc cycles %v then %v across a forced collection: not re-read per scrape", cycles, again)
	}
}
