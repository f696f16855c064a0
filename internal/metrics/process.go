// Process-level metrics: a constant build-info gauge whose labels
// identify what is running, the process start time so scrapes can
// compute uptime and correlate deploys with trace output, and the Go
// runtime's own account of the heap, which is what peak RSS follows.
package metrics

import (
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"time"
)

// RegisterProcess exposes provex_build_info (value 1, version and
// go-version labels — the Prometheus build-info idiom),
// provex_process_start_time_seconds and the provex_runtime_* memory
// families on reg. Call once per registry; registering the same family
// twice panics like any duplicate series.
func RegisterProcess(reg *Registry) {
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				version = s.Value[:12]
			}
		}
	}
	reg.RegisterGaugeFunc("provex_build_info",
		"Constant 1; the labels identify the running build.",
		func() float64 { return 1 },
		"version", version, "go_version", runtime.Version())
	start := float64(time.Now().UnixNano()) / 1e9
	reg.RegisterGaugeFunc("provex_process_start_time_seconds",
		"Unix time the process started, for uptime computation.",
		func() float64 { return start })
	registerRuntime(reg)
}

// registerRuntime exports the runtime/metrics samples that explain a
// node's memory: the bytes the last collection found reachable, the
// heap size at which the next one starts (peak RSS sits near it: about
// twice the live heap at the default GOGC), collections so far, and
// what the runtime holds from the OS. One Read per scrape, in a
// collector; the series read the captured samples.
func registerRuntime(reg *Registry) {
	const (
		live = iota
		goal
		cycles
		total
		released
	)
	samples := []runtimemetrics.Sample{
		live:     {Name: "/gc/heap/live:bytes"},
		goal:     {Name: "/gc/heap/goal:bytes"},
		cycles:   {Name: "/gc/cycles/total:gc-cycles"},
		total:    {Name: "/memory/classes/total:bytes"},
		released: {Name: "/memory/classes/heap/released:bytes"},
	}
	value := func(i int) float64 {
		if samples[i].Value.Kind() != runtimemetrics.KindUint64 {
			return 0 // a runtime without this sample
		}
		return float64(samples[i].Value.Uint64())
	}
	reg.AddCollector(func() { runtimemetrics.Read(samples) })
	reg.RegisterGaugeFunc("provex_runtime_heap_live_bytes",
		"Heap bytes the last garbage collection found reachable.",
		func() float64 { return value(live) })
	reg.RegisterGaugeFunc("provex_runtime_heap_goal_bytes",
		"Heap size at which the next garbage collection starts; resident memory peaks near it.",
		func() float64 { return value(goal) })
	reg.RegisterCounterFunc("provex_runtime_gc_cycles_total",
		"Completed garbage collection cycles.",
		func() float64 { return value(cycles) })
	reg.RegisterGaugeFunc("provex_runtime_mem_mapped_bytes",
		"Memory the Go runtime holds from the OS: every memory class, minus heap returned to the OS.",
		func() float64 { return value(total) - value(released) })
}
