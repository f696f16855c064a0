package experiments

import (
	"fmt"
	"runtime"
	"time"

	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/pipeline"
	"provex/internal/stream"
	"provex/internal/tweet"
)

// IngestBench measures ingest throughput of the serial engine against
// the parallel pipeline (prepare fan-out) on the scale's main stream — the engineering companion to the paper's
// Figure 13 stage breakdown. Both runs ingest clone-identical streams
// and the resulting snapshots are asserted equal (modulo timers), so
// the speedup column never reports a run that changed bundle
// assignment.
func IngestBench(s Scale, workers int) *Table {
	if workers < 2 {
		workers = 4
	}
	g := gen.New(s.genConfig())
	msgs := make([]*tweet.Message, s.Messages)
	for i := range msgs {
		msgs[i] = g.Next()
	}

	run := func(w int) (float64, core.Stats) {
		clones := stream.CloneSlice(msgs)
		cfg := core.PartialIndexConfig(s.PoolLimit)
		cfg.Parallel = core.ParallelOptions{Workers: w}
		e := core.New(cfg, nil, nil)
		start := time.Now()
		n, err := pipeline.IngestAll(e, stream.NewSliceSource(clones))
		if err != nil || n != len(clones) {
			panic(fmt.Sprintf("experiments: ingest bench: (%d, %v)", n, err))
		}
		return float64(n) / time.Since(start).Seconds(), e.Snapshot()
	}

	serialRate, serialStats := run(1)
	parRate, parStats := run(workers)

	if serialStats.Messages != parStats.Messages ||
		serialStats.BundlesCreated != parStats.BundlesCreated ||
		serialStats.EdgesCreated != parStats.EdgesCreated {
		panic(fmt.Sprintf("experiments: parallel ingest diverged from serial:\nserial:   %+v\nparallel: %+v",
			serialStats, parStats))
	}

	t := &Table{
		Title:   fmt.Sprintf("Ingest throughput, serial vs parallel pipeline (n=%d, GOMAXPROCS=%d)", s.Messages, runtime.GOMAXPROCS(0)),
		Columns: []string{"variant", "prepare_workers", "msgs_per_s", "speedup"},
		Notes: "identical bundle state verified across both runs; speedup requires spare cores — " +
			"the apply stage stays single-writer, so prepare fan-out only helps with GOMAXPROCS > 1",
	}
	t.AddRow("serial", 1, fmt.Sprintf("%.0f", serialRate), fmt.Sprintf("%.2fx", 1.0))
	t.AddRow("parallel", workers, fmt.Sprintf("%.0f", parRate), fmt.Sprintf("%.2fx", parRate/serialRate))
	return t
}
