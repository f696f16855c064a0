package provex_test

// One benchmark per table/figure of the paper's evaluation (Section
// VI), each wrapping the corresponding experiment at bench scale and
// reporting the figure's headline quantities as custom metrics. Run
// with:
//
//	go test -bench=. -benchmem
//
// Full-size regeneration (the paper's 700k/4.25M message runs) goes
// through cmd/provbench -scale paper; these benchmarks keep the suite
// executable in CI time while exercising the identical code paths.

import (
	"strconv"
	"sync"
	"testing"

	"provex/internal/core"
	"provex/internal/experiments"
	"provex/internal/gen"
	"provex/internal/tweet"
)

// benchScale shrinks the experiment streams so a full -bench=. pass
// stays in the minutes range.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Messages:      20_000,
		SweepMessages: 20_000,
		PoolLimit:     400,
		BundleLimit:   200,
		SweepLimits:   []int{80, 400, 1600},
		Checkpoints:   5,
		Seed:          1,
	}
}

// cell parses a table cell as float for metric reporting.
func cell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// lastRow returns the final row of a table.
func lastRow(t *experiments.Table) []string {
	return t.Rows[len(t.Rows)-1]
}

// sharedThree caches one three-method pass across the figure-view
// benchmarks so -bench=. ingests the main stream once, mirroring how
// the paper derives Figures 7/8/11/12/13 from the same simulation.
// sync.Once rather than a nil check: `go test -bench` can run benchmark
// functions on fresh goroutines (and -cpu fans out further), so a plain
// lazy-init global would race between the first two figure benchmarks.
var (
	sharedThreeOnce sync.Once
	sharedThree     *experiments.ThreeResult
)

func three(b *testing.B) *experiments.ThreeResult {
	b.Helper()
	sharedThreeOnce.Do(func() {
		sharedThree = experiments.RunThreeMethods(benchScale())
	})
	return sharedThree
}

// BenchmarkFig06BundleCharacters regenerates Figure 6: the bundle size
// and time-span distributions of an unlimited full-index run.
func BenchmarkFig06BundleCharacters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.Fig6(benchScale())
		var total float64
		for _, row := range tables[0].Rows {
			total += cell(b, row[1])
		}
		b.ReportMetric(total, "bundles")
	}
}

// BenchmarkFig07BundleGrowth regenerates Figure 7: live-bundle counts
// per method over the stream.
func BenchmarkFig07BundleGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7(three(b))
		last := lastRow(t)
		b.ReportMetric(cell(b, last[1]), "full_bundles")
		b.ReportMetric(cell(b, last[2]), "partial_bundles")
		b.ReportMetric(cell(b, last[3]), "limit_bundles")
	}
}

// BenchmarkFig08AccuracyReturn regenerates Figure 8: accuracy and
// return of the partial methods against the full-index ground truth.
func BenchmarkFig08AccuracyReturn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig8(three(b))
		acc, ret := lastRow(tabs[0]), lastRow(tabs[1])
		b.ReportMetric(cell(b, acc[1]), "partial_acc")
		b.ReportMetric(cell(b, acc[2]), "limit_acc")
		b.ReportMetric(cell(b, ret[1]), "partial_ret")
		b.ReportMetric(cell(b, ret[2]), "limit_ret")
	}
}

// BenchmarkFig09PoolSweep regenerates Figure 9: accuracy across bundle
// pool limits.
func BenchmarkFig09PoolSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9(benchScale())
		last := lastRow(t)
		b.ReportMetric(cell(b, last[1]), "acc_smallest_pool")
		b.ReportMetric(cell(b, last[len(last)-1]), "acc_largest_pool")
	}
}

// BenchmarkFig10Showcases regenerates Figure 10: the scripted showcase
// events are ingested, retrieved and their trails rendered.
func BenchmarkFig10Showcases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, trails := experiments.Fig10(benchScale())
		if len(trails) == 0 {
			b.Fatal("no showcase trails")
		}
		b.ReportMetric(cell(b, t.Rows[0][2]), "cics_bundle_size")
		b.ReportMetric(cell(b, t.Rows[1][2]), "tsunami_bundle_size")
	}
}

// BenchmarkFig11MemoryCost regenerates Figure 11: estimated memory and
// in-memory message counts per method.
func BenchmarkFig11MemoryCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig11(three(b))
		mem := lastRow(tabs[0])
		b.ReportMetric(cell(b, mem[1]), "full_MB")
		b.ReportMetric(cell(b, mem[2]), "partial_MB")
		b.ReportMetric(cell(b, mem[3]), "limit_MB")
	}
}

// BenchmarkFig12TimeCost regenerates Figure 12: cumulative maintenance
// time per method.
func BenchmarkFig12TimeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig12(three(b))
		last := lastRow(t)
		b.ReportMetric(cell(b, last[1]), "full_s")
		b.ReportMetric(cell(b, last[2]), "partial_s")
		b.ReportMetric(cell(b, last[3]), "limit_s")
	}
}

// BenchmarkFig13StageTime regenerates Figure 13: cumulative per-stage
// time of the partial index.
func BenchmarkFig13StageTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig13(three(b))
		last := lastRow(t)
		b.ReportMetric(cell(b, last[1]), "match_s")
		b.ReportMetric(cell(b, last[2]), "place_s")
		b.ReportMetric(cell(b, last[3]), "refine_s")
	}
}

// Ablation benches — the design choices DESIGN.md calls out.

func BenchmarkAblationFreshness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationFreshness(benchScale())
		b.ReportMetric(cell(b, t.Rows[1][1]), "acc_default_gamma")
		b.ReportMetric(cell(b, t.Rows[2][1]), "acc_gamma0")
	}
}

func BenchmarkAblationRefineTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationRefineTrigger(benchScale())
		b.ReportMetric(cell(b, t.Rows[1][5]), "ingest_s_throttled")
		b.ReportMetric(cell(b, t.Rows[3][5]), "ingest_s_every_insert")
	}
}

// Ingest throughput bench — the serial engine's insert loop. Run with
// -benchmem to see the allocation effect of the postings
// slab/interning overhaul too.

// ingestMsgs lazily generates one shared bench stream; iterations clone
// it because engines annotate and retain the messages they ingest.
var (
	ingestMsgsOnce sync.Once
	ingestMsgs     []*tweet.Message
)

func benchStream(b *testing.B) []*tweet.Message {
	b.Helper()
	ingestMsgsOnce.Do(func() {
		s := benchScale()
		g := gen.New(gen.DefaultConfig())
		ingestMsgs = make([]*tweet.Message, s.Messages)
		for i := range ingestMsgs {
			ingestMsgs[i] = g.Next()
		}
	})
	return ingestMsgs
}

// BenchmarkIngestSerial is the single-threaded baseline ingest path.
func BenchmarkIngestSerial(b *testing.B) {
	msgs := benchStream(b)
	s := benchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := core.New(core.PartialIndexConfig(s.PoolLimit), nil, nil)
		b.StartTimer()
		for _, m := range msgs {
			e.Insert(m)
		}
	}
	b.ReportMetric(float64(b.N*len(msgs))/b.Elapsed().Seconds(), "msgs/s")
}
