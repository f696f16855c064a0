package provex_test

// One benchmark per table/figure of the paper's evaluation (Section
// VI), each reading the corresponding experiment at bench scale and
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

// sharedFigures caches one experiments.Run of every figure but Fig. 10
// across the figure benchmarks, so -bench=. replays the stream once,
// as the paper derives Figures 6–13 and the ablations from the same
// simulation. sync.Once rather than a nil check: `go test -bench` can
// run benchmark functions on fresh goroutines (and -cpu fans out
// further), so a plain lazy-init global would race between the first
// two figure benchmarks.
var (
	sharedFiguresOnce sync.Once
	sharedFigures     map[string][]*experiments.Table
)

// figure returns the tables of the named figure of the shared run.
func figure(b *testing.B, name string) []*experiments.Table {
	b.Helper()
	sharedFiguresOnce.Do(func() {
		sharedFigures = map[string][]*experiments.Table{}
		for _, f := range experiments.Run(benchScale(), "6", "7", "8", "9", "11", "12", "13", "ablations") {
			sharedFigures[f.Name] = f.Tables
		}
	})
	return sharedFigures[name]
}

// BenchmarkFig06BundleCharacters reports Figure 6: the bundle size
// and time-span distributions of the unlimited full index.
func BenchmarkFig06BundleCharacters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var total float64
		for _, row := range figure(b, "fig6")[0].Rows {
			total += cell(b, row[1])
		}
		b.ReportMetric(total, "bundles")
	}
}

// reportLast reports, on every iteration, the cells of the last row of
// table t of the named figure: column i+1 under units[i], where an
// empty unit skips its column.
func reportLast(b *testing.B, name string, t int, units ...string) {
	for i := 0; i < b.N; i++ {
		last := lastRow(figure(b, name)[t])
		for c, unit := range units {
			if unit != "" {
				b.ReportMetric(cell(b, last[c+1]), unit)
			}
		}
	}
}

// BenchmarkFig07BundleGrowth reports Figure 7: live-bundle counts per
// method over the stream.
func BenchmarkFig07BundleGrowth(b *testing.B) {
	reportLast(b, "fig7", 0, "full_bundles", "partial_bundles", "limit_bundles")
}

// BenchmarkFig08AccuracyReturn reports Figure 8: accuracy and return
// of the partial methods against the full-index ground truth.
func BenchmarkFig08AccuracyReturn(b *testing.B) {
	reportLast(b, "fig8", 0, "partial_acc", "limit_acc")
	reportLast(b, "fig8", 1, "partial_ret", "limit_ret")
}

// BenchmarkFig09PoolSweep reports Figure 9: accuracy across the bench
// scale's three bundle pool limits.
func BenchmarkFig09PoolSweep(b *testing.B) {
	reportLast(b, "fig9", 0, "acc_smallest_pool", "", "acc_largest_pool")
}

// BenchmarkFig10Showcases regenerates Figure 10 on its own scripted
// stream: the showcase events are ingested, retrieved and their trails
// rendered.
func BenchmarkFig10Showcases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Run(benchScale(), "10")[0]
		if len(f.Trails) == 0 {
			b.Fatal("no showcase trails")
		}
		b.ReportMetric(cell(b, f.Tables[0].Rows[0][2]), "cics_bundle_size")
		b.ReportMetric(cell(b, f.Tables[0].Rows[1][2]), "tsunami_bundle_size")
	}
}

// BenchmarkFig11MemoryCost reports Figure 11: estimated memory per
// method.
func BenchmarkFig11MemoryCost(b *testing.B) {
	reportLast(b, "fig11", 0, "full_MB", "partial_MB", "limit_MB")
}

// BenchmarkFig12TimeCost reports Figure 12: cumulative maintenance
// time per method.
func BenchmarkFig12TimeCost(b *testing.B) {
	reportLast(b, "fig12", 0, "full_s", "partial_s", "limit_s")
}

// BenchmarkFig13StageTime reports Figure 13: cumulative per-stage
// time of the partial index.
func BenchmarkFig13StageTime(b *testing.B) {
	reportLast(b, "fig13", 0, "match_s", "place_s", "refine_s")
}

// Ablation benches — the design choices DESIGN.md calls out.

func BenchmarkAblationFreshness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figure(b, "ablations")[0]
		b.ReportMetric(cell(b, t.Rows[1][1]), "acc_default_gamma")
		b.ReportMetric(cell(b, t.Rows[2][1]), "acc_gamma0")
	}
}

func BenchmarkAblationRefineTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figure(b, "ablations")[1]
		b.ReportMetric(cell(b, t.Rows[1][5]), "ingest_s_throttled")
		b.ReportMetric(cell(b, lastRow(t)[5]), "ingest_s_every_insert")
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
