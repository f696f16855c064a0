package experiments

import (
	"time"

	"provex/internal/core"
	"provex/internal/eval"
	"provex/internal/gen"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// runs the ground-truth Full Index next to the ablated variants over
// one shared stream and reports final accuracy/return, bundle counts
// and ingest time.

// ablationVariant pairs a label with a configured engine.
type ablationVariant struct {
	name  string
	eng   *core.Engine
	edges *eval.EdgeSet
}

func newVariant(name string, cfg core.Config) *ablationVariant {
	es := eval.NewEdgeSet()
	return &ablationVariant{name: name, eng: core.New(cfg, nil, es.Observe), edges: es}
}

// runAblation feeds n messages to the truth engine and every variant,
// then tabulates final metrics against the truth.
func runAblation(s Scale, n int, title, notes string, variants []*ablationVariant) *Table {
	g := gen.New(s.genConfig())
	truth := eval.NewEdgeSet()
	full := core.New(core.FullIndexConfig(), nil, truth.Observe)

	for i := 0; i < n; i++ {
		m := g.Next()
		full.Insert(m)
		for _, v := range variants {
			v.eng.Insert(m)
		}
	}

	t := &Table{
		Title:   title,
		Columns: []string{"variant", "accuracy", "return", "bundles_live", "edges", "ingest_s"},
		Notes:   notes,
	}
	addRow := func(name string, eng *core.Engine, edges *eval.EdgeSet) {
		st := eng.Snapshot()
		m := eval.Compare(edges, truth)
		total := st.MatchTime + st.PlaceTime + st.RefineTime
		t.AddRow(name, m.Accuracy, m.Return, st.BundlesLive, st.EdgesCreated, round3(total))
	}
	addRow("full (truth)", full, truth)
	for _, v := range variants {
		addRow(v.name, v.eng, v.edges)
	}
	return t
}

func round3(d time.Duration) float64 {
	return float64(d.Milliseconds()) / 1000
}

// AblationFreshness toggles the Eq. 1 freshness term γ — the paper's
// "a fresh bundle is more suitable to match with" intuition. γ stops
// short of letting recency join bundles on its own: core.New refuses
// weights where keyword + γ pass the threshold.
func AblationFreshness(s Scale) *Table {
	mk := func(name string, timeWeight float64) *ablationVariant {
		cfg := core.PartialIndexConfig(s.PoolLimit)
		cfg.BundleWeights.Time = timeWeight
		return newVariant(name, cfg)
	}
	return runAblation(s, s.Messages/2,
		"Ablation: Eq.1 freshness weight",
		"freshness steers ambiguous messages to the live bundle instead of a stale twin",
		[]*ablationVariant{
			mk("gamma=0.3 (default)", 0.3),
			mk("gamma=0", 0),
		})
}

// AblationRefineTrigger compares the paper's throttled pool check (the
// "lower bound ... avoids frequent bundle scanning") with checking on
// every insert.
func AblationRefineTrigger(s Scale) *Table {
	mk := func(name string, checkEvery int) *ablationVariant {
		cfg := core.PartialIndexConfig(s.PoolLimit)
		cfg.Pool.CheckEvery = checkEvery
		return newVariant(name, cfg)
	}
	return runAblation(s, s.Messages/2,
		"Ablation: refinement trigger cadence (partial index)",
		"per-insert checking buys nothing: refinement only fires over the limit anyway",
		[]*ablationVariant{
			mk("check-every-1024 (default)", 1024),
			mk("check-every-128", 128),
			mk("check-every-1", 1),
		})
}
