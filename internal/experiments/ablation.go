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

// AblationCandidateFetch compares scoring every summary-index candidate
// (the paper's description) against capping at the top-K hit-ranked
// candidates.
func AblationCandidateFetch(s Scale) *Table {
	mk := func(name string, maxCand int) *ablationVariant {
		cfg := core.PartialIndexConfig(s.PoolLimit)
		cfg.MaxCandidates = maxCand
		return newVariant(name, cfg)
	}
	return runAblation(s, s.Messages/2,
		"Ablation: candidate fetch policy (partial index)",
		"capping scored candidates trades little accuracy for bounded match cost",
		[]*ablationVariant{
			mk("score-all", 0),
			mk("top-32", 32),
			mk("top-8", 8),
			mk("top-2", 2),
		})
}

// AblationFreshness toggles the Eq. 1 freshness term γ — the paper's
// "a fresh bundle is more suitable to match with" intuition.
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
			mk("gamma=1.0", 1.0),
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

// AblationKeywordClass disables the summary index's keyword class,
// leaving only hashtags, URLs and the RT user class to fetch candidate
// bundles. Since the bounded keyword term of Eq. 1 cannot cross the
// join threshold on its own (see score.DefaultBundleWeights), the
// keyword class mostly inflates candidate lists: this ablation measures
// its match-cost price against its (small) routing benefit.
func AblationKeywordClass(s Scale) *Table {
	with := newVariant("keywords on (default)", core.PartialIndexConfig(s.PoolLimit))
	without := newVariant("keywords off", core.PartialIndexConfig(s.PoolLimit))
	without.eng.SetKeywordClass(false)
	return runAblation(s, s.Messages/2,
		"Ablation: summary-index keyword class",
		"keyword postings inflate candidate fetch; Eq.1's bounded keyword term keeps their routing effect small",
		[]*ablationVariant{with, without})
}
