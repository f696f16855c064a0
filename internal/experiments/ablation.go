package experiments

import (
	"fmt"
	"time"

	"provex/internal/core"
	"provex/internal/eval"
)

// Ablation studies for the design choices DESIGN.md calls out. Their
// variants ride the pass to Messages/2 and are scored against the truth
// there: final accuracy/return, bundle counts and ingest time.

// addAblations adds both ablations.
//
// Freshness toggles the Eq. 1 freshness term γ — the paper's "a fresh
// bundle is more suitable to match with" intuition. γ stops short of
// letting recency join bundles on its own: core.New refuses weights
// where keyword + γ pass the threshold.
//
// Refine trigger compares the paper's throttled pool check (the "lower
// bound ... avoids frequent bundle scanning") at the Partial Index's own
// cadence — core.PartialIndexConfig's, the one every other figure's
// Partial Index runs at — with a sparser one, a denser one and checking
// on every insert.
func (p *pass) addAblations() {
	gamma := func(name string, timeWeight float64) *variant {
		cfg := core.PartialIndexConfig(p.s.PoolLimit)
		cfg.BundleWeights.Time = timeWeight
		return newVariant(name, cfg)
	}
	check := func(name string, checkEvery int) *variant {
		cfg := core.PartialIndexConfig(p.s.PoolLimit)
		cfg.Pool.CheckEvery = checkEvery
		return newVariant(name, cfg)
	}
	freshness := []*variant{gamma("gamma=0.3 (default)", 0.3), gamma("gamma=0", 0)}
	cadence := core.PartialIndexConfig(p.s.PoolLimit).Pool.CheckEvery
	trigger := []*variant{check(fmt.Sprintf("check-every-%d (default)", cadence), cadence)}
	for _, every := range []int{1024, 128, 1} {
		if every != cadence {
			trigger = append(trigger, check(fmt.Sprintf("check-every-%d", every), every))
		}
	}
	n := p.s.Messages / 2
	p.add(n, n, append(freshness, trigger...), func(int) {
		p.figs["ablations"] = []*Table{
			p.ablation("Ablation: Eq.1 freshness weight",
				"freshness steers ambiguous messages to the live bundle instead of a stale twin",
				freshness),
			p.ablation("Ablation: refinement trigger cadence (partial index)",
				"per-insert checking buys nothing: refinement only fires over the limit anyway",
				trigger),
		}
	})
}

// ablation tabulates the truth and variants as they stand.
func (p *pass) ablation(title, notes string, variants []*variant) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"variant", "accuracy", "return", "bundles_live", "edges", "ingest_s"},
		Notes:   notes,
	}
	for _, v := range append([]*variant{{"full (truth)", p.truth.eng, p.truth.edges}}, variants...) {
		st := v.eng.Snapshot()
		m := eval.Compare(v.edges, p.truth.edges)
		total := st.MatchTime + st.PlaceTime + st.RefineTime
		t.AddRow(v.name, m.Accuracy, m.Return, st.BundlesLive, st.EdgesCreated, round3(total))
	}
	return t
}

func round3(d time.Duration) float64 {
	return float64(d.Milliseconds()) / 1000
}
