package experiments

import (
	"fmt"

	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/shard"
)

// Fig13Sweep is the long-stream variant of Figure 13: one Partial Index
// node ingests up to max messages while the cumulative per-stage
// timers are sampled at 100 evenly spaced checkpoints. It exists apart
// from Run's pass because the pruning guardrail needs a long
// stream (BENCH_PR6.json runs 1M messages) at fine checkpoint
// granularity, and carrying the Full Index and Bundle Limit engines
// through it would triple the cost for series nothing reads.
//
// The output is the regression anchor for DESIGN.md §2g: with the
// candidate-pruned hot paths both the bundle_match and
// message_placement columns must grow near-linearly, where the
// pre-pruning implementation bent quadratic (BENCH_PR4.json: 677×
// placement growth over a 10× stream).
//
// The node is the sharded round engine (DESIGN.md §2i) at any shard
// count; one shard is the serial apply loop. The checkpoints sample the
// aggregate Snapshot, whose stage timers sum CPU time across shards, so
// the same CheckLinear guardrail applies — sharding must not bend the
// pruned match/placement curves back toward quadratic. The per-shard
// pools are ceil-divisions of the same global limit.
func Fig13Sweep(s Scale, max, shards int) *Fig13SweepResult {
	g := gen.New(s.genConfig())
	e, err := shard.New(core.PartialIndexConfig(s.PoolLimit),
		shard.Options{Shards: shards, Sequential: true}, nil, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: fig13 sweep: %v", err))
	}

	every := max / 100
	if every < 1 {
		every = 1
	}
	res := &Fig13SweepResult{Scale: s, Max: max, Shards: e.Shards()}
	for i := 1; i <= max; i++ {
		if err := e.Ingest(g.Next()); err != nil {
			panic(fmt.Sprintf("experiments: fig13 sweep ingest: %v", err))
		}
		if i%every == 0 || i == max {
			if err := e.Flush(); err != nil {
				panic(fmt.Sprintf("experiments: fig13 sweep flush: %v", err))
			}
			st := e.Snapshot()
			res.Points = append(res.Points, SweepPoint{
				Messages:  i,
				MatchSec:  st.MatchTime.Seconds(),
				PlaceSec:  st.PlaceTime.Seconds(),
				RefineSec: st.RefineTime.Seconds(),
			})
		}
	}
	return res
}

// SweepPoint is one checkpoint of the Figure 13 sweep: cumulative
// seconds spent per pipeline stage after Messages inserts.
type SweepPoint struct {
	Messages  int     `json:"messages"`
	MatchSec  float64 `json:"bundle_match_s"`
	PlaceSec  float64 `json:"message_placement_s"`
	RefineSec float64 `json:"memory_refinement_s"`
}

// Fig13SweepResult carries the sweep checkpoints plus enough context to
// interpret them; Table renders the figure, CheckLinear is the
// perf-smoke guardrail.
type Fig13SweepResult struct {
	Scale  Scale        `json:"scale"`
	Max    int          `json:"max"`
	Shards int          `json:"shards,omitempty"`
	Points []SweepPoint `json:"points"`
}

// Table renders the sweep in the Fig13 column layout.
func (r *Fig13SweepResult) Table() *Table {
	engine := "partial index"
	if r.Shards > 1 {
		engine = fmt.Sprintf("partial index, %d shards", r.Shards)
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig 13 sweep: cumulative stage time (seconds, %s, %d messages)", engine, r.Max),
		Columns: []string{"messages", "bundle_match", "message_placement", "memory_refinement"},
		Notes:   "paper shape: all stages linear and steady; pruned hot paths must keep match/placement linear through the full stream",
	}
	for _, p := range r.Points {
		t.AddRow(p.Messages, p.MatchSec, p.PlaceSec, p.RefineSec)
	}
	return t
}

// noiseFloorSec guards CheckLinear against judging stages whose total
// cost is within scheduler jitter: below this cumulative time a stage
// always passes.
const noiseFloorSec = 0.2

// CheckLinear asserts the perf-smoke guardrail: cumulative
// bundle_match and message_placement time at the final checkpoint must
// not exceed factor × the linear extrapolation from the half-stream
// checkpoint. For a truly linear stage final/half ≈ 2, so factor 1.5
// allows up to 3×; the pre-pruning quadratic placement measured ~4×
// per doubling. Stages under the noise floor pass unconditionally.
func (r *Fig13SweepResult) CheckLinear(factor float64) error {
	if len(r.Points) < 2 {
		return fmt.Errorf("fig13 sweep: %d checkpoints, need at least 2 for a linearity check", len(r.Points))
	}
	final := r.Points[len(r.Points)-1]
	// The nearest checkpoint to the half-way mark (exact at the default
	// 100-checkpoint granularity).
	half := r.Points[0]
	for _, p := range r.Points {
		if abs(p.Messages-final.Messages/2) < abs(half.Messages-final.Messages/2) {
			half = p
		}
	}
	linear := float64(final.Messages) / float64(half.Messages)
	for _, st := range []struct {
		name        string
		half, final float64
	}{
		{"bundle_match", half.MatchSec, final.MatchSec},
		{"message_placement", half.PlaceSec, final.PlaceSec},
	} {
		if st.final < noiseFloorSec || st.half <= 0 {
			continue
		}
		if ratio := st.final / st.half; ratio > factor*linear {
			return fmt.Errorf("%s cumulative time %.3fs at %d msgs is %.2f× the %.3fs at %d msgs (linear ≈ %.2f×, allowed ≤ %.2f×)",
				st.name, st.final, final.Messages, ratio, st.half, half.Messages, linear, factor*linear)
		}
	}
	return nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
