package core

import (
	"testing"

	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/tweet"
)

// differentialRun ingests msgs and returns every insert result plus the
// discovered edge set, for equality comparison across engine configs.
type diffEdge struct {
	parent, child tweet.ID
	conn          score.ConnectionType
}

// exhaustive selects the engine's reference implementations of both hot
// stages — the one place the unexported switch is set.
func differentialRun(t *testing.T, cfg Config, exhaustive bool, msgs []*tweet.Message) ([]InsertResult, []diffEdge) {
	t.Helper()
	var edges []diffEdge
	e := New(cfg, nil, func(p, c tweet.ID, conn score.ConnectionType) {
		edges = append(edges, diffEdge{p, c, conn})
	})
	e.exhaustive = exhaustive
	results := make([]InsertResult, 0, len(msgs))
	for _, m := range msgs {
		results = append(results, e.Insert(m))
	}
	return results, edges
}

// TestPrunedMatchesExhaustiveEndToEnd is the whole-engine differential
// property test: over a seeded synthetic stream with pool pressure
// (evictions, refinement, closed bundles), the pruned match+placement
// hot paths must produce bundle assignments, parent nodes and edges
// byte-identical to the reference implementations'. Run under -race by
// ci.sh.
func TestPrunedMatchesExhaustiveEndToEnd(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		g := gen.DefaultConfig()
		g.Seed = seed
		msgs := gen.New(g).Generate(4000)

		base := PartialIndexConfig(150) // small pool: constant eviction churn
		base.Pool.MaxBundleSize = 40    // closed bundles appear in candidate lists

		wantRes, wantEdges := differentialRun(t, base, true, msgs)
		gotRes, gotEdges := differentialRun(t, base, false, msgs)
		compareRuns(t, "pruned", seed, wantRes, wantEdges, gotRes, gotEdges)
	}
}

func compareRuns(t *testing.T, name string, seed int64, wantRes []InsertResult, wantEdges []diffEdge, gotRes []InsertResult, gotEdges []diffEdge) {
	t.Helper()
	for i := range wantRes {
		if gotRes[i] != wantRes[i] {
			t.Fatalf("%s seed %d: message %d diverged: got %+v, want %+v", name, seed, i, gotRes[i], wantRes[i])
		}
	}
	if len(gotEdges) != len(wantEdges) {
		t.Fatalf("%s seed %d: %d edges, want %d", name, seed, len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if gotEdges[i] != wantEdges[i] {
			t.Fatalf("%s seed %d: edge %d diverged: got %+v, want %+v", name, seed, i, gotEdges[i], wantEdges[i])
		}
	}
}

// TestPruningActuallyPrunes guards against the differential test
// passing vacuously: on the same workload the pruned engine must report
// a substantial amount of skipped Eq. 5 and Eq. 1 work.
func TestPruningActuallyPrunes(t *testing.T) {
	g := gen.DefaultConfig()
	msgs := gen.New(g).Generate(4000)
	e := New(PartialIndexConfig(150), nil, nil)
	for _, m := range msgs {
		e.Insert(m)
	}
	if skipped := e.placeSkipped.Value(); skipped == 0 {
		t.Error("placement pruning skipped zero nodes over 4000 messages")
	}
	if pruned := e.matchPruned.Value(); pruned == 0 {
		t.Error("match pruning skipped zero candidates over 4000 messages")
	}
	if scored := e.placeScored.Value(); scored == 0 {
		t.Error("placement scored zero nodes — stats wiring broken")
	}
}
