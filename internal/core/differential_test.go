package core

import (
	"fmt"
	"slices"
	"testing"

	"provex/internal/bundle"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/sumindex"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

// differentialRun ingests msgs and returns every insert result plus the
// discovered edge set, for equality comparison across engine configs.
type diffEdge struct {
	parent, child tweet.ID
	conn          score.ConnectionType
}

// engineMode picks the implementations a differential run uses.
type engineMode int

const (
	production engineMode = iota
	// exhaustive is the engine's reference implementation of both hot
	// stages over the production fetch.
	exhaustive
	// uncapped is exhaustive over referenceCandidates: every class, no
	// fanout cut.
	uncapped
)

// generate materialises the first n messages of the stream cfg
// generates.
func generate(cfg gen.Config, n int) []*tweet.Message {
	g := gen.New(cfg)
	out := make([]*tweet.Message, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// differentialRun is the one place the unexported switches are set.
func differentialRun(t *testing.T, cfg Config, mode engineMode, msgs []*tweet.Message) ([]InsertResult, []diffEdge) {
	t.Helper()
	var edges []diffEdge
	e := New(cfg, nil, func(p, c tweet.ID, conn score.ConnectionType) {
		edges = append(edges, diffEdge{p, c, conn})
	})
	e.exhaustive = mode != production
	if mode == uncapped {
		e.refFetch = func(d score.Doc) []sumindex.Candidate { return referenceCandidates(e.SummaryIndex(), d) }
	}
	results := make([]InsertResult, 0, len(msgs))
	for _, m := range msgs {
		results = append(results, e.Insert(m))
	}
	return results, edges
}

// referenceCandidates is Algorithm 1 step 1 as the paper states it: every
// bundle sharing any indicant with the message — hashtag, URL, keyword
// or the re-shared user — with no list skipped, in ascending ID. The
// exhaustive loop scores every candidate, so no hit counts are needed.
func referenceCandidates(ix *sumindex.Index, d score.Doc) []sumindex.Candidate {
	var ids []bundle.ID
	walk := func(terms ...termdict.ID) {
		for _, term := range terms {
			ids = ix.AppendPostings(ids, term)
		}
	}
	tags, urls, keywords := d.Runs()
	walk(tags...)
	walk(urls...)
	walk(keywords...)
	if rt, ok := d.RTUser(); ok {
		walk(rt)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([]sumindex.Candidate, len(ids))
	for i, id := range ids {
		out[i].ID = id
	}
	return out
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
		msgs := generate(g, 4000)

		base := PartialIndexConfig(150) // small pool: constant eviction churn
		base.Pool.MaxBundleSize = 40    // closed bundles appear in candidate lists

		wantRes, wantEdges := differentialRun(t, base, exhaustive, msgs)
		gotRes, gotEdges := differentialRun(t, base, production, msgs)
		compareRuns(t, "pruned", seed, wantRes, wantEdges, gotRes, gotEdges)
	}
}

// TestFetchMatchesUncappedReference pins the fetch as lossless: fetching
// only from URL, hashtag and re-shared-user postings, with the fanout
// cut on, decides every message as the uncapped reference does, under
// the full index and under pool pressure with closed bundles. The
// reference scores every bundle sharing a keyword, which is slow, so
// the four runs go in parallel.
func TestFetchMatchesUncappedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 160 000 messages, half of them through the uncapped reference")
	}
	partial := PartialIndexConfig(150) // small pool: constant eviction churn
	partial.Pool.MaxBundleSize = 40    // closed bundles appear in candidate lists
	for _, seed := range []int64{1, 42} {
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"full", FullIndexConfig()}, {"partial", partial}} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				g := gen.DefaultConfig()
				g.Seed = seed
				msgs := generate(g, 20_000)
				wantRes, wantEdges := differentialRun(t, c.cfg, uncapped, msgs)
				gotRes, gotEdges := differentialRun(t, c.cfg, production, msgs)
				compareRuns(t, c.name, seed, wantRes, wantEdges, gotRes, gotEdges)
			})
		}
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
	msgs := generate(g, 4000)
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
