package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/trace"
)

// TestTracedIngestConsistency ingests with sampling on while readers
// race the ingest goroutine (run it under -race), then replays every
// recorded decision against the engine's actual insert results and the
// recorder's own invariants:
//
//   - the decision agrees with InsertResult (bundle, node, connection,
//     new-bundle verdict);
//   - the winner is the argmax over the non-skipped candidates,
//     strictly above the threshold, ties to the lowest bundle ID;
//   - the margin is top1−top2 (threshold-floored) recomputed from the
//     recorded candidate scores;
//   - the chosen parent is the first maximum of the recorded
//     Algorithm 2 scores.
func TestTracedIngestConsistency(t *testing.T) {
	eng := New(PartialIndexConfig(400), nil, nil)
	rec := trace.New(trace.Options{SampleEvery: 1, Buffer: 8192})
	eng.SetTracer(rec)

	g := gen.New(gen.DefaultConfig())
	const n = 3000
	results := make(map[uint64]InsertResult, n)

	// Concurrent readers exercise the recorder's locking while ingest
	// commits: this is the /explain-under-live-ingest scenario.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Pace the readers: the point is interleaving reads with
			// commits, not starving the ingest loop (CI may be 1-CPU).
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				rec.Recent(50)
				rec.Refinements(50)
				if d, ok := rec.Explain(i % n); ok && d.MsgID != i%n {
					t.Errorf("Explain(%d) returned decision for %d", i%n, d.MsgID)
					return
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		m := g.Next()
		results[uint64(m.ID)] = eng.InsertPrepared(Prepare(m))
	}
	close(stop)
	wg.Wait()

	ds := rec.Recent(rec.Buffer())
	if len(ds) == 0 {
		t.Fatal("no decisions recorded at SampleEvery=1")
	}
	joins := 0
	for _, d := range ds {
		res, ok := results[d.MsgID]
		if !ok {
			t.Fatalf("decision for unknown message %d", d.MsgID)
		}
		if d.NewBundle == res.Created && d.Bundle != uint64(res.Bundle) {
			t.Fatalf("msg %d: decision bundle %d != result %d", d.MsgID, d.Bundle, res.Bundle)
		}
		if d.NewBundle != res.Created {
			t.Fatalf("msg %d: NewBundle=%v but Created=%v", d.MsgID, d.NewBundle, res.Created)
		}
		if d.Node != res.Node || d.Conn != res.Conn.String() {
			t.Fatalf("msg %d: node/conn %d/%s != result %d/%s",
				d.MsgID, d.Node, d.Conn, res.Node, res.Conn)
		}
		if len(d.Candidates) != d.CandidatesFetched {
			t.Fatalf("msg %d: %d candidates recorded, %d fetched",
				d.MsgID, len(d.Candidates), d.CandidatesFetched)
		}

		// Recompute the match verdict from the recorded scores.
		var winner uint64
		top1, top2, found := d.Threshold, d.Threshold, false
		for _, c := range d.Candidates {
			if c.Skipped != "" {
				continue
			}
			switch {
			case c.Total > top1 || (c.Total == top1 && found && c.Bundle < winner):
				if c.Total > top1 {
					top2 = top1
				}
				top1, winner, found = c.Total, c.Bundle, true
			case c.Total > top2:
				top2 = c.Total
			}
		}
		if d.NewBundle {
			if found {
				t.Fatalf("msg %d: new bundle but candidate %d scored %v > threshold %v",
					d.MsgID, winner, top1, d.Threshold)
			}
		} else {
			joins++
			if !found || winner != d.Winner {
				t.Fatalf("msg %d: recomputed winner %d (found=%v) != recorded %d",
					d.MsgID, winner, found, d.Winner)
			}
			if d.BestScore != top1 || d.Margin != top1-top2 {
				t.Fatalf("msg %d: best/margin %v/%v != recomputed %v/%v",
					d.MsgID, d.BestScore, d.Margin, top1, top1-top2)
			}
			if d.Margin < 0 {
				t.Fatalf("msg %d: negative margin %v", d.MsgID, d.Margin)
			}
		}

		// Recompute the Algorithm 2 parent: maximum score, ties to the
		// lowest node id. (The time scan records Parents newest-first,
		// not in node order, so "first maximum" is not the right
		// recompute — the id tie-break is.)
		if len(d.Parents) == 0 {
			if d.Parent != int(bundle.NoParent) {
				t.Fatalf("msg %d: parent %d with no recorded candidates", d.MsgID, d.Parent)
			}
		} else {
			best := d.Parents[0]
			for _, p := range d.Parents[1:] {
				if p.Total > best.Total || (p.Total == best.Total && p.Node < best.Node) {
					best = p
				}
			}
			if d.Parent != best.Node || d.ParentScore != best.Total {
				t.Fatalf("msg %d: parent %d score %v != recomputed %d score %v",
					d.MsgID, d.Parent, d.ParentScore, best.Node, best.Total)
			}
			if d.Conn != best.Conn {
				t.Fatalf("msg %d: conn %s != parent candidate conn %s", d.MsgID, d.Conn, best.Conn)
			}
		}
	}
	if joins == 0 {
		t.Error("stream produced no joins; consistency checks did not exercise the match path")
	}

	// The partial-index pool (limit 400) must have refined: every event
	// carries a valid reason and the ranked ones a 1-based rank.
	evs := rec.Refinements(rec.Buffer())
	if len(evs) == 0 {
		t.Fatal("no refinement events despite pool limit 400")
	}
	for _, ev := range evs {
		switch ev.Reason {
		case "aging-tiny":
			if ev.Flushed || ev.Rank != 0 {
				t.Fatalf("aging-tiny event flushed=%v rank=%d", ev.Flushed, ev.Rank)
			}
		case "closed":
			if !ev.Flushed || ev.Rank != 0 {
				t.Fatalf("closed event flushed=%v rank=%d", ev.Flushed, ev.Rank)
			}
		case "ranked":
			if !ev.Flushed || ev.Rank < 1 {
				t.Fatalf("ranked event flushed=%v rank=%d", ev.Flushed, ev.Rank)
			}
		default:
			t.Fatalf("unknown refine reason %q", ev.Reason)
		}
		if ev.Size < 0 || ev.AgeHours < 0 {
			t.Fatalf("refine event with negative size/age: %+v", ev)
		}
	}
}

// TestTracedMatchesUntraced pins the zero-observer-effect contract:
// the same stream ingested with and without tracing lands every
// message in the same bundle, node and connection.
func TestTracedMatchesUntraced(t *testing.T) {
	build := func(tracing bool) []InsertResult {
		eng := New(PartialIndexConfig(400), nil, nil)
		if tracing {
			eng.SetTracer(trace.New(trace.Options{SampleEvery: 1, Buffer: 1024}))
		}
		g := gen.New(gen.DefaultConfig())
		out := make([]InsertResult, 0, 3000)
		for i := 0; i < 3000; i++ {
			out = append(out, eng.InsertPrepared(Prepare(g.Next())))
		}
		return out
	}
	plain, traced := build(false), build(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("message %d: traced result %+v != untraced %+v", i, traced[i], plain[i])
		}
	}
}

// TestTraceRecordsPruning pins the truthfulness of /explain under the
// pruned hot paths (DESIGN.md §2g): every sampled decision must account
// for the match candidates the upper bound skipped and the bundle nodes
// the placement scan never scored, the winner must never be a pruned
// candidate, and at least some decisions must actually show pruning (so
// the assertions are not vacuous). What /explain shows is the score
// that was compared: every recorded breakdown sums to its Total, and
// the traced winner's Total is, bit for bit, the edge score an untraced
// engine derives for the node of the same message.
func TestTraceRecordsPruning(t *testing.T) {
	cfg := PartialIndexConfig(400)
	eng := New(cfg, nil, nil)
	rec := trace.New(trace.Options{SampleEvery: 1, Buffer: 8192})
	eng.SetTracer(rec)
	untraced := New(cfg, nil, nil)
	stored := map[uint64]float64{} // message → edge score of the untraced engine's node

	g := gen.New(gen.DefaultConfig())
	for i := 0; i < 3000; i++ {
		m := g.Next()
		eng.Insert(m)
		res := untraced.Insert(m)
		stored[uint64(m.ID)] = untraced.Pool().Get(res.Bundle).Expand().EdgeScore(cfg.MsgWeights, res.Node)
	}

	sawCandPrune, sawParentPrune := false, false
	for _, d := range rec.Recent(rec.Buffer()) {
		for _, c := range d.Candidates {
			if sum := c.URL + c.Hashtag + c.Keyword + c.RT + c.Freshness; math.Abs(sum-c.Total) > score.BoundSlop {
				t.Fatalf("msg %d: Eq. 1 components of bundle %d sum to %v, Total %v", d.MsgID, c.Bundle, sum, c.Total)
			}
		}
		for _, p := range d.Parents {
			if sum := p.U + p.H + p.T + p.Keyword + p.RT; math.Abs(sum-p.Total) > score.BoundSlop {
				t.Fatalf("msg %d: Eq. 5 components of node %d sum to %v, Total %v", d.MsgID, p.Node, sum, p.Total)
			}
			if p.Node == d.Parent && p.Total != stored[d.MsgID] {
				t.Fatalf("msg %d: traced winner's Total %v, the untraced run stored %v", d.MsgID, p.Total, stored[d.MsgID])
			}
		}
		if d.ParentScore != stored[d.MsgID] {
			t.Fatalf("msg %d: traced parent score %v, the untraced run stored %v", d.MsgID, d.ParentScore, stored[d.MsgID])
		}
		prunedN := 0
		for _, c := range d.Candidates {
			if c.Skipped != "pruned" {
				continue
			}
			prunedN++
			if !d.NewBundle && c.Bundle == d.Winner {
				t.Fatalf("msg %d: winning bundle %d was recorded as pruned", d.MsgID, d.Winner)
			}
		}
		if d.CandidatesPruned != prunedN {
			t.Fatalf("msg %d: CandidatesPruned %d != %d pruned entries", d.MsgID, d.CandidatesPruned, prunedN)
		}
		if d.ParentsScored != len(d.Parents) {
			t.Fatalf("msg %d: ParentsScored %d != %d recorded parents", d.MsgID, d.ParentsScored, len(d.Parents))
		}
		if d.ParentsPruned < 0 {
			t.Fatalf("msg %d: negative ParentsPruned %d", d.MsgID, d.ParentsPruned)
		}
		if prunedN > 0 {
			sawCandPrune = true
		}
		if d.ParentsPruned > 0 {
			sawParentPrune = true
		}
	}
	if !sawCandPrune {
		t.Error("no decision recorded a pruned match candidate over 3000 messages")
	}
	if !sawParentPrune {
		t.Error("no decision recorded pruned placement nodes over 3000 messages")
	}
}
