package bundle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"provex/internal/score"
	"provex/internal/tweet"
)

// placeObserved places d by AddScratch and also returns the Eq. 5 total
// the scan reported for the parent it chose, 0 for a root: the score
// its own arithmetic compared, which EdgeScore must equal bit for bit.
func placeObserved(b *Bundle, w score.MessageWeights, d score.Doc, sc *Scratch) (int, PlaceStats, float64) {
	totals := map[int]float64{}
	id, ps := b.AddScratch(w, d, func(pc ParentCandidate) { totals[pc.Node] = pc.Parts.Total }, sc)
	return id, ps, totals[int(b.nodes[id].Parent)]
}

// randomDoc fabricates a message from a deliberately tiny vocabulary so
// indicant overlaps, shared parents, and exact score ties are frequent:
// the regimes where pruned and exhaustive placement could diverge.
func randomDoc(rng *rand.Rand, id tweet.ID, users []string, at time.Time) score.Doc {
	var text string
	user := users[rng.Intn(len(users))]
	if rng.Float64() < 0.2 {
		// Re-share of a random user (sometimes nobody in the bundle).
		text = fmt.Sprintf("so true RT @%s: word%d word%d", users[rng.Intn(len(users))],
			rng.Intn(6), rng.Intn(6))
	} else {
		text = fmt.Sprintf("word%d word%d", rng.Intn(6), rng.Intn(6))
	}
	if rng.Float64() < 0.5 {
		text += fmt.Sprintf(" #tag%d", rng.Intn(4))
	}
	if rng.Float64() < 0.3 {
		text += fmt.Sprintf(" http://u.rl/%d", rng.Intn(4))
	}
	m := tweet.Parse(id, user, at, text)
	return score.NewDoc(m)
}

// TestAddScratchMatchesExhaustive is the placement differential
// property test (DESIGN.md §2g): for randomized workloads and several
// weight regimes — including zero, negative and tie-heavy weights —
// the pruned Algorithm 2 must produce byte-identical parents, edge
// scores and connection types to the exhaustive reference.
func TestAddScratchMatchesExhaustive(t *testing.T) {
	weightSets := map[string]score.MessageWeights{
		"default": score.DefaultMessageWeights(),
		// Zero time weight makes exact score ties common (pure
		// indicant-ratio scores), stressing the tie-break rule.
		"tie-heavy": {URL: 1, Tag: 1, Keyword: 1, RT: 1, Time: 0},
		// All-zero weights: every candidate scores 0 — the winner must
		// be the lowest-id connected node in both implementations.
		"all-zero": {},
		// Negative weights exercise the ceil0 clamp in the bounds: a
		// bound of 0-ish must still dominate negative true scores.
		"negative": {URL: -1, Tag: 0.5, Keyword: -0.25, RT: 2, Time: -0.4},
		// Time-dominant: freshness outranks every indicant class, so
		// bound ordering frequently cannot early-stop.
		"time-heavy": {URL: 0.1, Tag: 0.1, Keyword: 0.1, RT: 0.1, Time: 5},
	}
	users := []string{"ann", "bob", "cat", "dee"}
	for name, w := range weightSets {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				pruned := New(1)
				exhaustive := New(1)
				sc := NewScratch() // shared like the engine's
				at := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
				for i := 0; i < 120; i++ {
					at = at.Add(time.Duration(rng.Intn(3600)) * time.Second)
					d := randomDoc(rng, tweet.ID(i+1), users, at)
					np, ps, total := placeObserved(pruned, w, d, sc)
					ne := exhaustive.AddExhaustive(w, d, nil)
					if np != ne {
						t.Fatalf("seed %d msg %d: node id %d vs %d", seed, i, np, ne)
					}
					a, b := pruned.Nodes()[np], exhaustive.Nodes()[ne]
					if s := exhaustive.EdgeScore(w, ne); a.Parent != b.Parent || math.Float64bits(total) != math.Float64bits(s) || a.Conn != b.Conn {
						t.Fatalf("seed %d msg %d %q: pruned (parent=%d score=%v conn=%v) vs exhaustive (parent=%d score=%v conn=%v)",
							seed, i, d.Text(), a.Parent, total, a.Conn, b.Parent, s, b.Conn)
					}
					if ps.Scored > ps.Candidates || ps.Candidates > ps.Nodes || ps.Skipped() < 0 {
						t.Fatalf("seed %d msg %d: inconsistent stats %+v", seed, i, ps)
					}
				}
				if err := pruned.Validate(); err != nil {
					t.Fatalf("seed %d: pruned bundle invalid: %v", seed, err)
				}
			}
		})
	}
}

// TestAddScratchMatchesExhaustiveOutOfOrder replays the differential
// property with non-chronological message dates and pins the routing.
// An ordered warm-up takes the bundle past PruneMinNodes, so the message
// carrying the first backwards date meets a bundle the time scan owns
// (its tCeil = 1 fallback places it); absorbing it drops timeOrdered,
// and every Add after that takes the reference scan — with results
// byte-identical to the twin bundle's throughout.
func TestAddScratchMatchesExhaustiveOutOfOrder(t *testing.T) {
	w := score.DefaultMessageWeights()
	users := []string{"ann", "bob", "cat", "dee"}
	base := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		pruned := New(1)
		exhaustive := New(1)
		sc := NewScratch()
		for i := 0; i < 120; i++ {
			at := base.Add(24*time.Hour + time.Duration(i)*time.Minute)
			if i > PruneMinNodes+int(seed) {
				// Dates jump freely within a two-day window — backwards
				// moves are frequent.
				at = base.Add(time.Duration(rng.Intn(48*3600)) * time.Second)
			}
			d := randomDoc(rng, tweet.ID(i+1), users, at)
			wasOrdered := pruned.timeOrdered
			np, ps, total := placeObserved(pruned, w, d, sc)
			ne := exhaustive.AddExhaustive(w, d, nil)
			if np != ne {
				t.Fatalf("seed %d msg %d: node id %d vs %d", seed, i, np, ne)
			}
			a, b := pruned.Nodes()[np], exhaustive.Nodes()[ne]
			if s := exhaustive.EdgeScore(w, ne); a.Parent != b.Parent || math.Float64bits(total) != math.Float64bits(s) || a.Conn != b.Conn {
				t.Fatalf("seed %d msg %d %q: pruned (parent=%d score=%v conn=%v) vs exhaustive (parent=%d score=%v conn=%v)",
					seed, i, d.Text(), a.Parent, total, a.Conn, b.Parent, s, b.Conn)
			}
			if want := i < PruneMinNodes || !wasOrdered; ps.Exhaustive != want {
				t.Fatalf("seed %d msg %d (bundle ordered before the Add: %v): PlaceStats.Exhaustive = %v, want %v",
					seed, i, wasOrdered, ps.Exhaustive, want)
			}
		}
		if pruned.timeOrdered {
			t.Fatalf("seed %d: 120 random-dated messages left the bundle time-ordered; fallback path not exercised", seed)
		}
	}
}

// TestAddScratchObserverAgreement checks satellite invariant (b) at the
// bundle layer: the observed (traced) pruned path picks the same parent
// as the unobserved one, and the observer sees exactly the scored
// candidates with connection types matching Classify.
func TestAddScratchObserverAgreement(t *testing.T) {
	w := score.DefaultMessageWeights()
	users := []string{"ann", "bob", "cat"}
	rng := rand.New(rand.NewSource(7))
	plain := New(1)
	observed := New(1)
	at := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 80; i++ {
		at = at.Add(time.Duration(rng.Intn(1800)) * time.Second)
		d := randomDoc(rng, tweet.ID(i+1), users, at)
		plain.AddScratch(w, d, nil, nil)
		var seen []ParentCandidate
		_, ps := observed.AddScratch(w, d, func(pc ParentCandidate) {
			seen = append(seen, pc)
		}, nil)
		a := plain.Nodes()[i]
		b := observed.Nodes()[i]
		if a.Parent != b.Parent || a.Conn != b.Conn {
			t.Fatalf("msg %d: observed placement diverged: %+v vs %+v", i, a, b)
		}
		if len(seen) != ps.Scored {
			t.Fatalf("msg %d: observer saw %d candidates, stats say %d scored", i, len(seen), ps.Scored)
		}
		for _, pc := range seen {
			if want := score.Classify(observed.Nodes()[pc.Node].Doc, d); pc.Conn != want {
				t.Errorf("msg %d node %d: observer conn %v, Classify says %v", i, pc.Node, pc.Conn, want)
			}
		}
	}
}

// TestPruneSkipsUnrelatedNodes pins the point of the node indexes: in a
// large bundle, placing a message that shares an indicant with only a
// few nodes must not score the rest.
func TestPruneSkipsUnrelatedNodes(t *testing.T) {
	w := score.DefaultMessageWeights()
	b := New(1)
	at := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	// 50 disjoint-topic nodes, 3 sharing #game.
	for i := 0; i < 50; i++ {
		b.AddScratch(w, doc(tweet.ID(i+1), "u", fmt.Sprintf("unique%dx unique%dy #only%d", i, i, i), at), nil, nil)
		at = at.Add(time.Minute)
	}
	for i := 50; i < 53; i++ {
		b.AddScratch(w, doc(tweet.ID(i+1), "u", fmt.Sprintf("final inning #game%d #game", i), at), nil, nil)
		at = at.Add(time.Minute)
	}
	_, ps := b.AddScratch(w, doc(99, "v", "what an ending #game", at), nil, nil)
	if ps.Exhaustive {
		t.Fatalf("bundle of %d nodes took the exhaustive fallback", ps.Nodes)
	}
	// Only the 3 #game carriers are candidates at all, and the
	// time-bounded scan may stop after the newest of them once its
	// score beats the decayed ceiling of the older two.
	if ps.Candidates < 1 || ps.Candidates > 3 {
		t.Errorf("candidates = %d, want 1..3 (#game carriers)", ps.Candidates)
	}
	if ps.Skipped() < 50 {
		t.Errorf("skipped = %d, want >= 50", ps.Skipped())
	}
}

// TestSmallBundleFallsBackExhaustive pins the PruneMinNodes escape: a
// tiny bundle must use the reference scan.
func TestSmallBundleFallsBackExhaustive(t *testing.T) {
	w := score.DefaultMessageWeights()
	b := New(1)
	at := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	b.AddScratch(w, doc(1, "u", "hello #x", at), nil, nil)
	_, ps := b.AddScratch(w, doc(2, "v", "again #x", at.Add(time.Minute)), nil, nil)
	if !ps.Exhaustive {
		t.Errorf("size-1 bundle should fall back to the exhaustive scan, stats %+v", ps)
	}
}
