package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)

func msg(id tweet.ID, user, text string, at time.Time) *tweet.Message {
	return tweet.Parse(id, user, at, text)
}

func TestInsertGroupsRelatedMessages(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	r1 := e.Insert(msg(1, "a", "game seven tonight #redsox", base))
	r2 := e.Insert(msg(2, "b", "unbelievable inning #redsox", base.Add(5*time.Minute)))
	r3 := e.Insert(msg(3, "c", "totally different #politics story", base.Add(6*time.Minute)))

	if !r1.Created {
		t.Error("first message should open a bundle")
	}
	if r2.Created || r2.Bundle != r1.Bundle {
		t.Errorf("shared-tag message split off: %+v vs %+v", r2, r1)
	}
	if !r3.Created || r3.Bundle == r1.Bundle {
		t.Errorf("unrelated message joined the bundle: %+v", r3)
	}
	if r2.Conn != score.ConnHashtag {
		t.Errorf("conn = %v, want hashtag", r2.Conn)
	}
}

func TestInsertRTRouting(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	r1 := e.Insert(msg(1, "amaliebenjamin", "lester ovation from the crowd", base))
	// The re-share has no tags/URLs; the user class must route it.
	r2 := e.Insert(msg(2, "fan", "RT @amaliebenjamin: lester ovation from the crowd", base.Add(time.Minute)))
	if r2.Bundle != r1.Bundle {
		t.Fatalf("RT routed to bundle %d, want %d", r2.Bundle, r1.Bundle)
	}
	if r2.Conn != score.ConnRT {
		t.Errorf("conn = %v, want rt", r2.Conn)
	}
}

func TestEdgeCallback(t *testing.T) {
	type edge struct{ p, c tweet.ID }
	var edges []edge
	e := New(FullIndexConfig(), nil, func(p, c tweet.ID, _ score.ConnectionType) {
		edges = append(edges, edge{p, c})
	})
	e.Insert(msg(1, "a", "start #topic", base))
	e.Insert(msg(2, "b", "follow #topic", base.Add(time.Minute)))
	e.Insert(msg(3, "c", "isolated #other", base.Add(2*time.Minute)))
	if len(edges) != 1 || edges[0] != (edge{1, 2}) {
		t.Errorf("edges = %v, want [{1 2}]", edges)
	}
	if got := e.Snapshot().EdgesCreated; got != 1 {
		t.Errorf("EdgesCreated = %d, want 1", got)
	}
}

func TestThresholdOpensNewBundle(t *testing.T) {
	cfg := FullIndexConfig()
	cfg.BundleWeights.Threshold = 100 // unreachable
	e := New(cfg, nil, nil)
	e.Insert(msg(1, "a", "same thing #tag", base))
	r := e.Insert(msg(2, "b", "same thing #tag", base.Add(time.Minute)))
	if !r.Created {
		t.Error("with an unreachable threshold every message must open a bundle")
	}
}

func TestClosedBundleNotMatched(t *testing.T) {
	cfg := FullIndexConfig()
	cfg.Pool.MaxBundleSize = 2
	e := New(cfg, nil, nil)
	e.Insert(msg(1, "a", "game #redsox", base))
	e.Insert(msg(2, "b", "game again #redsox", base.Add(time.Minute)))
	// Bundle hit its size cap and closed; the next related message must
	// open a fresh bundle rather than panic or join.
	r := e.Insert(msg(3, "c", "game still #redsox", base.Add(2*time.Minute)))
	if !r.Created {
		t.Error("message joined a closed bundle")
	}
}

// TestNewRefusesKeywordOnlyJoins: candidate fetch walks only hard
// indicants, so weights under which keywords plus freshness could pass
// the join threshold are refused at construction, and weights that sit
// exactly on the condition's edge are accepted.
func TestNewRefusesKeywordOnlyJoins(t *testing.T) {
	refused := func(w score.BundleWeights) (p any) {
		defer func() { p = recover() }()
		cfg := FullIndexConfig()
		cfg.BundleWeights = w
		New(cfg, nil, nil)
		return nil
	}
	w := score.DefaultBundleWeights()
	if p := refused(w); p != nil {
		t.Fatalf("default weights refused: %v", p)
	}
	gamma1 := w
	gamma1.Time = 1.0 // the old freshness ablation's row: recency alone joins
	if refused(gamma1) == nil {
		t.Error("Time 1.0 accepted: 0.22 + 1.0 > 0.55")
	}
	edge := w
	edge.Threshold = w.Keyword + w.Time + score.BoundSlop
	if p := refused(edge); p != nil {
		t.Errorf("threshold at keyword + time + slop refused: %v", p)
	}
	edge.Threshold = w.Keyword + w.Time
	if refused(edge) == nil {
		t.Error("threshold at keyword + time accepted: a sum a few ulps over it would join")
	}
	negative := w
	negative.Keyword, negative.Time = -1, 0.5 // a negative weight can only lower a score
	if p := refused(negative); p != nil {
		t.Errorf("negative keyword weight refused: %v", p)
	}
}

func TestPartialIndexEviction(t *testing.T) {
	cfg := PartialIndexConfig(10)
	cfg.Pool.RefineAge = time.Minute
	cfg.Pool.RefineSize = 2
	cfg.Pool.LowerLimit = 3
	cfg.Pool.CheckEvery = 1
	e := New(cfg, nil, nil)
	var docs []score.Doc
	for i := 0; i < 40; i++ {
		// Disjoint hard indicants per message so each opens a bundle; the
		// one shared keyword puts every bundle on one list, so eviction
		// deletes from lists that stay.
		text := fmt.Sprintf("topic%dword lamppost #t%d", i, i)
		m := msg(tweet.ID(i+1), fmt.Sprintf("user%d", i), text, base.Add(time.Duration(i)*time.Hour))
		docs = append(docs, score.NewDoc(m))
		e.Insert(m)
	}
	if got := e.Pool().Len(); got > 10 {
		t.Errorf("pool size %d exceeds limit 10", got)
	}
	if e.Snapshot().Pool.Refines == 0 {
		t.Error("no refinement ran")
	}
	// delete_index(b): the summary index holds exactly what the surviving
	// bundles carry, in every class — users included, which evict takes
	// from AppendTerms like the other three. Every term of a live bundle
	// lists it, and every posting of every term the stream carried names
	// a live bundle that carries the term.
	ix := e.SummaryIndex()
	var live []bundle.ID
	e.Pool().All(func(b *bundle.Bundle) {
		live = append(live, b.ID())
		tags, urls, keys, users := b.Indicants()
		for c, terms := range [termdict.NumClasses][]string{
			termdict.Tag: tags, termdict.URL: urls, termdict.Keyword: keys, termdict.User: users,
		} {
			for _, term := range terms {
				if !slices.Contains(ix.AppendPostings(nil, termdict.Lookup(termdict.Class(c), term)), b.ID()) {
					t.Errorf("live bundle %d carries %s %q but is not on its list", b.ID(), termdict.Class(c), term)
				}
			}
		}
	})
	for _, d := range docs {
		for _, term := range d.Indicants() {
			for _, id := range ix.AppendPostings(nil, term) {
				if b := e.Pool().Get(id); b == nil || b.Count(term) == 0 {
					t.Errorf("%s %q lists bundle %d, which is evicted or does not carry it", term.Class(), termdict.Term(term), id)
				}
			}
		}
	}
	slices.Sort(live)
	if shared := ix.AppendPostings(nil, termdict.Lookup(termdict.Keyword, "lamppost")); len(live) < 2 || !slices.Equal(shared, live) {
		t.Errorf("the shared keyword lists %v, the pool holds %v", shared, live)
	}
}

// poolWalk sums what Snapshot reports as running totals; the pool
// table's bytes, which Snapshot adds to the bundles', are no total.
func poolWalk(e *Engine) (mem, msgs int64) {
	e.Pool().All(func(b *bundle.Bundle) {
		mem += b.MemBytes()
		msgs += int64(b.Size())
	})
	return mem + e.Pool().TableBytes(), msgs
}

// TestSnapshotTotalsMatchWalk: MemBundles and MessagesInMemory come from
// the pool's running totals; through refinement passes, a checkpoint
// round trip (bundles re-enter through Adopt) and further ingest on the
// restored engine they equal a fresh walk over the pool.
func TestSnapshotTotalsMatchWalk(t *testing.T) {
	check := func(e *Engine, when string) {
		t.Helper()
		st := e.Snapshot()
		if mem, msgs := poolWalk(e); st.MemBundles != mem || st.MessagesInMemory != msgs {
			t.Fatalf("%s: snapshot says %d B / %d messages, a walk finds %d B / %d",
				when, st.MemBundles, st.MessagesInMemory, mem, msgs)
		}
	}
	g := genSmall(11)
	cfg := PartialIndexConfig(300)
	e := New(cfg, nil, nil)
	for i := 0; i < 6000; i++ {
		e.Insert(g.Next())
	}
	if e.Snapshot().Pool.Refines == 0 {
		t.Fatal("no refinement ran")
	}
	check(e, "after ingest")
	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreCheckpoint(cfg, nil, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	check(restored, "after restore")
	for i := 0; i < 2000; i++ {
		restored.Insert(g.Next())
	}
	check(restored, "after ingest on the restored engine")
}

// TestSnapshotDoesNotWalkThePool: /stats and every /metrics scrape call
// Snapshot under the service's read lock, so its cost must not grow
// with the pool. Compared against the walk it used to be, on the same
// host in the same test: the walk visits thousands of bundles, Snapshot
// reads a handful of counters.
func TestSnapshotDoesNotWalkThePool(t *testing.T) {
	g := genSmall(12)
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < 20000; i++ {
		e.Insert(g.Next())
	}
	best := func(fn func()) time.Duration {
		min := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < 50; i++ {
				fn()
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	walk := best(func() { poolWalk(e) })
	snap := best(func() { e.Snapshot() })
	t.Logf("%d bundles: walk %v, Snapshot %v per 50 calls", e.Pool().Len(), walk, snap)
	if snap*10 > walk {
		t.Errorf("Snapshot costs %v per 50 calls against %v for a pool walk: it scales with the pool", snap, walk)
	}
}

func TestEvictionFlushesToStore(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cfg := BundleLimitConfig(3, 2)
	cfg.Pool.RefineAge = time.Minute
	cfg.Pool.RefineSize = 1 // nothing is "tiny": closed bundles flush
	cfg.Pool.LowerLimit = 1
	cfg.Pool.CheckEvery = 1
	e := New(cfg, st, nil)
	for i := 0; i < 30; i++ {
		tag := string(rune('a' + i/2%13))
		e.Insert(msg(tweet.ID(i+1), "u", "pair message #tag"+tag, base.Add(time.Duration(i)*time.Hour)))
	}
	if e.Err() != nil {
		t.Fatalf("engine error: %v", e.Err())
	}
	if st.Count() == 0 {
		t.Fatal("no bundles flushed to storage")
	}
	// Every flushed bundle is retrievable through the engine facade.
	for _, id := range st.IDs() {
		b, err := e.Bundle(id)
		if err != nil {
			t.Fatalf("Bundle(%d): %v", id, err)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("flushed bundle %d invalid: %v", id, err)
		}
	}
}

func TestEvictedBundleNotACandidate(t *testing.T) {
	cfg := PartialIndexConfig(2)
	cfg.Pool.RefineAge = time.Minute
	cfg.Pool.RefineSize = 10 // everything old is tiny -> deleted
	cfg.Pool.LowerLimit = 2
	cfg.Pool.CheckEvery = 1
	e := New(cfg, nil, nil)
	e.Insert(msg(1, "a", "original #evicted", base))
	// Push unrelated bundles until the first is evicted.
	for i := 0; i < 10; i++ {
		tag := "#x" + string(rune('a'+i))
		e.Insert(msg(tweet.ID(i+2), "u", "filler "+tag, base.Add(time.Duration(i+1)*time.Hour)))
	}
	// A message matching only the evicted bundle must open a new one.
	r := e.Insert(msg(99, "b", "late arrival #evicted", base.Add(20*time.Hour)))
	if !r.Created {
		t.Error("message matched an evicted bundle via stale postings")
	}
}

func TestFullIndexStats(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 5000
	cfg.Users = 300
	cfg.VocabSize = 600
	cfg.EventsPerDay = 150
	msgs := gen.New(cfg).Generate(2000)
	e := New(FullIndexConfig(), nil, nil)
	for _, m := range msgs {
		e.Insert(m)
	}
	st := e.Snapshot()
	if st.Messages != 2000 {
		t.Errorf("Messages = %d", st.Messages)
	}
	if st.BundlesCreated == 0 || st.EdgesCreated == 0 {
		t.Errorf("no bundles or edges created: %+v", st)
	}
	if st.MemTotal() <= 0 {
		t.Error("memory estimate not positive")
	}
	// Full index keeps everything live.
	if int64(st.BundlesLive) != st.BundlesCreated {
		t.Errorf("full index evicted bundles: live=%d created=%d", st.BundlesLive, st.BundlesCreated)
	}
	if st.MessagesInMemory != 2000 {
		t.Errorf("MessagesInMemory = %d, want 2000", st.MessagesInMemory)
	}
}

func TestPoolBundlesValid(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 5000
	cfg.Users = 300
	cfg.VocabSize = 600
	cfg.EventsPerDay = 150
	msgs := gen.New(cfg).Generate(3000)
	e := New(BundleLimitConfig(200, 50), nil, nil)
	for _, m := range msgs {
		e.Insert(m)
	}
	e.Pool().All(func(b *bundle.Bundle) {
		if err := b.Validate(); err != nil {
			t.Errorf("live bundle %d invalid: %v", b.ID(), err)
		}
	})
}

func TestStageTimersAdvance(t *testing.T) {
	e := New(PartialIndexConfig(5), nil, nil)
	for i := 0; i < 2000; i++ {
		e.Insert(msg(tweet.ID(i+1), "u", "msg #t"+string(rune('a'+i%20)), base.Add(time.Duration(i)*time.Minute)))
	}
	st := e.Snapshot()
	if st.MatchTime <= 0 || st.PlaceTime <= 0 {
		t.Errorf("stage timers did not advance: %+v", st)
	}
}

func TestSnapshotConnCounts(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	e.Insert(msg(1, "a", "story #tag http://bit.ly/x", base))
	e.Insert(msg(2, "b", "more #tag", base.Add(time.Minute)))
	e.Insert(msg(3, "c", "link http://bit.ly/x", base.Add(2*time.Minute)))
	e.Insert(msg(4, "d", "RT @a: story #tag http://bit.ly/x", base.Add(3*time.Minute)))
	st := e.Snapshot()
	if st.ConnCounts["hashtag"] != 1 || st.ConnCounts["rt"] != 1 {
		t.Errorf("ConnCounts = %v", st.ConnCounts)
	}
	var total int64
	for _, v := range st.ConnCounts {
		total += v
	}
	if total != st.EdgesCreated {
		t.Errorf("conn counts sum %d != edges %d", total, st.EdgesCreated)
	}
}

func TestBundleNotFound(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	if _, err := e.Bundle(12345); err == nil {
		t.Error("missing bundle did not error")
	}
}

// TestFlushObserver verifies the archive hook fires exactly once per
// persisted bundle.
func TestFlushObserver(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cfg := BundleLimitConfig(3, 2)
	cfg.Pool.RefineAge = time.Minute
	cfg.Pool.RefineSize = 1
	cfg.Pool.LowerLimit = 1
	cfg.Pool.CheckEvery = 1
	e := New(cfg, st, nil)
	flushed := map[bundle.ID]int{}
	e.SetFlushObserver(func(b *bundle.Bundle) { flushed[b.ID()]++ })
	for i := 0; i < 30; i++ {
		tag := string(rune('a' + i/2%13))
		e.Insert(msg(tweet.ID(i+1), "u", "pair message #tag"+tag, base.Add(time.Duration(i)*time.Hour)))
	}
	if len(flushed) == 0 {
		t.Fatal("observer never fired")
	}
	if len(flushed) != st.Count() {
		t.Errorf("observer saw %d bundles, store has %d", len(flushed), st.Count())
	}
	for id, n := range flushed {
		if n != 1 {
			t.Errorf("bundle %d observed %d times", id, n)
		}
	}
}

// TestEdgeScoreIsDerived: a node keeps no score. The Eq. 5 score
// /bundle, trails, traces and the bundle codec show for its edge is
// derived from the two messages and the engine's weights
// (bundle.EdgeScore), and must equal, bit for bit, the Total that
// Algorithm 2 compared when it chose the parent — 0 for a root. Every
// node of the seed-1 20 000-message stream is checked, under the
// default weights and under others: each bundle is placed again,
// message by message, with an observer on the scan, which reports the
// totals the placement compared (the pruned scan's own arithmetic from
// PruneMinNodes nodes up).
func TestEdgeScoreIsDerived(t *testing.T) {
	for name, w := range map[string]score.MessageWeights{
		"default": score.DefaultMessageWeights(),
		"other":   {URL: 0.7, Tag: 1.3, Time: 0.9, Keyword: 0.25, RT: 1.5},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := FullIndexConfig()
			cfg.MsgWeights = w
			e := New(cfg, nil, nil)
			g := gen.New(gen.DefaultConfig())
			for i := 0; i < 20_000; i++ {
				e.Insert(g.Next())
			}
			nodes, edges, pruned := 0, 0, 0
			sc := bundle.NewScratch()
			e.Pool().All(func(b *bundle.Bundle) {
				again := bundle.New(b.ID())
				for i, n := range b.Nodes() {
					totals := map[int]float64{}
					id, ps := again.AddScratch(w, n.Doc, func(pc bundle.ParentCandidate) { totals[pc.Node] = pc.Parts.Total }, sc)
					if id != i || again.Nodes()[i] != n {
						t.Fatalf("bundle %d node %d placed again as %d %+v, not %+v", b.ID(), i, id, again.Nodes()[i], n)
					}
					want, seen := 0.0, true
					if n.Parent != bundle.NoParent {
						want, seen = totals[int(n.Parent)]
					}
					if got := b.EdgeScore(w, i); !seen || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("bundle %d node %d (parent %d, reported %v): derived score %v, placement compared %v",
							b.ID(), i, n.Parent, seen, got, want)
					}
					nodes++
					if n.Parent != bundle.NoParent {
						edges++
					}
					if !ps.Exhaustive {
						pruned++
					}
				}
			})
			if nodes != 20_000 || edges == 0 || pruned == 0 {
				t.Fatalf("checked %d nodes, %d edges, %d placed by the pruned scan", nodes, edges, pruned)
			}
			t.Logf("%d nodes, %d edges, %d placed by the pruned scan", nodes, edges, pruned)
		})
	}
}
