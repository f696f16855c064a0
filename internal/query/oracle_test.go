package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/storage"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// oracleSearchBundles is SearchBundles as it was before summaries were
// built for the winners only: every candidate gets its Figure 2 row,
// then the lot is sorted and cut, and every live candidate is read as
// a Bundle, a one-message bundle the pool holds as its record too. Kept
// as the reference the result lists must equal element for element.
func oracleSearchBundles(p *Processor, q string, k int) []BundleHit {
	terms := queryTerms(q)
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	idx := p.Engine().SummaryIndex()
	now := p.Engine().Now()
	ids := resolve(terms)
	cands := make(map[bundle.ID]struct{})
	for _, q := range ids {
		for _, t := range []termdict.ID{q.keyword, q.tag, q.url} {
			for _, p := range idx.AppendPostings(nil, t) {
				cands[p] = struct{}{}
			}
		}
	}
	hits := make([]BundleHit, 0, len(cands))
	score := func(id bundle.ID, b *bundle.Bundle) {
		if r := p.relevance(ids, b.Ref(), now); r > 0 {
			hits = append(hits, BundleHit{ID: id, Score: r, Size: b.Size(), LastPost: tweet.Time(b.LastDate()), Summary: b.SummaryWords(10)})
		}
	}
	for id := range cands {
		if b := p.Engine().Pool().Get(id); !b.IsZero() {
			score(id, b.Expand())
		}
	}
	if p.arch != nil {
		for _, ah := range p.arch.Search(terms, k) {
			if b, err := p.arch.Load(ah.ID); err == nil {
				score(ah.ID, b)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// benchQueries draws n query strings the way the benchmark's client
// does (bench/stream.go): the first hashtag, else the longest keyword,
// of a message picked uniformly from the stream by a seeded RNG.
func benchQueries(msgs []*tweet.Message, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for len(out) < n {
		m := msgs[rng.Intn(len(msgs))]
		term := ""
		if len(m.Hashtags) > 0 {
			term = m.Hashtags[0]
		} else {
			for _, kw := range tokenizer.Keywords(m.Text) {
				if len(kw) > len(term) {
					term = kw
				}
			}
		}
		if term != "" {
			out = append(out, term)
		}
	}
	return out
}

// TestSearchBundlesMatchesOracle: over a seeded 20 000-message engine —
// once unbounded, once with a small pool in front of a store so that
// most answers come from the archive — SearchBundles returns what the
// summarise-everything oracle returns, for the benchmark's query recipe
// at several k, and does so with a fraction of the oracle's
// allocations on a popular term.
func TestSearchBundlesMatchesOracle(t *testing.T) {
	st, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	archived := DefaultOptions()
	archived.IncludeArchive = true
	bounded := core.PartialIndexConfig(400)
	bounded.Pool.RefineAge = time.Hour
	procs := map[string]*Processor{
		"full index": New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions()),
		"archived":   New(core.New(bounded, st, nil), archived),
	}
	g := gen.New(gen.DefaultConfig())
	msgs := make([]*tweet.Message, 20000)
	for i := range msgs {
		msgs[i] = g.Next()
		for _, p := range procs {
			p.Insert(msgs[i])
		}
	}
	if procs["archived"].Archived() == 0 {
		t.Fatal("nothing archived: the second engine does not exercise archivedHits")
	}
	queries := append(benchQueries(msgs, 120, 7), "", "zzzunseen", msgs[0].Text)
	for name, p := range procs {
		nonEmpty, busiest, most := 0, "", 0
		for _, q := range queries {
			for _, k := range []int{1, 10, 1000} {
				got, want := p.SearchBundles(q, k), oracleSearchBundles(p, q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: SearchBundles(%q, %d):\n got %v\nwant %v", name, q, k, got, want)
				}
				if k == 1000 && len(got) > most {
					busiest, most = q, len(got)
				}
			}
			if len(p.SearchBundles(q, 10)) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 100 {
			t.Errorf("%s: only %d of %d queries returned anything", name, nonEmpty, len(queries))
		}
		if name != "full index" {
			continue
		}
		ours := testing.AllocsPerRun(5, func() { p.SearchBundles(busiest, 10) })
		oracle := testing.AllocsPerRun(5, func() { oracleSearchBundles(p, busiest, 10) })
		t.Logf("%q (%d candidates): %v allocations, the oracle %v", busiest, most, ours, oracle)
		if most < 100 || ours*3 > oracle {
			t.Errorf("%q with %d candidates: %v allocations against the oracle's %v — summaries are not winners-only",
				busiest, most, ours, oracle)
		}
	}
}

// TestEq7ReadsTheRecord: Eq. 7 reads a live bundle the pool holds as its
// one message's record through the record, with no allocation, to the
// relevance the same bundle scores as a Bundle.
func TestEq7ReadsTheRecord(t *testing.T) {
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	at := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC)
	p.Insert(tweet.Parse(1, "alice", at, "tsunami warning samoa #tsunami http://x.io/1"))
	r := p.Engine().Pool().Get(1)
	if r.Bundle() != nil {
		t.Fatalf("bundle 1 is held as a Bundle, want its record")
	}
	ids := resolve(queryTerms("tsunami samoa x.io"))
	now := p.Engine().Now()
	got, want := p.relevance(ids, r, now), p.relevance(ids, r.Expand().Ref(), now)
	if got != want || got <= 0 {
		t.Fatalf("relevance %v through the record, %v through the Bundle", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.relevance(ids, r, now) }); allocs != 0 {
		t.Errorf("Eq. 7 allocates %.1f times for a one-message candidate", allocs)
	}
}
