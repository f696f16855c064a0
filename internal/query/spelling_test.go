package query

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// spellingDoc is one document of spellingIndex: its key and its terms,
// spelled out.
type spellingDoc struct {
	key   uint64
	terms []string
	dead  bool
}

// spellingHit is one ranked answer of spellingIndex.
type spellingHit struct {
	key   uint64
	score float64
}

// spellingIndex is the reference for the text indexes' term naming:
// BM25 over documents whose terms are their spellings, so a hashtag and
// the keyword of the same spelling are one term because they are one
// string. It scores as textindex does — live documents only, distinct
// non-empty query words summed in query order — and ranks by score,
// then key.
type spellingIndex []spellingDoc

func (ix spellingIndex) search(words []string, k int) []spellingHit {
	const k1, b = 1.2, 0.75
	live, total := 0, 0
	for _, d := range ix {
		if !d.dead && len(d.terms) > 0 {
			live++
			total += len(d.terms)
		}
	}
	if k <= 0 || live == 0 {
		return nil
	}
	avgdl := float64(total) / float64(live)
	scores := map[uint64]float64{}
	for i, w := range words {
		if w == "" || slices.Contains(words[:i], w) {
			continue
		}
		df := 0
		for _, d := range ix {
			if !d.dead && slices.Contains(d.terms, w) {
				df++
			}
		}
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (float64(live)-float64(df)+0.5)/(float64(df)+0.5))
		for _, d := range ix {
			n := 0
			for _, t := range d.terms {
				if t == w {
					n++
				}
			}
			if d.dead || n == 0 {
				continue
			}
			dl, tf := float64(len(d.terms)), float64(n)
			scores[d.key] += idf * (tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avgdl)))
		}
	}
	var hits []spellingHit
	for key, s := range scores {
		hits = append(hits, spellingHit{key, s})
	}
	slices.SortFunc(hits, func(x, y spellingHit) int {
		if c := cmp.Compare(y.score, x.score); c != 0 {
			return c
		}
		return cmp.Compare(x.key, y.key)
	})
	return hits[:min(k, len(hits))]
}

// TestTextIndexTermIsASpelling: the message index and the archive index
// name a term by the keyword-class ID of its spelling, and answer
// exactly as indexes keyed by the spellings themselves — same keys,
// scores equal as float64 bits — on messages where a hashtag is no
// keyword (too short, a number, a stop word, an unstemmed plural, a
// tag cut at an apostrophe) and a URL normalises to a bare word.
func TestTextIndexTermIsASpelling(t *testing.T) {
	texts := []string{
		"Go #NY go, the #Yankees beat the #redsox's bullpen #2012",
		"yankee stadium sold out tonight #lol",
		"watching the yankees at home http://localhost/ and more",
		"localhost server is down again #ny",
		"redsox fans in ny tonight #Yankees",
		"the 2012 season opener #2012 #lol",
		"check http://localhost now #redsox",
		"lol the yankee game http://mlb.example/yankees",
		"samoa tsunami warning #tsunami",
		"bullpen collapse in the ninth #redsox #ny",
	}
	p := newArchivedProcessor(t)
	var messages, archived spellingIndex
	var flushed []bundle.ID       // by archive document key − 1, as the archive keys a flush
	latest := map[bundle.ID]int{} // a bundle's live document in archived
	p.Engine().SetFlushObserver(func(b *bundle.Bundle) {
		if i, ok := latest[b.ID()]; ok {
			archived[i].dead = true
		}
		latest[b.ID()] = len(archived)
		flushed = append(flushed, b.ID())
		terms := slices.Concat(b.SummaryWords(24), spellings(b, termdict.Tag), spellings(b, termdict.URL)) // 24: the archive's summary terms
		archived = append(archived, spellingDoc{key: uint64(len(flushed)), terms: terms})
		p.arch.Note(b)
	})
	base := time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60; i++ {
		m := tweet.Parse(tweet.ID(i+1), "fan"+string(rune('a'+i%7)), base.Add(time.Duration(i)*20*time.Minute), texts[i%len(texts)])
		p.Insert(m)
		messages = append(messages, spellingDoc{key: uint64(m.ID), terms: append(tokenizer.Keywords(m.Text), m.Hashtags...)})
	}
	if p.Archived() == 0 {
		t.Fatal("nothing archived: the archive index is not exercised")
	}

	queries := []string{"ny", "NY yankees", "#yankees", "yankee", "redsox", "#2012", "lol", "lol 2012 ny",
		"localhost", "http://localhost", "yankees redsox localhost", "bullpen #ny", "zzzunseen"}
	for _, q := range queries {
		words := queryTerms(q)
		for _, k := range []int{1, 2, 5, 100} {
			got, want := p.SearchMessages(q, k), messages.search(words, k)
			if len(got) != len(want) {
				t.Fatalf("SearchMessages(%q, %d): %d hits, reference %d", q, k, len(got), len(want))
			}
			for i := range got {
				if uint64(got[i].Msg.ID()) != want[i].key || math.Float64bits(got[i].Score) != math.Float64bits(want[i].score) {
					t.Fatalf("SearchMessages(%q, %d) hit %d: (%d, %v), reference (%d, %v)", q, k, i, got[i].Msg.ID(), got[i].Score, want[i].key, want[i].score)
				}
			}
			// The archive cuts to k by raw score and flush order, then
			// ranks by the score over the best one, then bundle ID.
			var ref []spellingHit
			for _, h := range archived.search(words, k) {
				ref = append(ref, spellingHit{uint64(flushed[h.key-1]), h.score})
			}
			for i := len(ref) - 1; i >= 0; i-- { // the best one last: it is the divisor
				ref[i].score /= ref[0].score
			}
			slices.SortFunc(ref, func(x, y spellingHit) int {
				if c := cmp.Compare(y.score, x.score); c != 0 {
					return c
				}
				return cmp.Compare(x.key, y.key)
			})
			arch := p.arch.Search(words, k)
			if len(arch) != len(ref) {
				t.Fatalf("archive Search(%q, %d): %d hits, reference %d", q, k, len(arch), len(ref))
			}
			for i := range arch {
				if uint64(arch[i].ID) != ref[i].key || math.Float64bits(arch[i].Text) != math.Float64bits(ref[i].score) {
					t.Fatalf("archive Search(%q, %d) hit %d: (%d, %v), reference (%d, %v)", q, k, i, arch[i].ID, arch[i].Text, ref[i].key, ref[i].score)
				}
			}
			if got, want := p.SearchBundles(q, k), oracleSearchBundles(p, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchBundles(%q, %d):\n got %v\nwant %v", q, k, got, want)
			}
		}
	}
	for _, q := range []string{"ny", "#2012", "lol", "localhost"} {
		if len(p.SearchMessages(q, 10)) == 0 || len(p.SearchBundles(q, 10)) == 0 {
			t.Errorf("%q finds nothing: the case is not exercised", q)
		}
	}
}
