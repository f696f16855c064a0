package query

import (
	"fmt"
	"math"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/tweet"
)

// sameMessageHits demands the same messages in the same order with
// scores equal as float64 bits.
func sameMessageHits(t *testing.T, what string, got, want []MessageHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Msg.ID() != want[i].Msg.ID() || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: hit %d is (%d, %v), want (%d, %v)", what, i, got[i].Msg.ID(), got[i].Score, want[i].Msg.ID(), want[i].Score)
		}
	}
}

// TestReindexMatchesUninterruptedIndex: a Processor that rebuilt its
// message index from the pool — a restarted node, a bootstrapped
// follower — answers SearchMessages exactly as the one that indexed the
// stream as it arrived. The pool is a Go map, walked in a different
// order every time; most of a popular term's hits have equal scores, so
// a ranking that broke ties by the order of arrival in the index would
// differ here (ci.sh's replication loopback compares /search bodies
// byte for byte).
func TestReindexMatchesUninterruptedIndex(t *testing.T) {
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	g := gen.New(gen.DefaultConfig())
	msgs := make([]*tweet.Message, 20000)
	for i := range msgs {
		msgs[i] = g.Next()
		p.Insert(msgs[i])
	}
	restarted := New(p.Engine(), DefaultOptions())
	if n := restarted.Reindex(); n != len(msgs) {
		t.Fatalf("Reindex = %d messages, want %d", n, len(msgs))
	}
	if n := restarted.Reindex(); n != 0 {
		t.Errorf("a second Reindex added %d messages", n)
	}
	ties := 0
	for _, q := range benchQueries(msgs, 100, 11) {
		for _, k := range []int{10, 100} {
			want := p.SearchMessages(q, k)
			sameMessageHits(t, fmt.Sprintf("SearchMessages(%q, %d) after Reindex", q, k), restarted.SearchMessages(q, k), want)
			if len(want) == k && want[k-1].Score == want[k-2].Score {
				ties++
			}
		}
	}
	if ties < 20 {
		t.Errorf("only %d of 200 searches were cut inside a run of equal scores: the tie-break is barely exercised", ties)
	}
}

// TestRefedStreamIsIndexedOnce: a stream fed twice (a feed resumed from
// the wrong offset) leaves one index entry per ID, every repeat
// counted, and the answers of the single feed.
func TestRefedStreamIsIndexedOnce(t *testing.T) {
	const n = 3000
	feed := func(p *Processor) []*tweet.Message {
		g := gen.New(gen.DefaultConfig())
		msgs := make([]*tweet.Message, n)
		for i := range msgs {
			msgs[i] = g.Next()
			p.Insert(msgs[i])
		}
		return msgs
	}
	once := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	msgs := feed(once)
	twice := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	feed(twice)
	feed(twice)
	if got := twice.dups.Value(); got != n {
		t.Errorf("duplicate messages = %d, want %d", got, n)
	}
	if st := twice.msgIndex.Stats(); st.Docs != n || twice.messages.Len() != n {
		t.Errorf("index holds %d documents beside %d messages, want %d of each", st.Docs, twice.messages.Len(), n)
	}
	for _, q := range benchQueries(msgs, 30, 3) {
		sameMessageHits(t, fmt.Sprintf("SearchMessages(%q) on the stream fed twice", q), twice.SearchMessages(q, 50), once.SearchMessages(q, 50))
	}
}

// TestDecreasingIDsAreSearchable: message IDs that fall as the stream
// goes — every key arrives below the highest the index holds — are all
// indexed, none mistaken for a repeat, and found under their own word.
func TestDecreasingIDsAreSearchable(t *testing.T) {
	const n = 500
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	for i := 0; i < n; i++ {
		id := tweet.ID(n - i)
		p.Insert(tweet.Parse(id, "user", base.Add(time.Duration(i)*time.Second), fmt.Sprintf("report marker%dx filed", id)))
	}
	if got := p.dups.Value(); got != 0 {
		t.Errorf("duplicate messages = %d, want 0", got)
	}
	for id := tweet.ID(1); id <= n; id++ {
		hits := p.SearchMessages(fmt.Sprintf("marker%dx", id), 3)
		if len(hits) != 1 || hits[0].Msg.ID() != id {
			t.Fatalf("marker%dx: hits %v, want message %d alone", id, hits, id)
		}
	}
	if hits := p.SearchMessages("report", n+10); len(hits) != n {
		t.Errorf("the shared word finds %d of %d messages", len(hits), n)
	} else if hits[0].Msg.ID() != 1 || hits[n-1].Msg.ID() != n {
		t.Errorf("equal scores rank %d … %d, want by ID: 1 … %d", hits[0].Msg.ID(), hits[n-1].Msg.ID(), n)
	}
}
