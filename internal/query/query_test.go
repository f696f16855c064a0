package query

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/gen"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 17, 0, 0, 0, 0, time.UTC)

// newGameProcessor ingests a small two-topic corpus.
func newGameProcessor(t *testing.T) *Processor {
	t.Helper()
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	msgs := []struct {
		user, text string
		offset     time.Duration
	}{
		{"wharman", "Lester down #redsox", 0},
		{"dims", "unbelievable!! #redsox", 10 * time.Minute},
		{"amaliebenjamin", "Lester getting an ovation from the #yankee crowd #redsox", 20 * time.Minute},
		{"abcdude", "Classy RT @amaliebenjamin: Lester getting an ovation from the #yankee crowd #redsox", 25 * time.Minute},
		{"trader", "market rally continues #stocks", 30 * time.Minute},
		{"analyst", "stocks surge on earnings #stocks http://bit.ly/mkt", 40 * time.Minute},
	}
	for i, m := range msgs {
		p.Insert(tweet.Parse(tweet.ID(i+1), m.user, base.Add(m.offset), m.text))
	}
	return p
}

func TestSearchMessages(t *testing.T) {
	p := newGameProcessor(t)
	hits := p.SearchMessages("lester redsox", 10)
	if len(hits) == 0 {
		t.Fatal("no message hits")
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("message hits not sorted")
		}
	}
	// Top hit mentions lester.
	if !strings.Contains(strings.ToLower(hits[0].Msg.Text()), "lester") {
		t.Errorf("top hit %q does not mention lester", hits[0].Msg.Text())
	}
	// Stocks messages don't match a lester query.
	for _, h := range hits {
		if strings.Contains(h.Msg.Text(), "stocks") && !strings.Contains(h.Msg.Text(), "redsox") {
			t.Errorf("unrelated message surfaced: %q", h.Msg.Text())
		}
	}
}

// TestReindexRebuildsMessageSearch: the recovery path (checkpoint
// restore, WAL replay) inserts straight into the engine, leaving the
// Processor's baseline message index empty; Reindex must rebuild it
// from the pool so SearchMessages matches an uninterrupted run.
func TestReindexRebuildsMessageSearch(t *testing.T) {
	p := newGameProcessor(t)
	want := p.SearchMessages("lester redsox", 10)
	if len(want) == 0 {
		t.Fatal("no reference hits")
	}

	// Simulate recovery: round-trip the engine through a checkpoint and
	// wrap it in a fresh Processor that never saw an Insert.
	mem := fsx.NewMem()
	if err := p.Engine().SaveCheckpoint(mem, "ckpt"); err != nil {
		t.Fatal(err)
	}
	eng, err := core.LoadCheckpoint(core.FullIndexConfig(), nil, nil, mem, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	p2 := New(eng, DefaultOptions())
	if hits := p2.SearchMessages("lester redsox", 10); len(hits) != 0 {
		t.Fatalf("resumed processor unexpectedly indexed: %d hits", len(hits))
	}
	if n := p2.Reindex(); n != 6 {
		t.Fatalf("Reindex = %d messages, want 6", n)
	}
	got := p2.SearchMessages("lester redsox", 10)
	if len(got) != len(want) {
		t.Fatalf("hits after reindex = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Msg.ID() != want[i].Msg.ID() || got[i].Score != want[i].Score {
			t.Fatalf("hit %d: got (%d, %g) want (%d, %g)",
				i, got[i].Msg.ID(), got[i].Score, want[i].Msg.ID(), want[i].Score)
		}
	}
}

func TestSearchBundles(t *testing.T) {
	p := newGameProcessor(t)
	hits := p.SearchBundles("yankee redsox", 10)
	if len(hits) == 0 {
		t.Fatal("no bundle hits")
	}
	top := hits[0]
	if top.Size != 4 {
		t.Errorf("top bundle size = %d, want 4 (the game bundle)", top.Size)
	}
	summary := strings.Join(top.Summary, " ")
	if !strings.Contains(summary, "redsox") {
		t.Errorf("summary %v missing redsox", top.Summary)
	}
	if top.LastPost.Before(base) {
		t.Errorf("LastPost = %v", top.LastPost)
	}
}

func TestSearchBundlesRanksTopicApart(t *testing.T) {
	p := newGameProcessor(t)
	stockHits := p.SearchBundles("stocks market", 10)
	if len(stockHits) == 0 {
		t.Fatal("no hits for stocks")
	}
	if stockHits[0].Size != 2 {
		t.Errorf("top stocks bundle size = %d, want 2", stockHits[0].Size)
	}
	gameHits := p.SearchBundles("redsox", 10)
	if gameHits[0].ID == stockHits[0].ID {
		t.Error("distinct topics returned the same top bundle")
	}
}

func TestSearchEmptyAndMissing(t *testing.T) {
	p := newGameProcessor(t)
	if hits := p.SearchBundles("", 5); hits != nil {
		t.Errorf("empty query returned %v", hits)
	}
	if hits := p.SearchBundles("zzznotaword", 5); len(hits) != 0 {
		t.Errorf("unknown term returned %v", hits)
	}
	if hits := p.SearchBundles("redsox", 0); hits != nil {
		t.Errorf("k=0 returned %v", hits)
	}
	if hits := p.SearchMessages("zzznotaword", 5); len(hits) != 0 {
		t.Errorf("unknown message term returned %v", hits)
	}
}

func TestFreshnessBreaksTies(t *testing.T) {
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	// Two bundles a week apart sharing only the queried keyword — one
	// shared keyword stays under the Eq. 1 threshold, so they do not
	// merge.
	p.Insert(tweet.Parse(1, "a", base, "concert tonight amazing #old_show"))
	p.Insert(tweet.Parse(2, "b", base.Add(7*24*time.Hour), "concert lineup revealed #new_show"))
	hits := p.SearchBundles("concert", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %v, want 2 bundles", hits)
	}
	if !hits[0].LastPost.After(hits[1].LastPost) {
		t.Error("fresher bundle should rank first on equal content")
	}
}

// TestEq7TieBreak: two bundles on one Eq. 7 score rank by bundle ID,
// lower first, on one engine (searchBundles' sort) and across a node's
// engines (merge). The two messages share the queried keyword and
// their date, and their hard indicants differ, so they never join and
// score alike. On the two-engine node the lower ID is on the later
// engine, so the engines' order alone would rank them the other way.
func TestEq7TieBreak(t *testing.T) {
	tied := []*tweet.Message{
		tweet.Parse(2, "b", base, "concert tonight amazing #east_stage"),
		tweet.Parse(3, "c", base, "concert lineup revealed #west_stage"),
	}
	check := func(t *testing.T, p *Processor, want []bundle.ID) {
		t.Helper()
		hits := p.SearchBundles("concert", 10)
		if len(hits) != 2 {
			t.Fatalf("hits = %v, want the 2 tied bundles", hits)
		}
		if hits[0].Score != hits[1].Score {
			t.Fatalf("scores %v and %v differ: nothing ties", hits[0].Score, hits[1].Score)
		}
		if got := []bundle.ID{hits[0].ID, hits[1].ID}; got[0] != want[0] || got[1] != want[1] {
			t.Errorf("tied bundles ranked %v, want %v (lower ID first)", got, want)
		}
	}
	t.Run("one engine", func(t *testing.T) {
		p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
		for _, m := range tied {
			p.Insert(m)
		}
		check(t, p, []bundle.ID{1, 2})
	})
	t.Run("two engines", func(t *testing.T) {
		engs := make([]*core.Engine, 2)
		for i := range engs {
			cfg := core.FullIndexConfig()
			cfg.Pool.IDStart, cfg.Pool.IDStride = bundle.ID(i+1), 2
			engs[i] = core.New(cfg, nil, nil)
		}
		// Engine 0 holds bundles 1 and 3, engine 1 bundle 2.
		engs[0].Insert(tweet.Parse(1, "a", base, "weather sunny #forecast"))
		engs[0].Insert(tied[0])
		engs[1].Insert(tied[1])
		check(t, NewNode(engs, DefaultOptions()), []bundle.ID{2, 3})
	})
}

func TestTrail(t *testing.T) {
	p := newGameProcessor(t)
	hits := p.SearchBundles("redsox", 1)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	trail, err := p.Trail(hits[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trail, "[rt") {
		t.Errorf("trail missing RT edge:\n%s", trail)
	}
	if _, err := p.Trail(9999); err == nil {
		t.Error("missing bundle trail did not error")
	}
}

func TestRender(t *testing.T) {
	p := newGameProcessor(t)
	d, err := p.Bundle(p.SearchBundles("redsox", 1)[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	out := d.Render()
	if !strings.Contains(out, fmt.Sprintf("bundle %d: 4 messages", d.ID)) || !strings.Contains(out, "[rt") {
		t.Errorf("Render missing expected parts:\n%s", out)
	}
	// Every message appears once, a child one step deeper than its
	// parent and below it.
	indent := make([]int, len(d.Nodes))
	at := make([]int, len(d.Nodes))
	for i, n := range d.Nodes {
		line := "- " + n.Msg.String()
		if strings.Count(out, line) != 1 {
			t.Fatalf("Render shows message %q %d times:\n%s", n.Msg.Text(), strings.Count(out, line), out)
		}
		at[i] = strings.Index(out, line)
		indent[i] = at[i] - strings.LastIndex(out[:at[i]], "\n") - 1
		if n.Parent == bundle.NoParent {
			if indent[i] != 2 {
				t.Errorf("root %d indented %d", i, indent[i])
			}
		} else if indent[i] != indent[n.Parent]+2 || at[i] < at[n.Parent] {
			t.Errorf("node %d (indent %d) is not drawn under its parent %d (indent %d)", i, indent[i], n.Parent, indent[n.Parent])
		}
	}
}

func TestHitString(t *testing.T) {
	p := newGameProcessor(t)
	hits := p.SearchBundles("redsox", 1)
	s := hits[0].String()
	if !strings.Contains(s, "bundle") || !strings.Contains(s, "size=4") {
		t.Errorf("String = %q", s)
	}
}

func TestQueryOverGeneratedStream(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 10000
	cfg.Users = 500
	cfg.VocabSize = 800
	cfg.EventsPerDay = 300
	cfg.Scripts = []gen.EventScript{{
		Name:     "samoa tsunami",
		Hashtags: []string{"tsunami", "samoa"},
		Topic:    []string{"tsunami", "warning", "samoa", "rescue", "coast"},
		URLs:     2,
		Start:    time.Hour,
		HalfLife: 5 * time.Hour,
		Weight:   50,
	}}
	g := gen.New(cfg)
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	for i := 0; i < 8000; i++ {
		p.Insert(g.Next())
	}
	hits := p.SearchBundles("tsunami samoa", 5)
	if len(hits) == 0 {
		t.Fatal("scripted event not retrievable")
	}
	if hits[0].Size < 10 {
		t.Errorf("tsunami bundle size = %d, want a substantial bundle", hits[0].Size)
	}
	summary := strings.Join(hits[0].Summary, " ")
	if !strings.Contains(summary, "tsunami") && !strings.Contains(summary, "samoa") {
		t.Errorf("summary %v unrelated to query", hits[0].Summary)
	}
}
