package trending

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/pool"
	"provex/internal/score"
	"provex/internal/tweet"
)

var (
	base    = time.Date(2009, 9, 29, 12, 0, 0, 0, time.UTC)
	weights = score.DefaultMessageWeights()
)

// addMsgs puts n ≥ 1 same-topic messages into a fresh pool bundle,
// spaced by step and starting at start.
func addMsgs(p *pool.Pool, topic string, n int, start time.Time, step time.Duration) {
	id := p.NextID()
	msg := func(i int) score.Doc {
		text := fmt.Sprintf("%s development %d #%s", topic, i, topic)
		return score.NewDoc(tweet.Parse(tweet.ID(uint64(id)*1000+uint64(i)), "u", start.Add(time.Duration(i)*step), text))
	}
	r := p.Create(msg(0))
	for i := 1; i < n; i++ {
		p.Promote(r).AddScratch(weights, msg(i), nil, nil)
		r = p.Get(id)
	}
}

func TestDetectRanksBurstFirst(t *testing.T) {
	p := pool.New(pool.Config{}, nil)
	now := base.Add(3 * time.Hour)
	// Bursting: 20 messages in the last half hour.
	addMsgs(p, "tsunami", 20, now.Add(-30*time.Minute), time.Minute)
	// Steady old topic: 40 messages spread over 3 days, few recent.
	addMsgs(p, "baseball", 40, now.Add(-72*time.Hour), 108*time.Minute)
	// Dead topic: finished yesterday.
	addMsgs(p, "election", 30, now.Add(-30*time.Hour), time.Minute)

	topics := Detect(p, now.UnixNano(), 10)
	if len(topics) == 0 {
		t.Fatal("nothing trending")
	}
	if !strings.Contains(strings.Join(topics[0].Summary, " "), "tsunami") {
		t.Errorf("top trend = %v, want the tsunami burst", topics[0])
	}
	for _, tp := range topics {
		if strings.Contains(strings.Join(tp.Summary, " "), "election") {
			t.Errorf("dead topic surfaced: %v", tp)
		}
	}
}

func TestDetectMinRecentFilter(t *testing.T) {
	p := pool.New(pool.Config{}, nil)
	now := base
	addMsgs(p, "whisper", MinRecent-1, now.Add(-10*time.Minute), time.Minute)
	if topics := Detect(p, now.UnixNano(), 5); len(topics) != 0 {
		t.Errorf("a bundle of %d recent messages trended: %v", MinRecent-1, topics)
	}
	addMsgs(p, "shout", MinRecent, now.Add(-10*time.Minute), time.Minute)
	if topics := Detect(p, now.UnixNano(), 5); len(topics) != 1 || topics[0].Recent != MinRecent {
		t.Errorf("want only the bundle of %d recent messages: %v", MinRecent, topics)
	}
}

func TestDetectKAndZero(t *testing.T) {
	p := pool.New(pool.Config{}, nil)
	now := base
	for i := 0; i < 6; i++ {
		addMsgs(p, fmt.Sprintf("topic%c", 'a'+i), 5+i, now.Add(-20*time.Minute), time.Minute)
	}
	if got := Detect(p, now.UnixNano(), 3); len(got) != 3 {
		t.Errorf("k=3 returned %d", len(got))
	}
	if got := Detect(p, now.UnixNano(), 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	full := Detect(p, now.UnixNano(), 100)
	for i := 1; i < len(full); i++ {
		if full[i].Score > full[i-1].Score {
			t.Error("topics not sorted by score")
		}
	}
}

func TestTopicString(t *testing.T) {
	p := pool.New(pool.Config{}, nil)
	addMsgs(p, "storm", 5, base.Add(-10*time.Minute), time.Minute)
	topics := Detect(p, base.UnixNano(), 1)
	if len(topics) != 1 || !strings.Contains(topics[0].String(), "bundle") {
		t.Errorf("String = %v", topics)
	}
}

// TestDetectOverEngine: end to end over a generated stream with a
// scripted burst, the burst must rank first at the stream's end.
func TestDetectOverEngine(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 40000
	cfg.Scripts = []gen.EventScript{{
		Name:     "breaking quake",
		Hashtags: []string{"quake", "chile"},
		Topic:    []string{"quake", "chile", "magnitude", "epicenter"},
		URLs:     2,
		// Burst right at the end of the ~12h stream window.
		Start:    11 * time.Hour,
		HalfLife: 2 * time.Hour,
		Weight:   60,
	}}
	g := gen.New(cfg)
	e := core.New(core.FullIndexConfig(), nil, nil)
	for i := 0; i < 20000; i++ {
		e.Insert(g.Next())
	}
	topics := Detect(e.Pool(), e.Now(), 5)
	if len(topics) == 0 {
		t.Fatal("nothing trending at stream end")
	}
	found := false
	for _, tp := range topics[:1] {
		s := strings.Join(tp.Summary, " ")
		if strings.Contains(s, "quake") || strings.Contains(s, "chile") {
			found = true
		}
	}
	if !found {
		t.Errorf("scripted burst not the top trend: %v", topics)
	}
}

// oracleDetect is Detect as it was before it ranked first: a summary
// rendered for every qualifying bundle, the lot sorted, all but k
// thrown away, with the window cut as a time.Time instant, and every
// bundle of the pool scanned as a Bundle, a one-message bundle the
// pool holds as its record too. Kept as the definition of the result
// list.
func oracleDetect(p *pool.Pool, now int64, k int) []Topic {
	if k <= 0 {
		return nil
	}
	cutoff := tweet.Time(now).Add(-Window)

	var topics []Topic
	p.All(func(r bundle.Ref) {
		b := r.Expand()
		if tweet.Time(b.LastDate()).Before(cutoff) {
			return
		}
		recent := 0
		for _, n := range b.Nodes() {
			if n.Doc.Msg.Time().After(cutoff) {
				recent++
			}
		}
		if recent < MinRecent {
			return
		}
		rate := float64(recent) / Window.Hours()
		ratio := float64(recent) / float64(b.Size())
		topics = append(topics, Topic{
			ID:       b.ID(),
			Score:    rate * (0.5 + ratio),
			Recent:   recent,
			Size:     b.Size(),
			LastPost: tweet.Time(b.LastDate()),
			Summary:  b.SummaryWords(6),
		})
	})
	sort.Slice(topics, func(i, j int) bool {
		if topics[i].Score != topics[j].Score {
			return topics[i].Score > topics[j].Score
		}
		return topics[i].ID < topics[j].ID
	})
	if len(topics) > k {
		topics = topics[:k]
	}
	return topics
}

// TestDetectMatchesOracle: over a seeded 20k-message engine the
// leaderboard is element for element the oracle's at every k, and
// Detect allocates for the k winners, not for every qualifying bundle.
func TestDetectMatchesOracle(t *testing.T) {
	g := gen.New(gen.DefaultConfig())
	e := core.New(core.FullIndexConfig(), nil, nil)
	for i := 0; i < 20000; i++ {
		e.Insert(g.Next())
	}
	p, now := e.Pool(), e.Now()
	qualifying := len(oracleDetect(p, now, 1<<30))
	if qualifying < 100 {
		t.Fatalf("only %d bundles qualify: the cut to k is not exercised", qualifying)
	}
	for _, k := range []int{1, 10, 1000} {
		got, want := Detect(p, now, k), oracleDetect(p, now, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Detect diverges from the oracle:\n got %v\nwant %v", k, got, want)
		}
	}
	if got := Detect(p, now+int64(1000*time.Hour), 10); got != nil {
		t.Errorf("a quiet pool trends %v, want nil", got)
	}

	// Measured: 94 for the ranking slice, the sort and ten summaries; the
	// oracle's 3 546 are eight per qualifying bundle.
	if allocs := testing.AllocsPerRun(5, func() { Detect(p, now, 10) }); allocs > 150 {
		t.Errorf("Detect(k=10) over %d qualifying bundles: %v allocations, want at most 150", qualifying, allocs)
	}
}
