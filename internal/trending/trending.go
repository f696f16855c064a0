// Package trending detects hot bundles — the "breaking events and
// famous stars" the paper observes users monitoring with repeated
// searches (Section I, citing the #twittersearch study). Because the
// provenance index already groups related messages into bundles, burst
// detection reduces to scoring each live bundle's recent growth
// against its age: no separate event-detection pipeline is needed,
// which is exactly the organisational payoff the paper argues for.
//
// The detector is stateless over the pool: each call scans live
// bundles and scores them at the engine's current simulated time.
package trending

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"provex/internal/bundle"
	"provex/internal/pool"
)

// Window is the recency horizon: only messages newer than now-Window
// count as "recent activity".
const DefaultWindow = 2 * time.Hour

// Options tune the detector.
type Options struct {
	// Window bounds the recent-activity horizon; 0 uses DefaultWindow.
	Window time.Duration
	// MinRecent filters bundles with fewer recent messages than this
	// (default 3) — a single fresh message is not a trend.
	MinRecent int
}

// Topic is one trending bundle.
type Topic struct {
	ID       bundle.ID
	Score    float64 // recent message rate (msgs/hour) scaled by burst ratio
	Recent   int     // messages inside the window
	Size     int     // total messages
	LastPost time.Time
	Summary  []string
}

// String renders the topic as a leaderboard row.
func (t Topic) String() string {
	return fmt.Sprintf("bundle %d  score=%.1f  recent=%d/%d  last=%s  %s",
		t.ID, t.Score, t.Recent, t.Size, t.LastPost.Format("15:04:05"),
		strings.Join(t.Summary, ", "))
}

// Detect scans the live pool at simulated time now and returns the top
// k trending bundles, hottest first.
func Detect(p *pool.Pool, now time.Time, k int, opts Options) []Topic {
	if k <= 0 {
		return nil
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	minRecent := opts.MinRecent
	if minRecent <= 0 {
		minRecent = 3
	}
	cutoff := now.Add(-window)

	// Rank first, render last: the Figure 2 summary row is a merged map
	// plus a sort per bundle, so only the k winners get one.
	type ranked struct {
		b      *bundle.Bundle
		score  float64
		recent int
	}
	var hot []ranked
	p.All(func(b *bundle.Bundle) {
		if b.EndTime().Before(cutoff) {
			return // quiet bundle
		}
		recent := 0
		for _, n := range b.Nodes() {
			if n.Doc.Msg.Date.After(cutoff) {
				recent++
			}
		}
		if recent < minRecent {
			return
		}
		// Rate of recent arrivals...
		rate := float64(recent) / window.Hours()
		// ...scaled by the burst ratio: what fraction of the bundle's
		// life happened inside the window. A steady old topic has a
		// low ratio; a fresh burst approaches 1.
		ratio := float64(recent) / float64(b.Size())
		hot = append(hot, ranked{b: b, score: rate * (0.5 + ratio), recent: recent})
	})
	if len(hot) == 0 {
		return nil
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].score != hot[j].score {
			return hot[i].score > hot[j].score
		}
		return hot[i].b.ID() < hot[j].b.ID()
	})
	if len(hot) > k {
		hot = hot[:k]
	}
	topics := make([]Topic, len(hot))
	for i, h := range hot {
		topics[i] = Topic{
			ID:       h.b.ID(),
			Score:    h.score,
			Recent:   h.recent,
			Size:     h.b.Size(),
			LastPost: h.b.EndTime(),
			Summary:  h.b.SummaryWords(6),
		}
	}
	return topics
}
