package shard

import (
	"testing"

	"provex/internal/score"
	"provex/internal/tweet"
)

// TestHotPathZeroAlloc pins the router at zero allocations per op:
// RouteKey and Route run once per ingested message in the reduce step,
// so a single hidden allocation there taxes every message of every
// round. Covers each indicant class so no branch smuggles one in.
func TestHotPathZeroAlloc(t *testing.T) {
	docs := []score.Doc{
		doc(tweet.Message{Post: tweet.Post{User: "a"}, RTOf: "origin"}),
		doc(tweet.Message{Post: tweet.Post{User: "a"}, URLs: []string{"http://a"}}),
		doc(tweet.Message{Post: tweet.Post{User: "a"}, Hashtags: []string{"x"}}),
		doc(tweet.Message{Post: tweet.Post{User: "a"}}, "keyword"),
		doc(tweet.Message{Post: tweet.Post{User: "a"}}),
	}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		for _, d := range docs {
			sink += RouteKey(d)
			sink += uint64(Route(d, 8))
		}
	}); n != 0 {
		t.Errorf("RouteKey/Route allocate %.1f per op, want 0", n)
	}
	_ = sink
}
