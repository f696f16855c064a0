package shard

import (
	"fmt"
	"testing"
	"time"

	"provex/internal/score"
	"provex/internal/tweet"
)

func doc(m tweet.Message, keywords ...string) score.Doc {
	return score.DocWithKeywords(&m, keywords)
}

func TestRouteKeyClassPrecedence(t *testing.T) {
	// A retweet routes by its original regardless of other indicants;
	// stripping indicants walks down the precedence chain.
	full := tweet.Message{
		Post:     tweet.Post{User: "alice"},
		RTOf:     "origin",
		URLs:     []string{"http://a"},
		Hashtags: []string{"x"},
	}
	cases := []struct {
		name string
		a, b score.Doc
		same bool
	}{
		{"rt dominates", doc(full, "k"), doc(tweet.Message{Post: tweet.Post{User: "bob"}, RTOf: "origin"}), true},
		{"url next", doc(tweet.Message{Post: tweet.Post{User: "a"}, URLs: []string{"http://a"}, Hashtags: []string{"y"}}),
			doc(tweet.Message{Post: tweet.Post{User: "b"}, URLs: []string{"http://a"}}), true},
		{"tag next", doc(tweet.Message{Post: tweet.Post{User: "a"}, Hashtags: []string{"x"}}, "k1"),
			doc(tweet.Message{Post: tweet.Post{User: "b"}, Hashtags: []string{"x"}}), true},
		{"keyword next", doc(tweet.Message{Post: tweet.Post{User: "a"}}, "k1", "k2"),
			doc(tweet.Message{Post: tweet.Post{User: "b"}}, "k1"), true},
		{"user last", doc(tweet.Message{Post: tweet.Post{User: "a"}}), doc(tweet.Message{Post: tweet.Post{User: "a"}}), true},
		// Class salting: the same string in different classes must not
		// collide structurally.
		{"tag vs keyword salted", doc(tweet.Message{Post: tweet.Post{User: "a"}, Hashtags: []string{"x"}}),
			doc(tweet.Message{Post: tweet.Post{User: "b"}}, "x"), false},
	}
	for _, c := range cases {
		if got := RouteKey(c.a) == RouteKey(c.b); got != c.same {
			t.Errorf("%s: keys equal=%v, want %v", c.name, got, c.same)
		}
	}
}

func TestRouteStableAndBounded(t *testing.T) {
	g := smallGen(7)
	for i := 0; i < 1000; i++ {
		m := g.Next()
		d := score.NewDoc(m)
		for _, n := range []int{1, 2, 5, 8} {
			s := Route(d, n)
			if s < 0 || s >= n {
				t.Fatalf("Route(_, %d) = %d out of range", n, s)
			}
			if s != Route(d, n) {
				t.Fatalf("Route not stable at n=%d", n)
			}
		}
	}
}

func TestRouteSpread(t *testing.T) {
	// Burst affinity skews routing on purpose; this only pins that no
	// shard starves outright on a generic stream.
	const n = 8
	counts := make([]int, n)
	g := smallGen(9)
	const total = 20000
	for i := 0; i < total; i++ {
		counts[Route(score.NewDoc(g.Next()), n)]++
	}
	for s, c := range counts {
		if c < total/(n*10) {
			t.Fatalf("shard %d starves: %d of %d (spread %v)", s, c, total, counts)
		}
	}
}

func TestRouteTimeIndependent(t *testing.T) {
	// The key must ignore everything but the dominant indicant — two
	// messages of one RT storm land together whatever their time/text.
	a := doc(tweet.Message{Post: tweet.Post{ID: 1, User: "u1", Date: 0 * int64(time.Second)}, RTOf: "celebrity"})
	b := doc(tweet.Message{Post: tweet.Post{ID: 9, User: "u2", Date: 9999 * int64(time.Second), Text: "x"}, RTOf: "celebrity"}, "extra")
	if RouteKey(a) != RouteKey(b) {
		t.Fatal("RT storm split across shards")
	}
	for n := 1; n <= 16; n++ {
		if Route(a, n) != Route(b, n) {
			t.Fatalf("split at n=%d", n)
		}
	}
}

func ExampleRoute() {
	d := doc(tweet.Message{Post: tweet.Post{User: "alice"}, Hashtags: []string{"breaking"}})
	fmt.Println(Route(d, 1) == 0, Route(d, 4) == Route(d, 4))
	// Output: true true
}
