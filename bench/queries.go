package main

import (
	"fmt"
	"math/rand"
	"net/url"

	"provex/internal/tweet"
)

// queryKind is one of the four read endpoints.
type queryKind int

const (
	kindProv queryKind = iota
	kindSearch
	kindBundle
	kindTrending
	numKinds
)

var kindNames = [numKinds]string{"prov", "search", "bundle", "trending"}

func (k queryKind) String() string { return kindNames[k] }

// querySpec is one query of the fixed sequence. term is set for
// /prov and /search; pick indexes the harvested bundle ids for
// /bundle, resolved at run time because ids differ between deployment
// shapes.
type querySpec struct {
	kind queryKind
	term string
	pick int
}

// queryMix is the traffic mix in percent, in queryKind order.
var queryMix = [numKinds]int{40, 35, 15, 10}

// queryTopK is the k every ranked query asks for (the server default).
const queryTopK = 10

// buildQueries draws the sequence: kind by queryMix, term from a
// message picked uniformly from the preload prefix, so terms of
// popular events recur as they would from users.
func buildQueries(seed int64, prefix []*tweet.Message, n int) []querySpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]querySpec, 0, n)
	for len(out) < n {
		q := querySpec{kind: drawKind(rng)}
		switch q.kind {
		case kindProv, kindSearch:
			q.term = drawTerm(rng, prefix)
		case kindBundle:
			q.pick = rng.Int()
		}
		out = append(out, q)
	}
	return out
}

func drawKind(rng *rand.Rand) queryKind {
	r := rng.Intn(100)
	for k, share := range queryMix {
		if r < share {
			return queryKind(k)
		}
		r -= share
	}
	return kindTrending
}

// drawTerm redraws until the picked message yields a term (short
// interjections have neither hashtag nor keyword).
func drawTerm(rng *rand.Rand, prefix []*tweet.Message) string {
	for {
		if t := queryTerm(prefix[rng.Intn(len(prefix))]); t != "" {
			return t
		}
	}
}

// path renders the request path. ids are the harvested bundle ids.
func (q querySpec) path(ids []uint64) string {
	switch q.kind {
	case kindProv:
		return fmt.Sprintf("/prov?k=%d&q=%s", queryTopK, url.QueryEscape(q.term))
	case kindSearch:
		return fmt.Sprintf("/search?k=%d&q=%s", queryTopK, url.QueryEscape(q.term))
	case kindBundle:
		return fmt.Sprintf("/bundle?id=%d", q.bundleID(ids))
	default:
		return fmt.Sprintf("/trending?k=%d", queryTopK)
	}
}

func (q querySpec) bundleID(ids []uint64) uint64 { return ids[q.pick%len(ids)] }
