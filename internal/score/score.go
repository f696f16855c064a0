// Package score implements every similarity and ranking function of the
// paper: the Table II connection types between messages, the
// message-to-message similarity of Equations 2–5 (used by Algorithm 2,
// message allocation inside a bundle), the message-to-bundle relevance
// of Equation 1 (used by Algorithm 1, bundle match), and the eviction
// rank of Equation 6.
//
// All functions are pure and deterministic so the Full Index ground
// truth and the Partial Index approximations differ only through what
// state each retains, never through scoring noise.
package score

import (
	"time"

	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// ConnectionType classifies the provenance edge between two messages —
// Table II of the paper.
type ConnectionType uint8

// Connection types in priority order: when several hold, the edge is
// labelled with the strongest.
const (
	ConnNone    ConnectionType = iota
	ConnText                   // shared keywords
	ConnHashtag                // shared hashtag
	ConnURL                    // shared short-link
	ConnRT                     // explicit re-share
)

// String names the connection type.
func (c ConnectionType) String() string {
	switch c {
	case ConnRT:
		return "rt"
	case ConnURL:
		return "url"
	case ConnHashtag:
		return "hashtag"
	case ConnText:
		return "text"
	default:
		return "none"
	}
}

// Doc couples a message with its extracted keyword set. Keyword
// extraction costs a tokenizer pass, so it happens once at ingest and
// rides along with the message through matching, allocation and
// summary maintenance.
type Doc struct {
	Msg      *tweet.Message
	Keywords []string
}

// NewDoc runs the keyword extraction pass for m and returns the Doc the
// scoring functions consume. It is pure (no shared state beyond the
// tokenizer's concurrency-safe intern table), which is what lets the
// pipeline's prepare stage run it on many messages concurrently.
func NewDoc(m *tweet.Message) Doc {
	return Doc{Msg: m, Keywords: tokenizer.Keywords(m.Text)}
}

// overlap counts common elements of two small string slices. The slices
// on micro-blog messages hold a handful of entries, so the quadratic
// scan beats building maps.
func overlap(a, b []string) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}

// Classify labels the strongest Table II connection from earlier
// message a to later message b, ConnNone when unrelated.
func Classify(a, b Doc) ConnectionType {
	switch {
	case b.Msg.IsRT() && b.Msg.RTOf == a.Msg.User:
		return ConnRT
	case overlap(a.Msg.URLs, b.Msg.URLs) > 0:
		return ConnURL
	case overlap(a.Msg.Hashtags, b.Msg.Hashtags) > 0:
		return ConnHashtag
	case overlap(a.Keywords, b.Keywords) > 0:
		return ConnText
	default:
		return ConnNone
	}
}

// MessageWeights are the α, β, γ of Equation 5 plus the keyword and RT
// extensions the equation's trailing "…" leaves open.
type MessageWeights struct {
	URL     float64 // α: weight of U(ti,tj), Eq. 2
	Tag     float64 // β: weight of H(ti,tj), Eq. 3
	Time    float64 // γ: weight of T(ti,tj), Eq. 4
	Keyword float64 // weight of shared-keyword ratio
	RT      float64 // additive bonus for an explicit re-share edge
}

// DefaultMessageWeights favour explicit signals (RT, URL) over tags over
// plain text, with freshness as a tiebreaker — the ordering the paper's
// Table II discussion implies.
func DefaultMessageWeights() MessageWeights {
	return MessageWeights{URL: 1.0, Tag: 0.8, Time: 0.4, Keyword: 0.5, RT: 2.0}
}

// U is Equation 2: the fraction of the later message's URLs shared with
// the earlier one. Zero when the later message has no URLs.
func U(earlier, later *tweet.Message) float64 {
	if len(later.URLs) == 0 {
		return 0
	}
	return float64(overlap(later.URLs, earlier.URLs)) / float64(len(later.URLs))
}

// H is Equation 3, the hashtag analogue of U.
func H(earlier, later *tweet.Message) float64 {
	if len(later.Hashtags) == 0 {
		return 0
	}
	return float64(overlap(later.Hashtags, earlier.Hashtags)) / float64(len(later.Hashtags))
}

// T is Equation 4: inverse time gap, measured in hours so that the
// scale is meaningful against the unit-interval overlap ratios (the
// paper leaves the unit open; hours make one-hour-apart messages score
// 0.5 and day-apart messages 0.04).
func T(a, b *tweet.Message) float64 {
	gap := a.Date.Sub(b.Date)
	if gap < 0 {
		gap = -gap
	}
	return 1 / (gap.Hours() + 1)
}

// keywordSim is the keyword analogue of U/H over extracted keyword sets.
func keywordSim(earlier, later Doc) float64 {
	if len(later.Keywords) == 0 {
		return 0
	}
	return float64(overlap(later.Keywords, earlier.Keywords)) / float64(len(later.Keywords))
}

// MessageSimParts is Equation 5 split into its weighted components.
// Total is what Algorithm 2 compares; the components are what the
// decision tracer shows.
type MessageSimParts struct {
	U       float64 // weighted Eq. 2 term
	H       float64 // weighted Eq. 3 term
	T       float64 // weighted Eq. 4 term
	Keyword float64 // weighted keyword-ratio term
	RT      float64 // re-share bonus (0 or w.RT)
	Total   float64
}

// MessageSim is Equation 5: the weighted similarity of a later message
// to an earlier one, used to pick the parent node inside a bundle.
// Total accumulates as ((U+H)+T)+Keyword, then the RT bonus; the
// time-bounded placement scan (bundle.addPrunedTime) reproduces that
// order from its merge counts.
func MessageSim(w MessageWeights, earlier, later Doc) MessageSimParts {
	p := MessageSimParts{
		U:       w.URL * U(earlier.Msg, later.Msg),
		H:       w.Tag * H(earlier.Msg, later.Msg),
		T:       w.Time * T(earlier.Msg, later.Msg),
		Keyword: w.Keyword * keywordSim(earlier, later),
	}
	p.Total = p.U + p.H + p.T + p.Keyword
	if later.Msg.IsRT() && later.Msg.RTOf == earlier.Msg.User {
		p.RT = w.RT
		p.Total += w.RT
	}
	return p
}

// BundleWeights parameterise Equation 1 — message-to-bundle relevance.
type BundleWeights struct {
	URL     float64 // α: per shared URL
	Tag     float64 // β: per shared hashtag
	Keyword float64 // per shared keyword
	RT      float64 // bonus when the bundle contains the re-shared user
	Time    float64 // γ: freshness factor weight

	// Threshold is the minimum Eq. 1 score at which a message joins an
	// existing bundle; below it a fresh bundle is created. It realises
	// Algorithm 1's "if bundle is null" branch for indicant-free or
	// unrelated messages.
	Threshold float64
}

// DefaultBundleWeights mirror DefaultMessageWeights at bundle
// granularity. The threshold requires at least one hard indicant match
// (URL, tag, RT): the keyword term is a ratio bounded by w.Keyword and
// the freshness term by w.Time, so keyword overlap plus freshness
// (0.22+0.30) can never reach the 0.55 threshold on their own. That
// bound is what stops a large bundle — which contains nearly every
// common keyword — from snowballing the whole stream into itself.
func DefaultBundleWeights() BundleWeights {
	return BundleWeights{URL: 1.0, Tag: 0.9, Keyword: 0.22, RT: 1.5, Time: 0.3, Threshold: 0.55}
}

// BundleStats is the view of a bundle the Eq. 1 scorer needs. It is a
// narrow interface so score does not depend on the bundle package.
type BundleStats interface {
	// TagCount / URLCount / KeywordCount return how many messages of
	// the bundle carry the given indicant.
	TagCount(tag string) int
	URLCount(url string) int
	KeywordCount(kw string) int
	// HasUser reports whether the user posted inside the bundle.
	HasUser(user string) bool
	// LastDate is the newest message date in the bundle.
	LastDate() time.Time
}

// BundleSimParts is Equation 1 split into its components. Total is what
// the match stage compares against the join threshold; the components
// are what the decision tracer shows.
type BundleSimParts struct {
	URL       float64 // hard URL indicant matches
	Tag       float64 // hard hashtag indicant matches
	Keyword   float64 // bounded keyword-ratio term
	RT        float64 // re-share bonus (0 or w.RT)
	Freshness float64 // γ·1/(1+Δt_hours), only when the rest is > 0
	Total     float64
}

// BundleSim is Equation 1: S(t,B). The hard-indicant terms count
// distinct indicants of t present in B (the |url(t) ∩ url(B)| and
// |tag(t) ∩ tag(B)| of the paper). The keyword extension (the
// equation's trailing "…") is the *fraction* of t's keywords present in
// B, bounded by w.Keyword — an unbounded per-keyword count would let a
// large bundle, which accumulates every common word, attract every
// subsequent message and snowball. The freshness term is
// γ·1/(1+Δt_hours) per the documented reading of the paper's time
// factor (see DESIGN.md). Total is one running sum in the order the
// terms are listed here, term by term, not a sum of the components.
func BundleSim(w BundleWeights, t Doc, b BundleStats) BundleSimParts {
	var p BundleSimParts
	var s float64
	for _, u := range t.Msg.URLs {
		if b.URLCount(u) > 0 {
			s += w.URL
			p.URL += w.URL
		}
	}
	for _, h := range t.Msg.Hashtags {
		if b.TagCount(h) > 0 {
			s += w.Tag
			p.Tag += w.Tag
		}
	}
	if len(t.Keywords) > 0 {
		shared := 0
		for _, k := range t.Keywords {
			if b.KeywordCount(k) > 0 {
				shared++
			}
		}
		p.Keyword = w.Keyword * float64(shared) / float64(len(t.Keywords))
		s += p.Keyword
	}
	if t.Msg.IsRT() && b.HasUser(t.Msg.RTOf) {
		p.RT = w.RT
		s += w.RT
	}
	if s > 0 && w.Time > 0 {
		gap := t.Msg.Date.Sub(b.LastDate())
		if gap < 0 {
			gap = -gap
		}
		p.Freshness = w.Time / (gap.Hours() + 1)
		s += p.Freshness
	}
	p.Total = s
	return p
}

// Score upper bounds (DESIGN.md §2g). The pruned ingest paths skip a
// candidate only when its bound falls below the running best, so a
// bound must never under-estimate the true score. Each similarity
// component is a ratio in [0,1] scaled by its weight, which makes the
// clamped weight itself the component ceiling; BoundSlop absorbs the
// few ulps by which a differently-associated floating-point sum could
// exceed the bound arithmetic. Inflating a bound can only make pruning
// more conservative — it can never change which candidate wins — so
// the slop is safe by construction.

// BoundSlop is added to every score upper bound to dominate
// floating-point association error. Real scores are O(1) sums of at
// most a few hundred terms, so accumulated rounding stays below 1e-12;
// 1e-9 leaves three orders of magnitude of margin while remaining far
// below any meaningful score difference.
const BoundSlop = 1e-9

// ceil0 is the contribution ceiling of one weighted component whose
// ratio term is bounded by [0,1]: w for positive weights, 0 for
// negative ones (a negative weight times a non-negative ratio can only
// lower the score).
func ceil0(w float64) float64 {
	if w < 0 {
		return 0
	}
	return w
}

// BundleSimCeil bounds BundleSim(w, t, b) from above for a candidate
// bundle known (from summary-index postings) to carry urlHits of t's
// URLs and tagHits of its hashtags, with rt reporting whether the
// bundle contains the re-shared user. The slack counts cover hard
// postings the fetch did NOT traverse (fanout cut): each untraversed
// list may or may not contain the bundle, so the bound assumes it does,
// at the clamped weight. The keyword term is a ratio the fetch never
// counts (keyword postings are not walked), so it is charged at its
// ceiling; the freshness term is ≤ w.Time. BoundSlop covers the
// difference between this multiply-based arithmetic and BundleSim's
// running sum.
func BundleSimCeil(w BundleWeights, urlHits, tagHits int, rt bool,
	slackURL, slackTag int, slackRT bool) float64 {
	s := w.URL*float64(urlHits) + w.Tag*float64(tagHits) + BoundSlop
	if rt {
		s += w.RT
	} else if slackRT {
		s += ceil0(w.RT)
	}
	s += ceil0(w.URL)*float64(slackURL) + ceil0(w.Tag)*float64(slackTag)
	s += ceil0(w.Keyword) + ceil0(w.Time)
	return s
}

// HardIndicantsRequired reports whether no bundle can pass the join
// threshold on the keyword and freshness terms alone: their ceilings
// (plus BoundSlop) stay at or below Threshold, and a join needs a score
// strictly above it. Candidate fetch walks only the hard-indicant
// classes (URL, hashtag, re-shared user), which is lossless exactly
// when this holds; core.New refuses weights that break it.
func (w BundleWeights) HardIndicantsRequired() bool {
	return ceil0(w.Keyword)+ceil0(w.Time)+BoundSlop <= w.Threshold
}

// EvictionRank is Equation 6: G(B) = curr − date(B) + 1/|B|, where the
// age term is measured in hours (the unit again left open by the paper;
// hours keep the 1/|B| size term relevant for bundles hours-old rather
// than vanishing instantly). Higher ranks evict first.
func EvictionRank(curr, lastUpdate time.Time, size int) float64 {
	ageHours := curr.Sub(lastUpdate).Hours()
	if size < 1 {
		size = 1
	}
	return ageHours + 1/float64(size)
}
