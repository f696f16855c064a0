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
	"provex/internal/termdict"
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

// Doc couples a post with its indicants resolved to term-dictionary
// IDs. Resolution costs a tokenizer pass and a dictionary probe per
// term, so it happens once, in prepare, and the Doc rides along with
// the post through matching, allocation and summary maintenance.
//
// Terms is one exact-fit list: the author, the message's hashtags, its
// URLs and its keywords, then — for a re-share only — the re-shared
// user. Every ID carries its class, and the classes run Tag, URL,
// Keyword between the two users, so the Doc finds its own runs: the
// accessors below slice the list after a scan of its class bits. The
// author through the keywords is a prefix (Indicants), the set a bundle
// summary and the summary index count.
type Doc struct {
	Msg   *tweet.Post
	Terms []termdict.ID
}

// NewDoc resolves m's indicants and extracts and resolves the keywords
// of its text, adding first-seen terms to the dictionary. It touches no
// engine state (the dictionary is safe for concurrent use), which is
// what lets the pipeline's prepare stage run it ahead of the writer.
// The Doc holds a copy of m's Post, not m: the parse output is garbage
// once prepare returns.
func NewDoc(m *tweet.Message) Doc {
	var scratch [48]termdict.ID
	terms := appendHead(scratch[:0], m)
	terms = tokenizer.AppendKeywords(terms, m.Text)
	return finish(m, terms)
}

// DocWithKeywords is NewDoc with the keyword set given rather than
// extracted: a decoded bundle keeps the keywords its messages were
// indexed under.
func DocWithKeywords(m *tweet.Message, keywords []string) Doc {
	var scratch [48]termdict.ID
	terms := appendHead(scratch[:0], m)
	for _, k := range keywords {
		terms = append(terms, termdict.Intern(termdict.Keyword, k))
	}
	return finish(m, terms)
}

// appendHead appends the author, hashtag and URL IDs of m.
func appendHead(dst []termdict.ID, m *tweet.Message) []termdict.ID {
	dst = append(dst, termdict.Intern(termdict.User, m.User))
	for _, h := range m.Hashtags {
		dst = append(dst, termdict.Intern(termdict.Tag, h))
	}
	for _, u := range m.URLs {
		dst = append(dst, termdict.Intern(termdict.URL, u))
	}
	return dst
}

// finish appends the re-shared user and copies the list and the post
// out: the engine keeps both as long as it keeps the message.
func finish(m *tweet.Message, terms []termdict.ID) Doc {
	if m.IsRT() {
		terms = append(terms, termdict.Intern(termdict.User, m.RTOf))
	}
	post := m.Post
	return Doc{Msg: &post, Terms: append(make([]termdict.ID, 0, len(terms)), terms...)}
}

// Runs splits the terms after the author into the hashtag, URL and
// keyword runs, in one scan of their class bits: the runs follow one
// another in that order, and the re-shared user (class User) ends the
// last. Code that reads several runs of a Doc takes them from one call.
func (d Doc) Runs() (tags, urls, keywords []termdict.ID) {
	t := d.Terms
	i := 1
	for i < len(t) && t[i].Class() == termdict.Tag {
		i++
	}
	j := i
	for j < len(t) && t[j].Class() == termdict.URL {
		j++
	}
	k := j
	for k < len(t) && t[k].Class() == termdict.Keyword {
		k++
	}
	return t[1:i], t[i:j], t[j:k]
}

// rt is 1 for a re-share (its last term is the re-shared user), else 0.
func (d Doc) rt() int {
	if n := len(d.Terms); n > 1 && d.Terms[n-1].Class() == termdict.User {
		return 1
	}
	return 0
}

// User is the author's ID.
func (d Doc) User() termdict.ID { return d.Terms[0] }

// Tags are the hashtag IDs, in the message's order.
func (d Doc) Tags() []termdict.ID {
	tags, _, _ := d.Runs()
	return tags
}

// URLs are the URL IDs, in the message's order.
func (d Doc) URLs() []termdict.ID {
	_, urls, _ := d.Runs()
	return urls
}

// Keywords are the keyword IDs, in first-occurrence order.
func (d Doc) Keywords() []termdict.ID {
	_, _, keywords := d.Runs()
	return keywords
}

// RTUser is the re-shared user's ID; ok is false for an original post.
func (d Doc) RTUser() (id termdict.ID, ok bool) {
	if d.rt() == 0 {
		return termdict.None, false
	}
	return d.Terms[len(d.Terms)-1], true
}

// Indicants are the terms the message contributes to a bundle summary
// and the summary index: author, hashtags, URLs and keywords — every
// term but the re-shared user.
func (d Doc) Indicants() []termdict.ID { return d.Terms[:len(d.Terms)-d.rt()] }

// overlap counts common elements of two small ID lists. The lists on
// micro-blog messages hold a handful of entries, so the quadratic scan
// beats building sets.
func overlap(a, b []termdict.ID) int {
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

// rtOf reports whether b re-shares a's author.
func rtOf(a, b Doc) bool {
	rt, ok := b.RTUser()
	return ok && rt == a.User()
}

// Classify labels the strongest Table II connection from earlier
// message a to later message b, ConnNone when unrelated.
func Classify(a, b Doc) ConnectionType {
	if rtOf(a, b) {
		return ConnRT
	}
	at, au, ak := a.Runs()
	bt, bu, bk := b.Runs()
	switch {
	case overlap(au, bu) > 0:
		return ConnURL
	case overlap(at, bt) > 0:
		return ConnHashtag
	case overlap(ak, bk) > 0:
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
func U(earlier, later Doc) float64 { return share(earlier.URLs(), later.URLs()) }

// H is Equation 3, the hashtag analogue of U.
func H(earlier, later Doc) float64 { return share(earlier.Tags(), later.Tags()) }

// share is the fraction of later's terms that earlier carries, 0 when
// later has none: the ratio of Eq. 2, Eq. 3 and the keyword term.
func share(earlier, later []termdict.ID) float64 {
	if len(later) == 0 {
		return 0
	}
	return float64(overlap(later, earlier)) / float64(len(later))
}

// T is Equation 4: inverse time gap, measured in hours so that the
// scale is meaningful against the unit-interval overlap ratios (the
// paper leaves the unit open; hours make one-hour-apart messages score
// 0.5 and day-apart messages 0.04).
func T(a, b *tweet.Post) float64 {
	gap := tweet.Sub(a.Date, b.Date)
	if gap < 0 {
		gap = -gap
	}
	return 1 / (gap.Hours() + 1)
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
	et, eu, ek := earlier.Runs()
	lt, lu, lk := later.Runs()
	p := MessageSimParts{
		U:       w.URL * share(eu, lu), // Eq. 2, U
		H:       w.Tag * share(et, lt), // Eq. 3, H
		T:       w.Time * T(earlier.Msg, later.Msg),
		Keyword: w.Keyword * share(ek, lk),
	}
	p.Total = p.U + p.H + p.T + p.Keyword
	if rtOf(earlier, later) {
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
	// Count returns how many messages of the bundle carry the term — a
	// hashtag, URL or keyword, or for a user how many they posted.
	Count(term termdict.ID) int
	// LastDate is the newest message date in the bundle, in unix
	// nanoseconds.
	LastDate() int64
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
	tags, urls, kws := t.Runs()
	for _, u := range urls {
		if b.Count(u) > 0 {
			s += w.URL
			p.URL += w.URL
		}
	}
	for _, h := range tags {
		if b.Count(h) > 0 {
			s += w.Tag
			p.Tag += w.Tag
		}
	}
	if len(kws) > 0 {
		shared := 0
		for _, k := range kws {
			if b.Count(k) > 0 {
				shared++
			}
		}
		p.Keyword = w.Keyword * float64(shared) / float64(len(kws))
		s += p.Keyword
	}
	if rt, ok := t.RTUser(); ok && b.Count(rt) > 0 {
		p.RT = w.RT
		s += w.RT
	}
	if s > 0 && w.Time > 0 {
		gap := tweet.Sub(t.Msg.Date, b.LastDate())
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
// Dates are unix nanoseconds.
func EvictionRank(curr, lastUpdate int64, size int) float64 {
	ageHours := tweet.Sub(curr, lastUpdate).Hours()
	if size < 1 {
		size = 1
	}
	return ageHours + 1/float64(size)
}
