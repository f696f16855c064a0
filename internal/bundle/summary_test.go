package bundle

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// buildSized assembles an n-message bundle out of Parse-made messages
// (so it survives Marshal/Unmarshal, which re-derives indicants from
// the text): five users, a few shared tags and words, one unique word
// per message, and a re-share every seventh message.
func buildSized(n int) *Bundle {
	b := New(9)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("inning%d score update #game #t%d http://u.rl/%d", i, i%3, i%4)
		if i%7 == 6 {
			text = fmt.Sprintf("wow RT @user%d: %s", (i-1)%5, text)
		}
		b.Add(weights, doc(tweet.ID(i+1), fmt.Sprintf("user%d", i%5), text, base.Add(time.Duration(i)*time.Minute)))
	}
	return b
}

// refSummary is the summary as it was before the row table existed:
// eight plain maps filled for every bundle size. It is the oracle the
// two-form representation is compared against.
type refSummary struct {
	nodes  []Node
	counts [numClasses]map[string]int
	lists  [numClasses]map[string][]int32
}

func newRefSummary() *refSummary {
	r := &refSummary{}
	for c := range r.counts {
		r.counts[c] = map[string]int{}
		r.lists[c] = map[string][]int32{}
	}
	return r
}

// add is Algorithm 2 by the exhaustive scan, then the eight-map absorb.
func (r *refSummary) add(w score.MessageWeights, d score.Doc) Node {
	n := Node{Doc: d, Parent: NoParent}
	for i := range r.nodes {
		c := score.Classify(r.nodes[i].Doc, d)
		if c == score.ConnNone {
			continue
		}
		s := score.MessageSim(w, r.nodes[i].Doc, d).Total
		if s > n.Score || (s == n.Score && n.Parent == NoParent) {
			n.Score, n.Parent, n.Conn = s, int32(i), c
		}
	}
	r.nodes = append(r.nodes, n)
	id := int32(len(r.nodes) - 1)
	var user [1]string
	for c, ts := range classTerms(d, &user) {
		for _, t := range ts {
			r.counts[c][t]++
			if l := r.lists[c][t]; len(l) == 0 || l[len(l)-1] != id {
				r.lists[c][t] = append(l, id)
			}
		}
	}
	return n
}

// memBytes is the cost model of metrics/memest.go applied to the maps:
// rows below the threshold, map entries and node references from it up.
func (r *refSummary) memBytes() int64 {
	total := int64(metrics.BundleBase)
	for _, n := range r.nodes {
		m := n.Doc.Msg
		refs := len(m.Hashtags) + len(m.URLs) + len(m.Mentions) + len(n.Doc.Keywords)
		total += metrics.NodeBase + metrics.MessageBase +
			metrics.StringCost(m.User) + metrics.StringCost(m.Text) + int64(refs)*metrics.TermRefCost
	}
	indexed := len(r.nodes) >= PruneMinNodes
	if indexed {
		total += metrics.SummaryIndexBase
	}
	for c := range r.counts {
		for t := range r.counts[c] {
			if indexed {
				total += metrics.MapEntryCost + metrics.StringCost(t) +
					int64(len(r.lists[c][t]))*metrics.NodeRefCost
			} else {
				total += metrics.SummaryRowCost
			}
		}
	}
	return total
}

func (r *refSummary) sorted(c class) []string {
	var out []string
	for t := range r.counts[c] {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (r *refSummary) summaryWords(k int) []string {
	merged := map[string]int{}
	for t, n := range r.counts[classKey] {
		merged[t] += n
	}
	for t, n := range r.counts[classTag] {
		merged[t] += 2 * n
	}
	for t, n := range r.counts[classURL] {
		merged[t] += n
	}
	return tokenizer.TopTerms(merged, k)
}

// scriptDoc decodes one message from a byte script: a user out of five,
// tags, URLs and keywords drawn from small shared vocabularies or made
// unique to the message, an optional re-share, an optional term
// repeated inside the message, and a date that advances or, unless the
// script is ordered, sometimes jumps back. Messages are built directly
// (not through Parse) so that in-message repeats are reachable.
func scriptDoc(next func() byte, i int, at *time.Time, ordered bool) score.Doc {
	pick := func(kind string, shared int) string {
		v := int(next())
		if v%4 == 0 {
			return fmt.Sprintf("%s-only%d", kind, i)
		}
		return fmt.Sprintf("%s%d", kind, v%shared)
	}
	m := &tweet.Message{ID: tweet.ID(i + 1), User: fmt.Sprintf("user%d", next()%5)}
	shape := next()
	for n := int(shape % 3); n > 0; n-- {
		m.Hashtags = append(m.Hashtags, pick("tag", 4))
	}
	for n := int(shape / 3 % 3); n > 0; n-- {
		m.URLs = append(m.URLs, pick("u.rl/", 3))
	}
	var keys []string
	for n := int(shape / 9 % 5); n > 0; n-- {
		keys = append(keys, pick("word", 7))
	}
	switch shape / 45 {
	case 1:
		m.RTOf = fmt.Sprintf("user%d", next()%6) // user5 never posts
	case 2:
		if len(m.Hashtags) > 0 {
			m.Hashtags = append(m.Hashtags, m.Hashtags[0])
		}
	case 3:
		if len(keys) > 0 {
			keys = append(keys, keys[0])
		}
	case 4:
		if len(m.URLs) > 0 {
			m.URLs = append(m.URLs, m.URLs[0])
		}
	}
	if step := next(); step%16 == 0 && !ordered {
		*at = at.Add(-time.Duration(step) * time.Minute)
	} else {
		*at = at.Add(time.Duration(step) * time.Second)
	}
	m.Date = *at
	m.Text = fmt.Sprint(m.Hashtags, m.URLs, keys, m.RTOf)
	return score.Doc{Msg: m, Keywords: keys}
}

// checkSummaryScript feeds the script's messages to a Bundle and to the
// eight-map reference and compares everything the summary answers,
// after every Add. The script's first byte says whether dates may jump
// back, i.e. whether the time scan or the reference scan places from
// node 16 on.
func checkSummaryScript(t *testing.T, data []byte) *Bundle {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	b, ref, sc := New(1), newRefSummary(), NewScratch()
	at, ordered := base, next()%2 == 0
	for i := 0; pos < len(data) && i < 40; i++ {
		d := scriptDoc(next, i, &at, ordered)
		id, _ := b.AddScratch(weights, d, nil, sc)
		want, got := ref.add(weights, d), b.nodes[id]
		if got.Parent != want.Parent || got.Score != want.Score || got.Conn != want.Conn {
			t.Fatalf("msg %d: placed (parent=%d score=%v conn=%v), reference (parent=%d score=%v conn=%v)",
				i, got.Parent, got.Score, got.Conn, want.Parent, want.Score, want.Conn)
		}
		size := len(b.nodes)
		if indexed := b.idx != nil; indexed != (size >= PruneMinNodes) || (indexed && b.rows != nil) {
			t.Fatalf("size %d: indexed=%v with %d rows", size, indexed, len(b.rows))
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got, want := b.MemBytes(), ref.memBytes(); got != want {
			t.Fatalf("size %d: MemBytes = %d, reference %d", size, got, want)
		}
		lookups := [numClasses]func(string) int{
			classTag: b.TagCount, classURL: b.URLCount, classKey: b.KeywordCount,
			classUser: func(u string) int {
				if b.HasUser(u) {
					return 1
				}
				return 0
			},
		}
		for c, counts := range ref.counts {
			for term, n := range counts {
				if c == int(classUser) {
					n = 1
				}
				if got := lookups[c](term); got != n {
					t.Fatalf("size %d: %s %q = %d, reference %d", size, classNames[c], term, got, n)
				}
				if b.idx != nil && !slices.Equal(b.idx[c][term].nodes, ref.lists[c][term]) {
					t.Fatalf("size %d: %s %q nodes %v, reference %v",
						size, classNames[c], term, b.idx[c][term].nodes, ref.lists[c][term])
				}
			}
			for _, unseen := range []string{"", "nope", "tag", "user5", fmt.Sprintf("word-only%d", i+1)} {
				if got := lookups[c](unseen); got != 0 {
					t.Fatalf("size %d: %s %q = %d, want 0", size, classNames[c], unseen, got)
				}
			}
		}
		tags, urls, keys, users := b.Indicants()
		for c, got := range [numClasses][]string{classTag: tags, classURL: urls, classKey: keys, classUser: users} {
			if want := ref.sorted(class(c)); !slices.Equal(got, want) {
				t.Fatalf("size %d: Indicants %s = %v, reference %v", size, classNames[c], got, want)
			}
		}
		for _, k := range []int{1, 4, 100} {
			if got, want := b.SummaryWords(k), ref.summaryWords(k); !slices.Equal(got, want) {
				t.Fatalf("size %d: SummaryWords(%d) = %v, reference %v", size, k, got, want)
			}
		}
	}
	return b
}

// TestSummaryMatchesReference runs seeded scripts long enough to cross
// the threshold (sizes 15, 16 and 17 are checked like every other).
func TestSummaryMatchesReference(t *testing.T) {
	var inOrder, outOfOrder int
	for seed := int64(0); seed < 40; seed++ {
		data := make([]byte, 40*12)
		rand.New(rand.NewSource(seed)).Read(data)
		b := checkSummaryScript(t, data)
		switch {
		case b.Size() <= PruneMinNodes:
			t.Fatalf("seed %d: the script ended at %d nodes, short of the threshold", seed, b.Size())
		case b.timeOrdered:
			inOrder++
		default:
			outOfOrder++
		}
	}
	if inOrder < 10 || outOfOrder < 10 {
		t.Errorf("%d ordered and %d out-of-order scripts: the time scan or the reference scan is barely exercised", inOrder, outOfOrder)
	}
}

func FuzzBundleSummary(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 24*12)
		rand.New(rand.NewSource(100 + seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 300)) // one user, no indicants, a date that only jumps back
	f.Fuzz(func(t *testing.T, data []byte) { checkSummaryScript(t, data) })
}

// TestSmallBundleOwnsNoMap pins the point of the row table: below
// PruneMinNodes a bundle holds no hash map, and a single-message
// bundle — most of any pool — is three allocations: the struct, its
// node slice and an exact-fit row table.
func TestSmallBundleOwnsNoMap(t *testing.T) {
	b := buildSized(PruneMinNodes - 1)
	if b.idx != nil {
		t.Fatalf("a %d-node bundle owns an index", b.Size())
	}
	if len(b.rows) == 0 || b.Validate() != nil {
		t.Fatalf("a %d-node bundle has %d rows, Validate: %v", b.Size(), len(b.rows), b.Validate())
	}
	b = buildSized(PruneMinNodes)
	if b.idx == nil || b.rows != nil {
		t.Fatalf("a %d-node bundle: index %v, %d rows", b.Size(), b.idx != nil, len(b.rows))
	}

	d := doc(1, "wharman", "Lester down #redsox http://bit.ly/x", base)
	var single *Bundle
	allocs := testing.AllocsPerRun(100, func() {
		single = New(1)
		single.Add(weights, d)
	})
	if allocs != 3 {
		t.Errorf("a single-message bundle costs %v allocations, want 3", allocs)
	}
	if len(single.rows) != cap(single.rows) {
		t.Errorf("row table has %d rows in %d slots, want an exact fit", len(single.rows), cap(single.rows))
	}
}
