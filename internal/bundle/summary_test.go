package bundle

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
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
		b.AddScratch(weights, doc(tweet.ID(i+1), fmt.Sprintf("user%d", i%5), text, base.Add(time.Duration(i)*time.Minute)), nil, nil)
	}
	return b
}

// refSummary is the summary as it was before the row table existed:
// eight plain maps filled for every bundle size. It is the oracle the
// three-form representation is compared against.
type refSummary struct {
	nodes  []Node
	counts [termdict.NumClasses]map[string]int
	lists  [termdict.NumClasses]map[string][]int32
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
// It returns the node and its edge score.
func (r *refSummary) add(w score.MessageWeights, d score.Doc) (Node, float64) {
	n, best := Node{Doc: d, Parent: NoParent}, 0.0
	for i := range r.nodes {
		c := score.Classify(r.nodes[i].Doc, d)
		if c == score.ConnNone {
			continue
		}
		s := score.MessageSim(w, r.nodes[i].Doc, d).Total
		if s > best || (s == best && n.Parent == NoParent) {
			best, n.Parent, n.Conn = s, int32(i), c
		}
	}
	r.nodes = append(r.nodes, n)
	id := int32(len(r.nodes) - 1)
	for c, ts := range stringTerms(d) {
		for _, t := range ts {
			r.counts[c][t]++
			if l := r.lists[c][t]; len(l) == 0 || l[len(l)-1] != id {
				r.lists[c][t] = append(l, id)
			}
		}
	}
	return n, best
}

// stringTerms lists d's summary indicants by class as strings — the
// message's own for tags, URLs and the author — so the reference keeps
// no term IDs.
func stringTerms(d score.Doc) [termdict.NumClasses][]string {
	terms := func(ids []termdict.ID) []string {
		var out []string
		for _, id := range ids {
			out = append(out, termdict.Term(id))
		}
		return out
	}
	tags, urls, keywords := d.Runs()
	return [termdict.NumClasses][]string{
		termdict.Tag: terms(tags), termdict.URL: terms(urls), termdict.Keyword: terms(keywords), termdict.User: {termdict.Term(d.User())},
	}
}

// memBytes is the cost model of metrics/memest.go applied to the maps:
// nothing beyond the record for one node, rows below the threshold, and
// from it up a map entry and node references per term, plus a list
// header for a term on two nodes or more.
func (r *refSummary) memBytes() int64 {
	total := int64(metrics.BundleBase)
	for _, n := range r.nodes {
		total += metrics.NodeBase + metrics.MessageBase +
			int64(len(n.Doc.Terms()))*metrics.TermRefCost + int64(len(n.Doc.Text()))
	}
	size := len(r.nodes)
	indexed := size >= PruneMinNodes
	if indexed {
		total += metrics.SummaryIndexBase
	}
	for c := range r.counts {
		for t := range r.counts[c] {
			switch nodes := len(r.lists[c][t]); {
			case indexed && nodes > 1:
				total += metrics.MapEntryCost + metrics.NodeListCost + int64(nodes)*metrics.NodeRefCost
			case indexed:
				total += metrics.MapEntryCost + metrics.NodeRefCost
			case size > 1:
				total += metrics.SummaryRowCost
			}
		}
	}
	return total
}

func (r *refSummary) sorted(c termdict.Class) []string {
	var out []string
	for t := range r.counts[c] {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (r *refSummary) summaryWords(k int) []string {
	merged := map[string]int{}
	for t, n := range r.counts[termdict.Keyword] {
		merged[t] += n
	}
	for t, n := range r.counts[termdict.Tag] {
		merged[t] += 2 * n
	}
	for t, n := range r.counts[termdict.URL] {
		merged[t] += n
	}
	return tokenizer.TopTerms(merged, k)
}

// scriptDoc decodes one message from a byte script: a user out of five,
// tags, URLs and keywords drawn from small shared vocabularies or made
// unique to the message, an optional re-share, an optional term
// repeated inside the message, and a date that advances or, unless the
// script is ordered, sometimes jumps back. Messages are built directly
// (not through Parse) so that in-message repeats of a hashtag or a URL
// reach score.finish, which must keep the repeated term once. The text
// is the keywords, spelled so the tokenizer keeps them as they are; a
// repeated keyword is the tokenizer's to drop.
func scriptDoc(t *testing.T, next func() byte, i int, at *time.Time, ordered bool) score.Doc {
	pick := func(kind string, shared int) string {
		v := int(next())
		if v%4 == 0 {
			return fmt.Sprintf("%s_only%d", kind, i)
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
	repeat := termdict.None
	switch shape / 45 {
	case 1:
		m.RTOf = fmt.Sprintf("user%d", next()%6) // user5 never posts
	case 2:
		if len(m.Hashtags) > 0 {
			m.Hashtags = append(m.Hashtags, m.Hashtags[0])
			repeat = termdict.Intern(termdict.Tag, m.Hashtags[0])
		}
	case 3:
		if len(keys) > 0 {
			keys = append(keys, keys[0])
			repeat = termdict.Intern(termdict.Keyword, keys[0])
		}
	case 4:
		if len(m.URLs) > 0 {
			m.URLs = append(m.URLs, m.URLs[0])
			repeat = termdict.Intern(termdict.URL, m.URLs[0])
		}
	}
	if step := next(); step%16 == 0 && !ordered {
		*at = at.Add(-time.Duration(step) * time.Minute)
	} else {
		*at = at.Add(time.Duration(step) * time.Second)
	}
	m.Date = at.UnixNano()
	m.Text = strings.Join(keys, " ")
	d := score.NewDoc(m)
	for j, id := range d.Indicants() {
		if slices.Contains(d.Indicants()[:j], id) {
			t.Fatalf("msg %d: %s %q is in the record twice", i, id.Class(), termdict.Term(id))
		}
	}
	if repeat != termdict.None && !slices.Contains(d.Indicants(), repeat) {
		t.Fatalf("msg %d: the repeated %s %q is not in the record", i, repeat.Class(), termdict.Term(repeat))
	}
	return d
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
		d := scriptDoc(t, next, i, &at, ordered)
		id, _ := b.AddScratch(weights, d, nil, sc)
		want, wantScore := ref.add(weights, d)
		got, gotScore := b.nodes[id], b.EdgeScore(weights, id)
		if got.Parent != want.Parent || gotScore != wantScore || got.Conn != want.Conn {
			t.Fatalf("msg %d: placed (parent=%d score=%v conn=%v), reference (parent=%d score=%v conn=%v)",
				i, got.Parent, gotScore, got.Conn, want.Parent, wantScore, want.Conn)
		}
		size := len(b.nodes)
		if indexed, rowed := b.idx != nil, b.rows != nil; indexed != (size >= PruneMinNodes) || rowed != (size > 1 && !indexed) {
			t.Fatalf("size %d: indexed=%v with %d rows", size, indexed, len(b.rows))
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got, want := b.MemBytes(), ref.memBytes(); got != want {
			t.Fatalf("size %d: MemBytes = %d, reference %d", size, got, want)
		}
		for c, counts := range ref.counts {
			class := termdict.Class(c)
			for term, n := range counts {
				id := termdict.Lookup(class, term)
				if got := b.Count(id); got != n {
					t.Fatalf("size %d: %s %q = %d, reference %d", size, class, term, got, n)
				}
				if b.idx != nil && !slices.Equal(b.nodesWith(id), ref.lists[c][term]) {
					t.Fatalf("size %d: %s %q nodes %v, reference %v",
						size, class, term, b.nodesWith(id), ref.lists[c][term])
				}
			}
			for _, unseen := range []string{"", "nope", "tag", "user5", fmt.Sprintf("word_only%d", i+1)} {
				if got := b.Count(termdict.Intern(class, unseen)); got != 0 {
					t.Fatalf("size %d: %s %q = %d, want 0", size, class, unseen, got)
				}
			}
		}
		for c := range termdict.NumClasses {
			if got, want := sortedTerms(b, termdict.Class(c)), ref.sorted(termdict.Class(c)); !slices.Equal(got, want) {
				t.Fatalf("size %d: Indicants %s = %v, reference %v", size, termdict.Class(c), got, want)
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
	f.Add(make([]byte, 300))      // one user, no indicants, a date that only jumps back
	f.Add([]byte{0, 0, 1, 1, 30}) // one message: the summary is its record
	f.Add(promotionScript())
	f.Fuzz(func(t *testing.T, data []byte) { checkSummaryScript(t, data) })
}

// promotionScript is an ordered script in which single-node terms of the
// index gain their second node (node ids count from 0): word1 is on node
// 5 alone when node 15, the sixteenth, builds the index, u.rl/1 first
// appears on node 16, node 17 carries both — each moves from the
// single-node list to a list of its own — and node 18 extends the URL's
// list. The other nodes carry only their
// author. Each message is the bytes scriptDoc reads: user, shape, one
// pick per indicant, date step.
func promotionScript() []byte {
	const (
		oneURL = 3 // scriptDoc's shape: tags shape%3, URLs shape/3%3, keywords shape/9%5
		oneKey = 9
	)
	data := []byte{0} // ordered
	for i := 0; i < 19; i++ {
		switch i {
		case 5:
			data = append(data, byte(i), oneKey, 1, 30)
		case 16, 18:
			data = append(data, byte(i), oneURL, 1, 30)
		case 17:
			data = append(data, byte(i), oneURL+oneKey, 1, 1, 30)
		default:
			data = append(data, byte(i), 0, 30)
		}
	}
	return data
}

// TestSingleNodeTermMovesToList runs promotionScript and checks where
// its two terms ended: each on a list of its own, with its first node
// left behind in the single-node list.
func TestSingleNodeTermMovesToList(t *testing.T) {
	b := checkSummaryScript(t, promotionScript())
	for term, want := range map[termdict.ID][]int32{
		termdict.Lookup(termdict.Keyword, "word1"): {5, 17},
		termdict.Lookup(termdict.URL, "u.rl/1"):    {16, 17, 18},
	} {
		if r := b.idx.refs[term]; r&listRef == 0 || !slices.Equal(b.nodesWith(term), want) {
			t.Errorf("%s %q: reference %#x, nodes %v, want a list of %v", term.Class(), termdict.Term(term), r, b.nodesWith(term), want)
		}
		if !slices.Contains(b.idx.single, want[0]) {
			t.Errorf("%s %q: node %d is not in the single-node list %v", term.Class(), termdict.Term(term), want[0], b.idx.single)
		}
	}
}

// TestSummaryReadsAllocateNothing is the runtime pin beside provlint's
// hotpathalloc on Count and nodesWith: in each of the three forms a
// lookup, hit or miss, allocates nothing.
func TestSummaryReadsAllocateNothing(t *testing.T) {
	for _, n := range []int{1, PruneMinNodes - 1, PruneMinNodes + 5} {
		b := buildSized(n)
		terms := b.AppendTerms(nil)
		terms = append(terms, termdict.Intern(termdict.Keyword, "nowhere-in-the-bundle"))
		allocs := testing.AllocsPerRun(100, func() {
			for _, term := range terms {
				if b.Count(term) > 0 && b.idx != nil && len(b.nodesWith(term)) == 0 {
					t.Fatal("counted term without nodes")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("size %d: %v allocations per pass over %d terms, want 0", n, allocs, len(terms))
		}
	}
}

// TestSmallBundleOwnsNoMap pins the point of the small forms: below
// PruneMinNodes a bundle holds no hash map, and a single-message
// bundle — most of any pool — is two allocations, the struct and its
// node slice: its summary is its record.
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
		single.AddScratch(weights, d, nil, nil)
	})
	if allocs != 2 {
		t.Errorf("a single-message bundle costs %v allocations, want 2", allocs)
	}
	if single.rows != nil || single.Count(d.User()) != 1 {
		t.Errorf("a single-message bundle holds %d rows and counts its author %d times", len(single.rows), single.Count(d.User()))
	}
	pair := New(2)
	pair.AddScratch(weights, d, nil, nil)
	pair.AddScratch(weights, doc(2, "dims", "unbelievable #redsox", base.Add(time.Minute)), nil, nil)
	if len(pair.rows) != cap(pair.rows) || pair.Count(termdict.Lookup(termdict.Tag, "redsox")) != 2 {
		t.Errorf("a two-message bundle has %d rows in %d slots, want an exact fit", len(pair.rows), cap(pair.rows))
	}
}

// sortedTerms returns the distinct terms of class c in b ordered by the
// term string, never by ID: every process numbers terms its own way.
func sortedTerms(b *Bundle, c termdict.Class) []string {
	var out []string
	for _, t := range b.AppendTerms(nil) {
		if t.Class() == c {
			out = append(out, termdict.Term(t))
		}
	}
	sort.Strings(out)
	return out
}
