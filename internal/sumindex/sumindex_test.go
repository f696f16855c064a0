package sumindex

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/bundle"
	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)

func doc(id tweet.ID, user, text string) score.Doc {
	m := tweet.Parse(id, user, base.Add(time.Duration(id)*time.Minute), text)
	return score.NewDoc(m)
}

func TestObserveAndCandidates(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "game on #redsox http://bit.ly/x"))
	ix.Observe(2, doc(2, "b", "other topic #politics"))

	cands := ix.Candidates(doc(3, "c", "watching #redsox tonight"))
	if len(cands) != 1 || cands[0].ID != 1 {
		t.Fatalf("Candidates = %v, want bundle 1", cands)
	}
	if cands[0].Hits() < 1 {
		t.Errorf("Hits = %d, want >= 1", cands[0].Hits())
	}
}

func TestCandidatesRankedByHits(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox only"))
	ix.Observe(2, doc(2, "b", "#redsox #yankees http://bit.ly/x game"))

	cands := ix.Candidates(doc(3, "c", "game #redsox #yankees http://bit.ly/x"))
	if len(cands) != 2 {
		t.Fatalf("Candidates = %v, want 2", cands)
	}
	if cands[0].ID != 2 {
		t.Errorf("best candidate = %d, want 2 (more shared indicants)", cands[0].ID)
	}
	if cands[0].Hits() <= cands[1].Hits() {
		t.Errorf("hits not descending: %v", cands)
	}
}

func TestCandidatesRTUserClass(t *testing.T) {
	ix := New()
	ix.Observe(5, doc(1, "amaliebenjamin", "lester ovation"))
	rt := doc(2, "fan", "so classy RT @AmalieBenjamin: lester ovation")
	cands := ix.Candidates(rt)
	found := false
	for _, c := range cands {
		if c.ID == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("RT did not surface the author's bundle: %v", cands)
	}
}

// TestCandidatesEmpty: reads of terms the index holds no list for —
// None, a Lookup miss, terms observed by no bundle, classes with no
// page yet — find nothing and grow nothing.
func TestCandidatesEmpty(t *testing.T) {
	ix := New()
	if got := ix.Candidates(doc(1, "a", "anything #tag")); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	ix.Observe(1, doc(1, "a", "#redsox"))
	if got := ix.Candidates(doc(2, "b", "ugh")); got != nil {
		t.Errorf("indicant-free message returned %v", got)
	}
	mem := ix.MemBytes()
	for _, term := range []termdict.ID{termdict.None, termdict.Lookup(termdict.Tag, "never-interned-tag")} {
		if got := ix.AppendPostings(nil, term); got != nil {
			t.Errorf("AppendPostings(%v) = %v, want nothing", term, got)
		}
	}
	// A message of terms no bundle carries, in every class; interned
	// after the observed ones, they index past the columns' ends.
	unseen := doc(3, "never-observed-user", "RT @never-observed-rt: #never-observed-tag http://never.observed/x")
	if got := ix.Candidates(unseen); got != nil {
		t.Errorf("never-observed terms returned %v", got)
	}
	for _, term := range unseen.Indicants() {
		if got := ix.AppendPostings(nil, term); got != nil {
			t.Errorf("AppendPostings(%v) = %v for a never-observed term", term, got)
		}
	}
	ix.Forget(1, unseen.Indicants())
	if got := ix.MemBytes(); got != mem {
		t.Errorf("MemBytes = %d after reads of absent terms, was %d", got, mem)
	}
}

func TestForget(t *testing.T) {
	ix := New()
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	ix.Observe(2, doc(2, "b", "more #redsox"))

	ix.Forget(1, d.Indicants())
	cands := ix.Candidates(doc(3, "c", "#redsox game http://bit.ly/x"))
	for _, c := range cands {
		if c.ID == 1 {
			t.Fatalf("forgotten bundle still a candidate: %v", cands)
		}
	}
	if len(cands) != 1 || cands[0].ID != 2 {
		t.Errorf("Candidates = %v, want only bundle 2", cands)
	}
	// Forgetting again is a no-op.
	ix.Forget(1, []termdict.ID{termdict.Lookup(termdict.Tag, "redsox")})
}

// columnBytes is what the index's term columns hold: the pages Observe
// reached, which Forget leaves in place.
func columnBytes(ix *Index) int64 {
	var n int64
	for c := range ix.terms {
		n += ix.terms[c].Bytes()
	}
	return n
}

// TestMemoryAccounting: a term on one bundle costs its entry alone, a
// list is charged its capacity while it is held, and a full forget
// leaves the estimate at the columns' page bytes.
func TestMemoryAccounting(t *testing.T) {
	ix := New()
	if ix.MemBytes() != 0 {
		t.Fatalf("fresh index mem = %d", ix.MemBytes())
	}
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	pages := columnBytes(ix)
	if pages <= 0 || ix.MemBytes() != pages {
		t.Fatalf("mem after Observe = %d, want the columns' %d page bytes: every term is inline", ix.MemBytes(), pages)
	}
	d2 := doc(2, "b", "game #redsox")
	ix.Observe(2, d2)
	pages = columnBytes(ix)
	// The terms both carry (game and #redsox) now have lists of two, at
	// capFor(2), each in a slot of the list table.
	shared := 0
	for _, term := range d2.Indicants() {
		if slices.Contains(d.Indicants(), term) {
			shared++
		}
	}
	if want := pages + int64(shared)*(int64(capFor(2))*metrics.PostingCost+metrics.ListSlotCost); shared < 2 || ix.MemBytes() != want {
		t.Fatalf("mem after a second bundle = %d, want %d (%d shared terms)", ix.MemBytes(), want, shared)
	}
	ix.Forget(2, d2.Indicants())
	if got := ix.MemBytes(); got != pages {
		t.Errorf("mem after the second bundle's forget = %d, want the columns' %d page bytes", got, pages)
	}
	ix.Forget(1, d.Indicants())
	if got := ix.MemBytes(); got != pages || columnBytes(ix) != pages {
		t.Errorf("mem after full forget = %d, want the columns' %d page bytes", got, pages)
	}
	for _, term := range d.Indicants() {
		if e := ix.entry(term); e != 0 {
			t.Errorf("the entry of forgotten %v is %#x, want 0", term, e)
		}
	}
}

// TestDuplicateObserveOnePosting: a bundle is on a term's list once,
// however many of its messages carry the term, and only its first
// message is charged.
func TestDuplicateObserveOnePosting(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox"))
	once := ix.MemBytes()
	ix.Observe(1, doc(2, "a", "#redsox"))
	p := ix.AppendPostings(nil, termdict.Lookup(termdict.Tag, "redsox"))
	if !slices.Equal(p, []bundle.ID{1}) {
		t.Errorf("postings = %v, want [1]", p)
	}
	if ix.MemBytes() != once {
		t.Errorf("mem = %d after a repeat, want %d", ix.MemBytes(), once)
	}
}

// TestInsertKinds: each new posting is counted once, by where it went —
// a term's first bundle inline, its second a promotion, then the tail
// or the middle of its list — and a repeat is not counted.
func TestInsertKinds(t *testing.T) {
	ix := New()
	tag := termdict.Intern(termdict.Tag, "kinds")
	for _, id := range []bundle.ID{5, 3, 9, 7, 9, 1} {
		ix.add(tag, uint32(id))
	}
	want := [NumInsertKinds]int64{Inline: 1, Promote: 1, Tail: 1, Mid: 2}
	for k := range NumInsertKinds {
		if got := ix.Inserts(k).Value(); got != want[k] {
			t.Errorf("%s inserts = %d, want %d", k, got, want[k])
		}
	}
	if got := ix.AppendPostings(nil, tag); !slices.Equal(got, []bundle.ID{1, 3, 5, 7, 9}) {
		t.Errorf("postings %v", got)
	}
}

// TestCapForIsASizeClass: a list's capacity is a function of its length
// that never falls below it, grows by at most a quarter past eight
// postings, and below 512 postings is exactly what the allocator hands
// out for it, so MemBytes charges the heap the list holds.
func TestCapForIsASizeClass(t *testing.T) {
	for n := 2; n <= 1<<14; n++ {
		c := capFor(n)
		if c < n || c < capFor(n-1) || (n > 8 && 4*c > 5*n+12) {
			t.Fatalf("capFor(%d) = %d (capFor(%d) = %d)", n, c, n-1, capFor(n-1))
		}
		if n < 512 {
			if got := cap(slices.Grow([]uint32(nil), c)); got != c {
				t.Fatalf("capFor(%d) = %d, but a list of that capacity gets room for %d", n, c, got)
			}
		}
	}
}

// TestObserveRefusesIDsOutsideRange: a posting is the bundle ID in 4
// bytes, so the index holds bundles 1 to MaxID. Observe refuses any
// other ID before it changes anything, and Forget of one is a no-op.
func TestObserveRefusesIDsOutsideRange(t *testing.T) {
	ix := New()
	d := withKeywords(&tweet.Message{User: "u", Hashtags: []string{"range"}}, "range")
	tag := termdict.Lookup(termdict.Tag, "range")
	ix.Observe(1, d)
	ix.Observe(MaxID, d)
	mem := ix.MemBytes()
	for _, id := range []bundle.ID{0, MaxID + 1, 1<<32 + 1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "bundle ID "+strconv.FormatUint(uint64(id), 10)) {
					t.Errorf("Observe(%d): recovered %q, want a panic naming the ID", id, msg)
				}
			}()
			ix.Observe(id, d)
		}()
		ix.Forget(id, d.Indicants())
	}
	if got := ix.AppendPostings(nil, tag); !slices.Equal(got, []bundle.ID{1, MaxID}) || ix.MemBytes() != mem {
		t.Errorf("a refused Observe changed the index: postings %v, MemBytes %d (was %d)", got, ix.MemBytes(), mem)
	}
}

// Property: Observe followed by Forget of the same indicants always
// restores memory to its prior value, but for the column pages Observe
// reached, and removes the bundle from every candidate list.
func TestObserveForgetInverseProperty(t *testing.T) {
	texts := []string{
		"game on #redsox", "breaking http://bit.ly/q #news", "plain words here",
		"#a #b #c multi tag", "RT @someone: shared thing", "ugh",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		// Background noise owned by bundle 99.
		ix.Observe(99, doc(1000, "z", texts[rng.Intn(len(texts))]))
		before := ix.MemBytes() - columnBytes(ix)

		d := doc(1, "u", texts[rng.Intn(len(texts))])
		ix.Observe(7, d)
		ix.Forget(7, d.Indicants())

		if ix.MemBytes()-columnBytes(ix) != before {
			return false
		}
		for _, c := range ix.Candidates(d) {
			if c.ID == 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: candidate hit counts never exceed the number of hard
// indicants the probing message carries.
func TestCandidateHitBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		for i := 0; i < 20; i++ {
			ix.Observe(bundle.ID(1+rng.Intn(5)), doc(tweet.ID(i+1), "u",
				"word"+string(rune('a'+rng.Intn(4)))+" #tag"+string(rune('a'+rng.Intn(3)))))
		}
		probe := doc(100, "p", "worda wordb #taga #tagb")
		nIndicants := len(probe.Tags()) + len(probe.URLs())
		for _, c := range ix.Candidates(probe) {
			if c.Hits() > nIndicants {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxFanoutCapsCandidateFetch(t *testing.T) {
	ix := New()
	// Six distinct bundles all carry the same hashtag.
	for i := 1; i <= 6; i++ {
		ix.Observe(bundle.ID(i), doc(tweet.ID(i), "u", "#everywhere item"))
	}
	probe := doc(99, "p", "#everywhere")
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Fatalf("Candidates under MaxFanout = %d, want 6", len(got))
	}
	ix.maxFanout = 5
	if got := ix.Candidates(probe); got != nil {
		t.Errorf("capped Candidates = %v, want nil (posting length 6 > cap 5)", got)
	}
	// A posting at exactly the cap still serves.
	ix.maxFanout = 6
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Errorf("cap==len Candidates = %d, want 6", len(got))
	}
}

// TestCandidatePerClassHits verifies the per-class split the Eq. 1
// upper bound consumes: the counts must match the terms each bundle
// actually carries.
func TestCandidatePerClassHits(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "ann", "game on #redsox #sox http://bit.ly/x"))
	ix.Observe(2, doc(2, "bob", "other talk #redsox"))

	cands := ix.Candidates(doc(3, "cat", "RT @ann: game on #redsox #sox http://bit.ly/x"))
	if len(cands) != 2 {
		t.Fatalf("Candidates = %v, want 2", cands)
	}
	byID := map[bundle.ID]Candidate{}
	for _, c := range cands {
		byID[c.ID] = c
	}
	c1 := byID[1]
	if c1.URLHits != 1 || c1.TagHits != 2 || !c1.RTHit || c1.Hits() != 4 {
		t.Errorf("bundle 1 = %+v (Hits %d), want url=1 tag=2 rt=true", c1, c1.Hits())
	}
	c2 := byID[2]
	if c2.URLHits != 0 || c2.TagHits != 1 || c2.RTHit || c2.Hits() != 1 {
		t.Errorf("bundle 2 = %+v (Hits %d), want url=0 tag=1 rt=false", c2, c2.Hits())
	}
	if fi := ix.LastFetch(); fi.SkippedURL != 0 || fi.SkippedTag != 0 || fi.SkippedRT {
		t.Errorf("LastFetch = %+v, want no skipped lists", ix.LastFetch())
	}
}

// TestLastFetchSlack verifies that every hard list the fetch cuts by
// fanout is reported as slack, which is what keeps the Eq. 1 upper
// bound sound for those candidates, and that keyword lists are neither
// walked nor slack: the bound charges the keyword term at its ceiling.
func TestLastFetchSlack(t *testing.T) {
	ix := New()
	for i := 1; i <= 4; i++ {
		ix.Observe(bundle.ID(i), doc(tweet.ID(i), "ann", "#hot stuff"))
	}
	ix.Observe(5, doc(5, "bob", "#cool stuff"))

	// #hot's posting list (4 bundles) exceeds the cap; #cool and bob's
	// user list (1 each) do not.
	ix.maxFanout = 2
	cands := ix.Candidates(doc(9, "cat", "RT @bob: #hot #cool things"))
	fi := ix.LastFetch()
	if fi.SkippedTag != 1 {
		t.Errorf("SkippedTag = %d, want 1 (#hot cut by fanout)", fi.SkippedTag)
	}
	if fi.SkippedRT {
		t.Errorf("SkippedRT = true, want false (user list under cap)")
	}
	for _, c := range cands {
		if c.ID == 5 && c.TagHits != 1 {
			t.Errorf("bundle 5 TagHits = %d, want 1 (#cool)", c.TagHits)
		}
	}

	// ann's user list (4 bundles) is over the cap: a re-share of ann is
	// slack too.
	ix.Candidates(doc(10, "dee", "RT @ann: #cool"))
	if fi := ix.LastFetch(); !fi.SkippedRT || fi.Postings != 1 {
		t.Errorf("LastFetch = %+v, want SkippedRT and #cool's one posting walked", fi)
	}

	// "stuff" is in all five bundles' keyword lists, over the cap, and
	// still neither walked nor slack.
	if got := ix.Candidates(doc(11, "eve", "stuff")); got != nil {
		t.Errorf("keyword-only probe surfaced %v", got)
	}
	if fi := ix.LastFetch(); fi != (FetchInfo{}) {
		t.Errorf("LastFetch = %+v after a keyword-only probe, want zero", fi)
	}
	if n := len(ix.AppendPostings(nil, termdict.Lookup(termdict.Keyword, "stuff"))); n != 5 {
		t.Errorf("keyword postings for stuff = %d, want 5 (maintained for Eq. 7)", n)
	}
}

// oracleCandidates is the fetch this package shipped before the merge,
// over the hard classes: accumulate every traversed posting into a map
// keyed by bundle, then comparison-sort by (hits desc, ID asc). It is
// the reference the merge/scatter implementation is diffed against and
// lives only here.
func oracleCandidates(ix *Index, d score.Doc) ([]Candidate, FetchInfo) {
	var fi FetchInfo
	hits := map[bundle.ID]Candidate{}
	collect := func(term termdict.ID) {
		pl := ix.AppendPostings(nil, term)
		if len(pl) > ix.maxFanout {
			switch term.Class() {
			case termdict.URL:
				fi.SkippedURL++
			case termdict.Tag:
				fi.SkippedTag++
			case termdict.User:
				fi.SkippedRT = true
			}
			return
		}
		for _, id := range pl {
			cand := hits[id]
			cand.ID = id
			switch term.Class() {
			case termdict.URL:
				cand.URLHits++
			case termdict.Tag:
				cand.TagHits++
			case termdict.User:
				cand.RTHit = true
			}
			hits[id] = cand
		}
		fi.Postings += len(pl)
	}
	for _, h := range d.Tags() {
		collect(h)
	}
	for _, u := range d.URLs() {
		collect(u)
	}
	if rt, ok := d.RTUser(); ok {
		collect(rt)
	}
	if len(hits) == 0 {
		return nil, fi
	}
	out := make([]Candidate, 0, len(hits))
	for _, c := range hits {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Hits() != b.Hits() {
			return b.Hits() - a.Hits()
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out, fi
}

// fetchCoverage counts the fetch shapes and index transitions a script
// exercised, so the property test can refuse to pass vacuously.
// repeated counts probes of a message whose entity lists named a term
// twice (its record holds it once); keywordOnly counts probes where a
// bundle carrying one of the message's keywords was not fetched;
// demoted counts forgets that took a term from two bundles to one, and
// emptied from one to none.
type fetchCoverage struct {
	fetches, empty, single, multiHit, repeated, fanoutCut, keywordOnly, forgets int
	demoted, emptied                                                            int
}

// runFetchScript interprets data as a sequence of index operations —
// Observe, whole-bundle and single-term Forget, fanout cuts and probes — over small vocabularies (so lists overlap
// and messages repeat terms) with bundle IDs on a shard stride that
// grow as bundles are forgotten and their slots reused, as on a stream.
// It diffs every probe's Candidates and LastFetch against
// oracleCandidates, and after every operation every term's postings,
// form and capacity against a map-of-sets oracle and MemBytes against a
// recount of the structure, adding the shapes it saw to cov. Keyword
// postings are checked like the rest: maintained, though the fetch never
// walks them (LastFetch().Postings counts hard lists only).
func runFetchScript(t *testing.T, data []byte, cov *fetchCoverage) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	term := func(prefix string, vocab int) string { return prefix + strconv.Itoa(next()%vocab) }
	repeats := func(s []string) bool {
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		return len(slices.Compact(sorted)) < len(s)
	}
	randomDoc := func() (score.Doc, bool) {
		m := &tweet.Message{User: term("u", 4)}
		for n := next() % 4; n > 0; n-- {
			m.Hashtags = append(m.Hashtags, term("t", 5))
		}
		for n := next() % 3; n > 0; n-- {
			m.URLs = append(m.URLs, term("l", 3))
		}
		var keys []string
		for n := next() % 6; n > 0; n-- {
			keys = append(keys, term("key", 6))
		}
		if next()%3 == 0 {
			m.RTOf = term("u", 4)
		}
		return withKeywords(m, keys...), repeats(m.Hashtags) || repeats(m.URLs) || repeats(keys)
	}
	ix := New()
	stride := 1 + next()%4
	start := 1 + next()%stride
	const nBundles = 12
	// Slot i holds one bundle at a time; a forget moves the slot on to a
	// higher ID. held is the oracle: the terms each bundle is on.
	var gen [nBundles]int
	id := func(i int) bundle.ID { return bundle.ID(start + stride*(gen[i]*nBundles+i)) }
	held := map[bundle.ID]map[termdict.ID]bool{}
	seen := map[termdict.ID]bool{}
	check := func(op string) {
		t.Helper()
		refs := 0
		for term := range seen {
			var want []bundle.ID
			for b, terms := range held {
				if terms[term] {
					want = append(want, b)
				}
			}
			slices.Sort(want)
			if got := ix.AppendPostings(nil, term); !slices.Equal(got, want) {
				t.Fatalf("after %s: %s %q postings %v, want %v", op, term.Class(), termdict.Term(term), got, want)
			}
			e := ix.entry(term)
			switch {
			case len(want) == 0 && e != 0, len(want) == 1 && (e == 0 || e >= listRef), len(want) > 1 && e < listRef:
				t.Fatalf("after %s: %s %q on %d bundles has entry %#x", op, term.Class(), termdict.Term(term), len(want), e)
			case len(want) > 1:
				refs++
				if l := *ix.lists.At(int(e &^ listRef)); cap(l) != capFor(len(l)) {
					t.Fatalf("after %s: a list of %d has capacity %d, want %d", op, len(l), cap(l), capFor(len(l)))
				}
			}
		}
		recount := columnBytes(ix)
		for slot := range ix.lists.Len() {
			if l := *ix.lists.At(slot); l != nil {
				recount += int64(cap(l))*metrics.PostingCost + metrics.ListSlotCost
			}
		}
		if got := ix.MemBytes(); got != recount {
			t.Fatalf("after %s: MemBytes %d, a recount reads %d", op, got, recount)
		}
		if ix.lists.Len() != refs+len(ix.free) {
			t.Fatalf("after %s: %d list slots, %d lists and %d free", op, ix.lists.Len(), refs, len(ix.free))
		}
	}
	probe := func(d score.Doc, repeated bool) {
		got := ix.Candidates(d)
		gotInfo := ix.LastFetch()
		want, wantInfo := oracleCandidates(ix, d)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Candidates diverged for %v terms %v:\n got %v\nwant %v", d, d.Terms(), got, want)
		}
		if gotInfo != wantInfo {
			t.Fatalf("LastFetch diverged for %v terms %v: got %+v, want %+v", d, d.Terms(), gotInfo, wantInfo)
		}
		cov.fetches++
		terms := slices.Clone(d.Indicants()[1:]) // hashtags, URLs and keywords
		slices.Sort(terms)
		if len(slices.Compact(terms)) < len(d.Indicants())-1 {
			t.Fatalf("the record of %v repeats a term: %v", d, d.Terms())
		}
		if repeated {
			cov.repeated++
		}
		switch {
		case len(got) == 0:
			cov.empty++
		case len(ix.cursors) == 1:
			cov.single++
		}
		if len(got) > 0 && got[0].Hits() > 1 {
			cov.multiHit++
		}
		if gotInfo.SkippedTag+gotInfo.SkippedURL > 0 {
			cov.fanoutCut++
		}
		keywordOnly := false
		_, _, keywords := d.Runs()
		for _, k := range keywords {
			for b, terms := range held {
				keywordOnly = keywordOnly || terms[k] && !slices.ContainsFunc(got, func(c Candidate) bool { return c.ID == b })
			}
		}
		if keywordOnly {
			cov.keywordOnly++
		}
	}
	forget := func(b bundle.ID, terms []termdict.ID) {
		for _, term := range terms {
			n := 0
			for _, on := range held {
				if on[term] {
					n++
				}
			}
			switch {
			case !held[b][term]:
			case n == 2:
				cov.demoted++
			case n == 1:
				cov.emptied++
			}
			delete(held[b], term)
		}
		if len(held[b]) == 0 {
			delete(held, b)
		}
		ix.Forget(b, terms)
		cov.forgets++
	}

	for len(data) > 0 {
		switch op := next() % 9; op {
		case 0, 1, 2, 3:
			b := id(next() % nBundles)
			d, _ := randomDoc()
			ix.Observe(b, d)
			if held[b] == nil {
				held[b] = map[termdict.ID]bool{}
			}
			for _, term := range d.Indicants() {
				held[b][term], seen[term] = true, true
			}
			check("Observe")
		case 4:
			i := next() % nBundles
			var terms []termdict.ID
			for term := range held[id(i)] {
				terms = append(terms, term)
			}
			forget(id(i), terms)
			gen[i]++
			check("Forget")
		case 5:
			// a cut of 1 to 5, or 0 for none
			if ix.maxFanout = next() % 6; ix.maxFanout == 0 {
				ix.maxFanout = math.MaxInt
			}
		case 6, 7:
			probe(randomDoc())
		case 8:
			// one term of a bundle: takes lists down one posting at a
			// time, through the demotions to inline and to nothing
			b := id(next() % nBundles)
			var terms []termdict.ID
			for term := range held[b] {
				terms = append(terms, term)
			}
			slices.Sort(terms)
			if len(terms) > 0 {
				forget(b, terms[next()%len(terms):][:1])
				check("a one-term Forget")
			}
		}
	}
	probe(withKeywords(&tweet.Message{User: "u0"}), false)
	probe(withKeywords(&tweet.Message{User: "u0", Hashtags: []string{"t0"}}), false)
	probe(withKeywords(&tweet.Message{User: "u0", Hashtags: []string{"t1", "t1"}, URLs: []string{"l0"}, RTOf: "u1"},
		"key0", "key1", "key0"), true)
}

// withKeywords builds m's record with the given keywords as its text,
// spelled so the tokenizer keeps them as they are.
func withKeywords(m *tweet.Message, keywords ...string) score.Doc {
	m.Text = strings.Join(keywords, " ")
	return score.NewDoc(m)
}

// TestCandidatesMatchOracle is the seeded differential property test of
// the merge/scatter fetch against the retained map+sort oracle.
func TestCandidatesMatchOracle(t *testing.T) {
	var total fetchCoverage
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 600)
		rng.Read(script)
		runFetchScript(t, script, &total)
	}
	if total.empty == 0 || total.single == 0 || total.multiHit == 0 || total.repeated == 0 ||
		total.fanoutCut == 0 || total.keywordOnly == 0 || total.forgets == 0 ||
		total.demoted == 0 || total.emptied == 0 {
		t.Errorf("property run left a fetch shape uncovered: %+v", total)
	}
}

// FuzzCandidates lets the fuzzer write the operation script.
func FuzzCandidates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 2, 1, 1, 0, 0, 7, 2, 1, 1, 0, 0})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		script := make([]byte, 300)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runFetchScript(t, data, new(fetchCoverage)) })
}

// TestCandidateHitsCannotWrap: a per-class hit count is bounded only by
// the message's term count, which nothing at the stream edge bounds
// below a 1 MiB line. With 16-bit counts, 70 000 tags matching one
// bundle wrapped TagHits to 4 464 and carried into KeyHits, so
// BundleSimCeil under-estimated and pruning stopped being lossless.
func TestCandidateHitsCannotWrap(t *testing.T) {
	const nTags = 70_000
	m := &tweet.Message{ID: 1, User: "u", Date: base.UnixNano()}
	for i := 0; i < nTags; i++ {
		m.Hashtags = append(m.Hashtags, "t"+strconv.Itoa(i))
	}
	d := score.NewDoc(m)
	ix := New()
	ix.Observe(1, d)
	got := ix.Candidates(d)
	want := []Candidate{{ID: 1, TagHits: nTags}}
	if !slices.Equal(got, want) || got[0].Hits() != nTags {
		t.Fatalf("Candidates = %+v, want %+v", got, want)
	}
	if fi := ix.LastFetch(); fi.Postings != nTags || fi.SkippedTag != 0 {
		t.Errorf("LastFetch = %+v, want %d postings walked, none skipped", fi, nTags)
	}
}

// crawlShapedFetch builds an index and a probe with the heaviest fetch
// shape of the crawl under FullIndexConfig: a re-share carrying a
// hashtag at the 1 024 fanout cap, a second one at 300, a stop hashtag
// cut by the cap, a URL and the re-shared user — well over 1 000
// distinct candidates out. The probe's keywords have long lists too,
// which the fetch must not walk.
func crawlShapedFetch() (*Index, score.Doc) {
	const nBundles = 20_000
	rng := rand.New(rand.NewSource(1))
	ix := New()
	fill := func(c termdict.Class, term string, n int) {
		for _, i := range rng.Perm(nBundles)[:n] {
			ix.add(termdict.Intern(c, term), uint32(i+1))
		}
	}
	fill(termdict.Tag, "tag0", 1024)
	fill(termdict.Tag, "tag1", 300)
	fill(termdict.Tag, "stop", 2000)
	fill(termdict.URL, "url0", 40)
	fill(termdict.User, "origin", 5)
	fill(termdict.Keyword, "key0", 1024)
	fill(termdict.Keyword, "key1", 900)
	fill(termdict.Keyword, "key2", 120)
	return ix, withKeywords(
		&tweet.Message{User: "p", Hashtags: []string{"tag0", "tag1", "stop"}, URLs: []string{"url0"}, RTOf: "origin"},
		"key0", "key1", "key2")
}

func BenchmarkCandidates(b *testing.B) {
	ix, probe := crawlShapedFetch()
	if n := len(ix.Candidates(probe)); n < 1000 {
		b.Fatalf("fetch produced %d candidates, want the crawl's >= 1000", n)
	}
	if fi := ix.LastFetch(); fi.Postings != 1024+300+40+5 || fi.SkippedTag != 1 {
		b.Fatalf("LastFetch = %+v, want the four hard lists walked and the stop tag cut", fi)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Candidates(probe)
	}
}

// TestCandidatesZeroAlloc pins candidate fetch at zero allocations per
// call once its scratch has grown to the fetch's size: it runs for every
// ingested message (twice per message on a sharded engine).
func TestCandidatesZeroAlloc(t *testing.T) {
	ix, probe := crawlShapedFetch()
	ix.Candidates(probe)
	if n := testing.AllocsPerRun(100, func() { ix.Candidates(probe) }); n != 0 {
		t.Errorf("Candidates allocates %.1f per op at steady state, want 0", n)
	}
}
