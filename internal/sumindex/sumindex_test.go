package sumindex

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)

func doc(id tweet.ID, user, text string) score.Doc {
	m := tweet.Parse(id, user, base.Add(time.Duration(id)*time.Minute), text)
	return score.Doc{Msg: m, Keywords: tokenizer.Keywords(text)}
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

func TestCandidatesEmpty(t *testing.T) {
	ix := New()
	if got := ix.Candidates(doc(1, "a", "anything #tag")); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	ix.Observe(1, doc(1, "a", "#redsox"))
	if got := ix.Candidates(doc(2, "b", "ugh")); got != nil {
		t.Errorf("indicant-free message returned %v", got)
	}
}

func TestForget(t *testing.T) {
	ix := New()
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	ix.Observe(2, doc(2, "b", "more #redsox"))

	// The keyword set of the observed doc includes "redsox" (the
	// tokenizer keeps hashtag words as text tokens).
	ix.Forget(1, []string{"redsox"}, []string{"bit.ly/x"}, d.Keywords, []string{"a"})
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
	ix.Forget(1, []string{"redsox"}, nil, nil, nil)
}

func TestMemoryAccounting(t *testing.T) {
	ix := New()
	if ix.MemBytes() != 0 {
		t.Fatalf("fresh index mem = %d", ix.MemBytes())
	}
	d := doc(1, "a", "game #redsox http://bit.ly/x")
	ix.Observe(1, d)
	grown := ix.MemBytes()
	if grown <= 0 {
		t.Fatal("Observe did not grow memory estimate")
	}
	ix.Forget(1, d.Msg.Hashtags, d.Msg.URLs, d.Keywords, []string{"a"})
	if got := ix.MemBytes(); got != 0 {
		t.Errorf("mem after full forget = %d, want 0", got)
	}
}

func TestDuplicateObserveCounts(t *testing.T) {
	ix := New()
	ix.Observe(1, doc(1, "a", "#redsox"))
	ix.Observe(1, doc(2, "b", "#redsox again"))
	p := ix.Postings(ClassTag, "redsox")
	if len(p) != 1 || p[0].ID != 1 || p[0].Count != 2 {
		t.Errorf("postings = %v, want [{1 2}]", p)
	}
	if ix.Terms(ClassTag) != 1 {
		t.Errorf("Terms = %d, want 1", ix.Terms(ClassTag))
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassTag: "hashtag", ClassURL: "url", ClassKeyword: "keyword", ClassUser: "user",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// Property: Observe followed by Forget of the same indicants always
// restores memory to its prior value and removes the bundle from every
// candidate list.
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
		before := ix.MemBytes()

		d := doc(1, "u", texts[rng.Intn(len(texts))])
		ix.Observe(7, d)
		var users []string
		users = append(users, d.Msg.User)
		ix.Forget(7, d.Msg.Hashtags, d.Msg.URLs, d.Keywords, users)

		if ix.MemBytes() != before {
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
			ix.Observe(BundleID(rng.Intn(5)), doc(tweet.ID(i+1), "u",
				"word"+string(rune('a'+rng.Intn(4)))+" #tag"+string(rune('a'+rng.Intn(3)))))
		}
		probe := doc(100, "p", "worda wordb #taga #tagb")
		nIndicants := len(probe.Msg.Hashtags) + len(probe.Msg.URLs)
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
		ix.Observe(BundleID(i), doc(tweet.ID(i), "u", "#everywhere item"))
	}
	probe := doc(99, "p", "#everywhere")
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Fatalf("uncapped Candidates = %d, want 6", len(got))
	}
	ix.SetMaxFanout(5)
	if got := ix.Candidates(probe); got != nil {
		t.Errorf("capped Candidates = %v, want nil (posting length 6 > cap 5)", got)
	}
	// A posting at exactly the cap still serves.
	ix.SetMaxFanout(6)
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Errorf("cap==len Candidates = %d, want 6", len(got))
	}
	// Cap removal restores full fetch.
	ix.SetMaxFanout(0)
	if got := ix.Candidates(probe); len(got) != 6 {
		t.Errorf("uncapped again = %d, want 6", len(got))
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
	byID := map[BundleID]Candidate{}
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
		ix.Observe(BundleID(i), doc(tweet.ID(i), "ann", "#hot stuff"))
	}
	ix.Observe(5, doc(5, "bob", "#cool stuff"))

	// #hot's posting list (4 bundles) exceeds the cap; #cool and bob's
	// user list (1 each) do not.
	ix.SetMaxFanout(2)
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
	ix.SetMaxFanout(0)
	if got := ix.Candidates(doc(11, "eve", "stuff")); got != nil {
		t.Errorf("keyword-only probe surfaced %v", got)
	}
	if fi := ix.LastFetch(); fi != (FetchInfo{}) {
		t.Errorf("LastFetch = %+v after a keyword-only probe, want zero", fi)
	}
	if n := len(ix.Postings(ClassKeyword, "stuff")); n != 5 {
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
	hits := map[BundleID]Candidate{}
	collect := func(c Class, term string) {
		pl := ix.classes[c][term]
		if ix.maxFanout > 0 && len(pl) > ix.maxFanout {
			switch c {
			case ClassURL:
				fi.SkippedURL++
			case ClassTag:
				fi.SkippedTag++
			case ClassUser:
				fi.SkippedRT = true
			}
			return
		}
		for _, p := range pl {
			cand := hits[p.ID]
			cand.ID = p.ID
			switch c {
			case ClassURL:
				cand.URLHits++
			case ClassTag:
				cand.TagHits++
			case ClassUser:
				cand.RTHit = true
			}
			hits[p.ID] = cand
		}
		fi.Postings += len(pl)
	}
	for _, h := range d.Msg.Hashtags {
		collect(ClassTag, h)
	}
	for _, u := range d.Msg.URLs {
		collect(ClassURL, u)
	}
	if d.Msg.IsRT() {
		collect(ClassUser, d.Msg.RTOf)
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

// fetchCoverage counts the fetch shapes a script exercised, so the
// property test can refuse to pass vacuously. keywordOnly counts probes
// where a bundle carrying one of the message's keywords was not fetched.
type fetchCoverage struct {
	fetches, empty, single, multiHit, repeated, fanoutCut, keywordOnly, forgets int
}

// runFetchScript interprets data as a sequence of index operations —
// Observe, Forget, SetMaxFanout and probes — over small vocabularies
// (so lists overlap and messages repeat terms) with bundle IDs on a
// shard stride, and diffs every probe's Candidates and LastFetch
// against oracleCandidates, adding the shapes it saw to cov. Every
// probe also checks that the keyword postings of its terms hold exactly
// the live bundles carrying them: maintained, though the fetch never
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
	randomDoc := func() score.Doc {
		m := &tweet.Message{User: term("u", 4)}
		for n := next() % 4; n > 0; n-- {
			m.Hashtags = append(m.Hashtags, term("t", 5))
		}
		for n := next() % 3; n > 0; n-- {
			m.URLs = append(m.URLs, term("l", 3))
		}
		var keys []string
		for n := next() % 6; n > 0; n-- {
			keys = append(keys, term("k", 6))
		}
		if next()%3 == 0 {
			m.RTOf = term("u", 4)
		}
		return score.Doc{Msg: m, Keywords: keys}
	}
	ix := New()
	stride := 1 + next()%4
	start := 1 + next()%stride
	const nBundles = 12
	// members[i] is what bundle i holds, per class, for Forget.
	var members [nBundles][numClasses]map[string]bool
	probe := func(d score.Doc) {
		got := ix.Candidates(d)
		gotInfo := ix.LastFetch()
		want, wantInfo := oracleCandidates(ix, d)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Candidates diverged for %+v keys %v:\n got %v\nwant %v", *d.Msg, d.Keywords, got, want)
		}
		if gotInfo != wantInfo {
			t.Fatalf("LastFetch diverged for %+v keys %v: got %+v, want %+v", *d.Msg, d.Keywords, gotInfo, wantInfo)
		}
		cov.fetches++
		terms := append(append(append([]string(nil), d.Msg.Hashtags...), d.Msg.URLs...), d.Keywords...)
		slices.Sort(terms)
		if len(slices.Compact(terms)) < len(d.Msg.Hashtags)+len(d.Msg.URLs)+len(d.Keywords) {
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
		if ix.maxFanout > 0 && gotInfo.SkippedTag+gotInfo.SkippedURL > 0 {
			cov.fanoutCut++
		}
		keywordOnly := false
		for _, k := range d.Keywords {
			var want []BundleID
			for i := range members {
				if members[i][ClassKeyword][k] {
					want = append(want, BundleID(start+stride*i))
				}
			}
			var have []BundleID
			for _, p := range ix.Postings(ClassKeyword, k) {
				have = append(have, p.ID)
			}
			if !slices.Equal(have, want) {
				t.Fatalf("keyword %q postings %v, want bundles %v", k, have, want)
			}
			for _, id := range want {
				keywordOnly = keywordOnly || !slices.ContainsFunc(got, func(c Candidate) bool { return c.ID == id })
			}
		}
		if keywordOnly {
			cov.keywordOnly++
		}
	}

	for len(data) > 0 {
		switch op := next() % 8; op {
		case 0, 1, 2, 3:
			i := next() % nBundles
			d := randomDoc()
			ix.Observe(BundleID(start+stride*i), d)
			for c, terms := range [numClasses][]string{
				ClassTag: d.Msg.Hashtags, ClassURL: d.Msg.URLs, ClassKeyword: d.Keywords, ClassUser: {d.Msg.User},
			} {
				if members[i][c] == nil {
					members[i][c] = map[string]bool{}
				}
				for _, term := range terms {
					members[i][c][term] = true
				}
			}
		case 4:
			i := next() % nBundles
			var terms [numClasses][]string
			for c := range terms {
				for term := range members[i][c] {
					terms[c] = append(terms[c], term)
				}
				members[i][c] = nil
			}
			ix.Forget(BundleID(start+stride*i), terms[ClassTag], terms[ClassURL], terms[ClassKeyword], terms[ClassUser])
			cov.forgets++
		case 5:
			ix.SetMaxFanout(next() % 6)
		case 6, 7:
			probe(randomDoc())
		}
	}
	probe(score.Doc{Msg: &tweet.Message{User: "u0"}})
	probe(score.Doc{Msg: &tweet.Message{User: "u0", Hashtags: []string{"t0"}}})
	probe(score.Doc{Msg: &tweet.Message{User: "u0", Hashtags: []string{"t1", "t1"}, URLs: []string{"l0"}, RTOf: "u1"},
		Keywords: []string{"k0", "k1", "k0"}})
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
		total.fanoutCut == 0 || total.keywordOnly == 0 || total.forgets == 0 {
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
	m := &tweet.Message{ID: 1, User: "u", Date: base}
	for i := 0; i < nTags; i++ {
		m.Hashtags = append(m.Hashtags, "t"+strconv.Itoa(i))
	}
	d := score.Doc{Msg: m}
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
	ix.SetMaxFanout(1024)
	fill := func(c Class, term string, n int) {
		for _, i := range rng.Perm(nBundles)[:n] {
			ix.add(c, term, BundleID(i+1))
		}
	}
	fill(ClassTag, "tag0", 1024)
	fill(ClassTag, "tag1", 300)
	fill(ClassTag, "stop", 2000)
	fill(ClassURL, "url0", 40)
	fill(ClassUser, "origin", 5)
	fill(ClassKeyword, "key0", 1024)
	fill(ClassKeyword, "key1", 900)
	fill(ClassKeyword, "key2", 120)
	return ix, score.Doc{
		Msg:      &tweet.Message{User: "p", Hashtags: []string{"tag0", "tag1", "stop"}, URLs: []string{"url0"}, RTOf: "origin"},
		Keywords: []string{"key0", "key1", "key2"},
	}
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
