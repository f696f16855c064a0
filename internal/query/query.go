// Package query implements the retrieval support of Section V-C: the
// bundle-granularity search of Equation 7,
//
//	r(q,B) = α·s(q,B) + β·i(q,B) + (1−α−β)·t(B)
//
// combining textual similarity, summary-index indicant closeness and
// bundle freshness — next to the conventional per-message keyword
// search (the paper's Figure 1 baseline) built on the embedded
// full-text index.
//
// A Processor is the read side of a node, whatever its number of
// engines: route a serial node's ingest through Processor.Insert, or
// feed a sharded node's rounds to Processor.Index, so the node's one
// message index stays in sync, then call SearchMessages (Figure 1
// behaviour) or SearchBundles (Figure 2 behaviour).
package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"provex/internal/archive"
	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/textindex"
	"provex/internal/tokenizer"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// Options tune Eq. 7. Alpha weights textual similarity, Beta indicant
// closeness; freshness receives 1−Alpha−Beta.
type Options struct {
	Alpha float64
	Beta  float64
	// IncludeArchive extends SearchBundles over the disk back-end:
	// bundles evicted from the pool remain retrievable through the
	// archive index. Requires a one-engine Processor (New) whose engine
	// has a store.
	IncludeArchive bool
}

// DefaultOptions weight text 0.6, indicants 0.3, freshness 0.1.
func DefaultOptions() Options {
	return Options{Alpha: 0.6, Beta: 0.3}
}

// MessageHit is one result of the conventional message search.
type MessageHit struct {
	Msg   *tweet.Post
	Score float64
}

// BundleHit is one result of the provenance bundle search — the row
// shape of the paper's Figure 2(a): bundle ID, summary words, size,
// last post time.
type BundleHit struct {
	ID       bundle.ID
	Score    float64
	Size     int
	LastPost time.Time
	Summary  []string
}

// String renders the hit like a Figure 2 result row.
func (h BundleHit) String() string {
	return fmt.Sprintf("bundle %d  score=%.3f  size=%d  last=%s  %s",
		h.ID, h.Score, h.Size, h.LastPost.Format("2006-01-02 15:04:05"),
		strings.Join(h.Summary, ", "))
}

// Processor is the read side of a node: it serves queries over the
// node's engines — the one engine of a serial node (New), every shard's
// of a sharded one (NewNode) — and owns the node's one message index,
// fed in stream order, so a message ranks the same whichever engine
// holds it. It is the only engine-level implementation of Reader. Not
// safe for concurrent use with ingest.
type Processor struct {
	opts Options
	engs []*core.Engine // set once by NewNode; a sharded node's in shard order

	msgIndex *textindex.Index // set once by NewNode: the /metrics gauges read it beside ingest
	messages []*tweet.Post    // by the ordinal msgIndex gave the message
	terms    []string         // scratch for one message's index terms, the dictionary's strings
	dups     metrics.Counter  // messages whose ID the index already held

	arch *archive.Index
}

// New wraps one engine. With Options.IncludeArchive it opens an archive
// index over the engine's store (panicking if the engine has none —
// that is a configuration error) and subscribes to flush events.
func New(eng *core.Engine, opts Options) *Processor {
	return NewNode([]*core.Engine{eng}, opts)
}

// NewNode builds the read side of a node over all of its engines (a
// sharded node's, in shard order). The engines' pools must allocate
// disjoint bundle IDs. Options.IncludeArchive with more than one engine
// panics: the bounded shape the archive serves is serial-only.
func NewNode(engs []*core.Engine, opts Options) *Processor {
	p := &Processor{opts: opts, engs: engs, msgIndex: textindex.New()}
	if opts.IncludeArchive {
		if len(engs) != 1 {
			panic("query: IncludeArchive requires a one-engine Processor")
		}
		st := engs[0].Store()
		if st == nil {
			panic("query: IncludeArchive requires an engine with a store")
		}
		arch, err := archive.Open(st)
		if err != nil {
			panic("query: open archive: " + err.Error())
		}
		p.arch = arch
		engs[0].SetFlushObserver(arch.Note)
	}
	return p
}

// RegisterMetrics exposes the processor's instruments on reg, once per
// node.
func (p *Processor) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("provex_query_duplicate_messages_total",
		"Messages ingested under an ID the message index already held (a stream re-fed after a resume); the index keeps its first entry.",
		&p.dups)
	// The index locks for itself, so these are safe beside ingest.
	reg.RegisterGaugeFunc("provex_query_index_docs",
		"Messages the baseline message index holds.",
		func() float64 { return float64(p.msgIndex.Stats().Docs) })
	reg.RegisterGaugeFunc("provex_query_index_postings",
		"(term, message) pairs in the message index's posting lists.",
		func() float64 { return float64(p.msgIndex.Stats().Postings) })
	reg.RegisterGaugeFunc("provex_query_index_bytes",
		"Heap the message index owns: posting slabs, term table and per-message columns, counted from its own allocations (the messages and the term dictionary's strings are not its own).",
		func() float64 { return float64(p.msgIndex.Stats().Bytes) })
}

// DuplicateMessages counts the messages whose ID the message index
// already held when they were inserted.
func (p *Processor) DuplicateMessages() int64 { return p.dups.Value() }

// Archived reports how many disk-resident bundles are searchable.
func (p *Processor) Archived() int {
	if p.arch == nil {
		return 0
	}
	return p.arch.Len()
}

// Insert routes a message through the engine and mirrors it into the
// baseline message index. One-engine Processors only (see Engine).
func (p *Processor) Insert(m *tweet.Message) core.InsertResult {
	return p.InsertPrepared(core.Prepare(m))
}

// InsertPrepared applies an already-prepared message (see core.Prepare),
// reusing its keyword extraction for the baseline message index instead
// of running the tokenizer a second time. This is the apply half the
// pipeline calls from its single writer goroutine. A message whose ID
// the index already holds — a stream re-fed after a resume — still goes
// through the engine (deduplication there is ROADMAP item 9) but keeps
// its first index entry, and is counted. One-engine Processors only:
// a node of several engines applies to them itself and calls Index.
func (p *Processor) InsertPrepared(prep core.Prepared) core.InsertResult {
	res := p.Engine().InsertPrepared(prep)
	p.note(&prep.Doc)
	return res
}

// Index adds batch, in stream order, to the message index — what
// InsertPrepared does beside the engine insert, for a node that applies
// messages to its engines itself (shard.Engine's round). It reads only
// the prepared messages, which are immutable, and writes only the
// index, so it may run while the engines apply the same batch.
func (p *Processor) Index(batch []core.Prepared) {
	for i := range batch {
		p.note(&batch[i].Doc)
	}
}

// note indexes one ingested message, counting it when the index
// already held its ID.
func (p *Processor) note(d *score.Doc) {
	if !p.index(d) {
		p.dups.Inc()
	}
}

// index adds the message to the message index under its keywords and
// hashtags, unless the index already holds its ID.
func (p *Processor) index(d *score.Doc) bool {
	key := textindex.DocID(d.Msg.ID)
	if _, held := p.msgIndex.Ordinal(key); held {
		return false
	}
	// The dictionary's copies, so the index's term table pins no message
	// text. The index keeps no reference to the scratch.
	p.terms = p.terms[:0]
	tags, _, keywords := d.Runs()
	for _, t := range keywords {
		p.terms = append(p.terms, termdict.Term(t))
	}
	for _, t := range tags {
		p.terms = append(p.terms, termdict.Term(t))
	}
	p.msgIndex.Add(key, p.terms)
	p.messages = append(p.messages, d.Msg) // the n-th Add is ordinal n − 1
	return true
}

// Reindex adds every message of the engines' live pools that the
// baseline message index does not hold yet, and returns how many that
// was. This is the recovery companion: checkpoint restore and WAL
// replay insert straight into the engines, so a resumed Processor
// starts with an empty message index even though every pool node still
// carries its message and extracted keywords. The pools are walked in
// map order, which no two runs share, and a sharded node's messages are
// spread over several, so the messages are added in ID order: a
// restarted node then holds the index an uninterrupted one built
// (ordinals included — the stream's IDs increase), and the index never
// sees an out-of-order key. Messages evicted to disk before the
// checkpoint are not recoverable here; under an unbounded pool
// (FullIndexConfig) the rebuilt index covers the full history.
func (p *Processor) Reindex() int {
	// The ID rides beside the pointer so that sorting touches the slice
	// alone, not 125 000 messages scattered over a freshly loaded heap.
	type ref struct {
		id  tweet.ID
		doc *score.Doc
	}
	var held int64
	for _, e := range p.engs {
		held += e.Pool().MessageCount()
	}
	refs := make([]ref, 0, held)
	for _, e := range p.engs {
		e.Pool().All(func(b *bundle.Bundle) {
			nodes := b.Nodes()
			for i := range nodes {
				refs = append(refs, ref{nodes[i].Doc.Msg.ID, &nodes[i].Doc})
			}
		})
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.id, b.id) })
	n := 0
	for _, r := range refs {
		if p.index(r.doc) {
			n++
		}
	}
	return n
}

// Engine exposes the engine of a one-engine Processor (New). It panics
// on a node of several engines, which is built and fed by shard.Engine
// and has no one engine to hand out.
func (p *Processor) Engine() *core.Engine {
	if len(p.engs) != 1 {
		panic("query: Engine on a Processor of several engines")
	}
	return p.engs[0]
}

// Bundle resolves a bundle in the pool or the disk back-end of the
// engine that allocated its ID, and copies it out (Reader's contract).
func (p *Processor) Bundle(id bundle.ID) (BundleDetail, error) {
	b, err := p.owner(id).Bundle(id)
	if err != nil {
		return BundleDetail{}, err
	}
	return detail(b), nil
}

// owner returns the engine whose pool allocated id — the only one that
// can hold it, live or on its store. An ID no pool allocates goes to the
// first engine, which reports it missing.
func (p *Processor) owner(id bundle.ID) *core.Engine {
	for _, e := range p.engs {
		if e.Pool().Allocates(id) {
			return e
		}
	}
	return p.engs[0]
}

// Snapshot returns the engines' statistics, summed.
func (p *Processor) Snapshot() core.Stats { return SumStats(p.engs) }

// SumStats aggregates engine statistics into one view — counters and
// timings sum, so on several engines the stage timers report CPU time
// across them, not wall time (see core.Stats.PrepareTime). It is the one
// place engine statistics are summed; shard.Engine.Snapshot calls it too.
func SumStats(engs []*core.Engine) core.Stats {
	agg := core.Stats{ConnCounts: make(map[string]int64, 5)}
	for _, e := range engs {
		st := e.Snapshot()
		agg.Messages += st.Messages
		agg.BundlesCreated += st.BundlesCreated
		agg.BundlesLive += st.BundlesLive
		agg.EdgesCreated += st.EdgesCreated
		for k, v := range st.ConnCounts {
			agg.ConnCounts[k] += v
		}
		agg.MemBundles += st.MemBundles
		agg.MemIndex += st.MemIndex
		agg.MessagesInMemory += st.MessagesInMemory
		agg.PrepareTime += st.PrepareTime
		agg.MatchTime += st.MatchTime
		agg.PlaceTime += st.PlaceTime
		agg.RefineTime += st.RefineTime
		agg.FlushRetries += st.FlushRetries
		agg.FlushDropped += st.FlushDropped
		agg.FlushParked += st.FlushParked
		agg.Pool.Created += st.Pool.Created
		agg.Pool.Refines += st.Pool.Refines
		agg.Pool.DeletedTiny += st.Pool.DeletedTiny
		agg.Pool.FlushedClosed += st.Pool.FlushedClosed
		agg.Pool.FlushedRanked += st.Pool.FlushedRanked
	}
	return agg
}

// Trending returns the k hottest live bundles, each engine's ranked at
// its current simulated time.
func (p *Processor) Trending(k int) []trending.Topic {
	return merge(p.engs, k,
		func(e *core.Engine) []trending.Topic {
			return trending.Detect(e.Pool(), e.Now(), k, trending.Options{})
		},
		func(t trending.Topic) (float64, uint64) { return t.Score, uint64(t.ID) })
}

// merge asks every engine for its top k and merges the answers under
// the serial tie order, score descending then ID ascending; key returns
// a result's score and ID. A bundle lives on one engine and every score
// merged is a function of that bundle and its engine's clock, so the
// merged list is the one a single engine holding every bundle would
// rank. One engine's answer is returned as it is.
func merge[T any](engs []*core.Engine, k int, ask func(*core.Engine) []T, key func(T) (float64, uint64)) []T {
	if len(engs) == 1 {
		return ask(engs[0])
	}
	var all []T
	for _, e := range engs {
		all = append(all, ask(e)...)
	}
	slices.SortFunc(all, func(a, b T) int {
		sa, ia := key(a)
		sb, ib := key(b)
		if c := cmp.Compare(sb, sa); c != 0 {
			return c
		}
		return cmp.Compare(ia, ib)
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// queryTerms normalises a free-text query into search terms: keywords
// plus any explicit hashtags (with and without '#'). It only reads the
// term dictionary, so no query grows it.
func queryTerms(q string) []string {
	kws := tokenizer.Keywords(q)
	// Raw tokens too, so exact tag words below the keyword length
	// threshold still match.
	for _, tok := range tokenizer.Tokenize(q) {
		dup := false
		for _, k := range kws {
			if k == tok {
				dup = true
				break
			}
		}
		if !dup && len(tok) >= 2 {
			kws = append(kws, tok)
		}
	}
	return kws
}

// SearchMessages is the conventional keyword search of Figure 1:
// BM25-ranked individual messages.
func (p *Processor) SearchMessages(q string, k int) []MessageHit {
	hits := p.msgIndex.Search(queryTerms(q), k)
	out := make([]MessageHit, 0, len(hits))
	for _, h := range hits {
		ord, _ := p.msgIndex.Ordinal(h.Doc)
		out = append(out, MessageHit{Msg: p.messages[ord], Score: h.Score})
	}
	return out
}

// scoredBundle is a ranked candidate that has not been rendered yet:
// only the k winners get their summary row built.
type scoredBundle struct {
	b     *bundle.Bundle
	score float64
}

// SearchBundles is Eq. 7: rank live bundles against the query and
// return the top k with their Figure 2 summary rows.
func (p *Processor) SearchBundles(q string, k int) []BundleHit {
	if k <= 0 {
		return nil
	}
	terms := queryTerms(q)
	if len(terms) == 0 {
		return nil
	}
	ids := resolve(terms)
	return merge(p.engs, k,
		func(e *core.Engine) []BundleHit { return p.searchBundles(e, terms, ids, k) },
		func(h BundleHit) (float64, uint64) { return h.Score, uint64(h.ID) })
}

// queryTerm is one query term as the three classes Eq. 7 reads it in;
// termdict.None where the dictionary has no such term.
type queryTerm struct {
	keyword, tag, url termdict.ID
}

// resolve looks the query terms up in the dictionary, adding nothing: a
// word the dictionary does not hold matches nothing.
func resolve(terms []string) []queryTerm {
	out := make([]queryTerm, len(terms))
	for i, t := range terms {
		out[i] = queryTerm{
			keyword: termdict.Lookup(termdict.Keyword, t),
			tag:     termdict.Lookup(termdict.Tag, t),
			url:     termdict.Lookup(termdict.URL, t),
		}
	}
	return out
}

// searchBundles is SearchBundles over one engine's pool (and the
// archive, which only a one-engine Processor has). terms are the query
// words, ids the same words resolved.
func (p *Processor) searchBundles(e *core.Engine, terms []string, ids []queryTerm, k int) []BundleHit {
	idx := e.SummaryIndex()
	now := e.Now()

	// Candidate bundles: union of the query terms' postings over the
	// keyword, hashtag and URL classes.
	cands := make(map[bundle.ID]struct{})
	for _, q := range ids {
		for _, t := range [...]termdict.ID{q.keyword, q.tag, q.url} {
			for _, p := range idx.Postings(t) {
				cands[p] = struct{}{}
			}
		}
	}
	scored := make([]scoredBundle, 0, len(cands))
	for id := range cands {
		b := e.Pool().Get(id)
		if b == nil {
			continue
		}
		if r := p.relevance(ids, b, now); r > 0 {
			scored = append(scored, scoredBundle{b, r})
		}
	}
	scored = append(scored, p.archivedHits(terms, ids, k, now)...)
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].b.ID() < scored[j].b.ID()
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	hits := make([]BundleHit, len(scored))
	for i, s := range scored {
		hits[i] = BundleHit{
			ID:       s.b.ID(),
			Score:    s.score,
			Size:     s.b.Size(),
			LastPost: tweet.Time(s.b.LastDate()),
			Summary:  s.b.SummaryWords(10),
		}
	}
	return hits
}

// archivedHits extends a bundle search over the disk back-end: the
// archive index surfaces up to k candidates by summary-term BM25, the
// candidates are loaded from the store, and each is scored with the
// same Eq. 7 relevance as live bundles so merged ranking is coherent.
func (p *Processor) archivedHits(terms []string, ids []queryTerm, k int, now int64) []scoredBundle {
	if p.arch == nil {
		return nil
	}
	var out []scoredBundle
	for _, ah := range p.arch.Search(terms, k) {
		b, err := p.arch.Load(ah.ID)
		if err != nil {
			continue // a corrupt archived record should not fail a query
		}
		if r := p.relevance(ids, b, now); r > 0 {
			out = append(out, scoredBundle{b, r})
		}
	}
	return out
}

// relevance is Eq. 7 for one bundle.
func (p *Processor) relevance(terms []queryTerm, b *bundle.Bundle, now int64) float64 {
	s := textualSim(terms, b)
	i := indicantSim(terms, b)
	t := freshness(now, b.LastDate())
	return p.opts.Alpha*s + p.opts.Beta*i + (1-p.opts.Alpha-p.opts.Beta)*t
}

// textualSim s(q,B): mean normalised term frequency of the query terms
// over the bundle's keyword summary — the common textual similarity of
// the paper, computed from the summary rather than re-reading member
// messages.
func textualSim(terms []queryTerm, b *bundle.Bundle) float64 {
	if b.Size() == 0 {
		return 0
	}
	var sum float64
	for _, t := range terms {
		tf := float64(b.Count(t.keyword))
		sum += tf / float64(b.Size())
	}
	return sum / float64(len(terms))
}

// indicantSim i(q,B): the fraction of query terms that appear as hard
// indicants (hashtags or URLs) of the bundle.
func indicantSim(terms []queryTerm, b *bundle.Bundle) float64 {
	n := 0
	for _, t := range terms {
		if b.Count(t.tag) > 0 || b.Count(t.url) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(terms))
}

// freshness t(B): inverse hours since the bundle's last post.
func freshness(now, last int64) float64 {
	age := tweet.Sub(now, last).Hours()
	if age < 0 {
		age = 0
	}
	return 1 / (age + 1)
}

// Trail loads a bundle wherever it lives (pool or disk) and renders its
// provenance forest — the Figure 2(b)/Figure 10 visualisation.
func (p *Processor) Trail(id bundle.ID) (string, error) { return Trail(p, id) }
