package sumindex_test

import (
	"runtime"
	"testing"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/sumindex"
	"provex/internal/termdict"
)

// TestBytesPerPosting is the summary index's counterpart of the message
// index's test of the same name: the live heap a summary index built
// by Observe over the live pool of a full-index engine keeps per
// posting, after a forced collection. It counts everything the index
// owns — the term-keyed map and the ID-sorted lists with their growth
// slack — and budgets about 10 % above what it measured: 28.4 B at
// 20 000 messages, an 8-byte posting and the rest map slots (3.5
// postings a term) and the lists' spare capacity.
func TestBytesPerPosting(t *testing.T) {
	const (
		n      = 20000
		budget = 31.0
	)
	e := core.New(core.FullIndexConfig(), nil, nil)
	g := gen.New(gen.DefaultConfig())
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := sumindex.New()
	postings, terms := 0, map[termdict.ID]bool{}
	var scratch []termdict.ID
	e.Pool().All(func(b *bundle.Bundle) {
		for _, nd := range b.Nodes() {
			ix.Observe(b.ID(), nd.Doc)
		}
		scratch = b.AppendTerms(scratch[:0])
		postings += len(scratch)
		for _, term := range scratch {
			terms[term] = true
		}
	})
	nTerms := len(terms)
	terms = nil // not the index's: out of the after figure
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	runtime.KeepAlive(e)
	perPosting := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(postings)
	t.Logf("%.2f bytes per posting (budget %.0f): %d postings over %d terms, %d live bundles",
		perPosting, budget, postings, nTerms, e.Pool().Len())
	if perPosting > budget {
		t.Errorf("%.2f bytes per posting, budget %.0f", perPosting, budget)
	}
}
