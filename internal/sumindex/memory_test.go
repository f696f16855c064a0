package sumindex_test

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
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
// owns — the class columns of list headers and the ID-sorted lists with
// their growth slack — and budgets about 10 % above what it measured:
// 18.6 B at 20 000 messages, an 8-byte posting, 6.8 B of 24-byte list
// headers (3.5 postings a term) and the rest the columns' unfilled last
// pages and the lists' spare capacity. While the lists hung off a
// term-keyed map it read 28.4 B. The columns are addressed by the
// process-wide term ID, so terms other tests of the binary interned
// would read as holes: the figure is taken in a process of its own.
func TestBytesPerPosting(t *testing.T) {
	const (
		n      = 20000
		budget = 20.5
	)
	if flag.Lookup("test.run").Value.String() != "^TestBytesPerPosting$" {
		out, err := exec.Command(os.Args[0], "-test.run=^TestBytesPerPosting$", "-test.count=1", "-test.v").CombinedOutput()
		for _, line := range strings.Split(string(out), "\n") {
			if _, msg, ok := strings.Cut(line, "memory_test.go:"); ok {
				_, msg, _ = strings.Cut(msg, ": ")
				t.Log(msg)
			}
		}
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
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
	t.Logf("%.2f bytes per posting (budget %.1f): %d postings over %d terms, %d live bundles",
		perPosting, budget, postings, nTerms, e.Pool().Len())
	if perPosting > budget {
		t.Errorf("%.2f bytes per posting, budget %.1f", perPosting, budget)
	}
}
