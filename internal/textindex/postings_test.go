package textindex

import (
	"flag"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"unsafe"

	"provex/internal/gen"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
)

// TestBytesPerPosting is the index's own memory budget, in the terms
// Asadi, Lin & Busch report a postings allocator in: bytes per posting
// — everything the index owns (arena pages, list headers, per-document
// columns) over the (term, document) pairs it holds — and the share of
// slab bytes handed out that hold no posting code (links, unwritten
// tails). The stream is the generator's first 20 000 messages indexed
// the way query.Processor does it, keyword IDs and hashtag IDs; a small
// stream is the hard case, since the vocabulary grows faster than the
// postings at first. The list headers are addressed by the process-wide
// keyword ID, so terms other tests of the binary interned would read as
// holes: the figures are taken in a process of their own.
func TestBytesPerPosting(t *testing.T) {
	const (
		n            = 20000
		budget       = 7.4
		wasteCeiling = 0.25
	)
	if flag.Lookup("test.run").Value.String() != "^TestBytesPerPosting$" {
		out, err := exec.Command(os.Args[0], "-test.run=^TestBytesPerPosting$", "-test.count=1", "-test.v").CombinedOutput()
		for _, line := range strings.Split(string(out), "\n") {
			if _, msg, ok := strings.Cut(line, "postings_test.go:"); ok {
				_, msg, _ = strings.Cut(msg, ": ")
				t.Log(msg)
			}
		}
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	if got := unsafe.Sizeof(list{}); got != 20 {
		t.Errorf("unsafe.Sizeof(list{}) = %d, want 20: every term pays it", got)
	}
	ix := New()
	g := gen.New(gen.DefaultConfig())
	var terms []termdict.ID
	for i := 0; i < n; i++ {
		m := g.Next()
		terms = tokenizer.AppendKeywords(terms[:0], m.Text)
		for _, h := range m.Hashtags {
			terms = append(terms, termdict.Intern(termdict.Tag, h))
		}
		ix.Add(DocID(m.ID), terms)
	}
	st := ix.Stats()
	perPosting := float64(st.Bytes) / float64(st.Postings)
	waste := 1 - float64(ix.pool.codeBytes)/float64(ix.pool.cutBytes)
	t.Logf("%.2f bytes per posting (budget %.1f): %d bytes, %d postings, %d terms, %d docs; %.2f code bytes per posting, slab waste %.1f %% (ceiling %.0f %%)",
		perPosting, budget, st.Bytes, st.Postings, ix.terms(), st.Docs,
		float64(ix.pool.codeBytes)/float64(st.Postings), 100*waste, 100*wasteCeiling)
	t.Logf("arena %d B (slabs %d, code %d), list headers %d B over %d IDs, keys+lens %d B",
		ix.pool.bytes(), ix.pool.cutBytes, ix.pool.codeBytes, ix.lists.Bytes(), ix.lists.Len(), ix.keys.Bytes()+ix.lens.Bytes())
	if perPosting > budget {
		t.Errorf("%.2f bytes per posting, budget %.1f", perPosting, budget)
	}
	if waste > wasteCeiling {
		t.Errorf("slab waste %.1f %%, ceiling %.0f %%", 100*waste, 100*wasteCeiling)
	}
}

// roundTrip writes the postings a script describes into two lists of
// one arena, interleaved the way an index's lists grow, and reads both
// back. Three script bytes make a posting: a gap of one to three code
// bytes, and a term frequency that is 1 three times in four.
func roundTrip(t *testing.T, script []byte) [2]list {
	type pair struct{ ord, tf uint32 }
	var (
		a     arena
		lists [2]list
		want  [2][]pair
		ord   uint32
	)
	for ; len(script) >= 3; script = script[3:] {
		gap := 1 + uint32(script[0])
		if script[2]&1 != 0 {
			gap += uint32(script[1]) << 8
		}
		if ord+gap < ord {
			break // the ordinal space is 32 bits
		}
		ord += gap
		tf := uint32(1)
		if script[2]&6 == 6 {
			tf = 2 + uint32(script[2]>>3)*uint32(script[1])
		}
		which := script[2] >> 7
		a.add(&lists[which], ord, tf)
		want[which] = append(want[which], pair{ord, tf})
	}
	for which := range lists {
		l := &lists[which]
		if int(l.df) != len(want[which]) {
			t.Fatalf("list %d: df = %d after %d adds", which, l.df, len(want[which]))
		}
		c := a.cursor(l)
		for i, w := range want[which] {
			if !c.next() || c.ord != w.ord || c.tf != w.tf {
				t.Fatalf("list %d posting %d of %d: read (%d, %d), wrote (%d, %d)", which, i, len(want[which]), c.ord, c.tf, w.ord, w.tf)
			}
		}
		if c.next() {
			t.Fatalf("list %d: a posting past the %d written", which, len(want[which]))
		}
	}
	if a.codeBytes > a.cutBytes || a.cutBytes > int64(len(a.pages))*pageSize {
		t.Fatalf("accounting: %d code bytes in %d slab bytes in %d pages", a.codeBytes, a.cutBytes, len(a.pages))
	}
	return lists
}

// TestPostingsRoundTrip takes two lists from nothing through every slab
// size into chains of several top-size slabs.
func TestPostingsRoundTrip(t *testing.T) {
	script := make([]byte, 3*20000)
	rand.New(rand.NewSource(3)).Read(script)
	for which, l := range roundTrip(t, script) {
		if l.head == l.tail {
			t.Errorf("list %d never became a chain: %+v", which, l)
		}
	}
}

func FuzzPostingsRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 3, 30, 300, 9000} {
		script := make([]byte, n)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { roundTrip(t, script) })
}
