package query

import (
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// TestIDOrderDoesNotLeak: term-dictionary IDs are in-memory names —
// recovery, followers and shards number terms in another order — so no
// answer may depend on their values. The same stream is ingested in two
// fresh processes (the dictionary is per process): one numbers terms in
// stream order, the other first registers the stream's whole vocabulary
// shuffled. Edges, every bundle's summary words and indicants, Eq. 7
// and message-search lists, trending and the checkpoint bytes, whole
// (the pool writes its bundles in ID order), must agree, under an
// unbounded engine and under one that evicts.
func TestIDOrderDoesNotLeak(t *testing.T) {
	plain, seeded := idOrderRun(t, "plain"), idOrderRun(t, "seeded")
	if plain["numbering"] == seeded["numbering"] {
		t.Fatal("the seeded run numbered terms as the plain run did: the check is vacuous")
	}
	delete(plain, "numbering")
	if len(plain) < 10 {
		t.Fatalf("the child reported %d sections", len(plain))
	}
	for section, digest := range plain {
		if seeded[section] != digest {
			t.Errorf("%s differs between the two term numberings", section)
		}
	}
}

// idOrderRun runs TestIDOrderChild's subtest mode in a process of its
// own and returns the digests it printed.
func idOrderRun(t *testing.T, mode string) map[string]string {
	t.Helper()
	out, err := exec.Command(os.Args[0], "-test.run=^TestIDOrderChild$/^"+mode+"$", "-test.count=1").CombinedOutput()
	if err != nil {
		t.Fatalf("%s child: %v\n%s", mode, err, out)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "idorder" {
			digests[f[1]] = f[2]
		}
	}
	return digests
}

// TestIDOrderChild is the other process of TestIDOrderDoesNotLeak, and
// skips unless the test binary was started for exactly one of its modes.
func TestIDOrderChild(t *testing.T) {
	run := flag.Lookup("test.run").Value.String()
	for _, mode := range []string{"plain", "seeded"} {
		if run != "^TestIDOrderChild$/^"+mode+"$" {
			continue
		}
		t.Run(mode, func(t *testing.T) { idOrderChild(t, mode == "seeded") })
		return
	}
	t.Skip("started by TestIDOrderDoesNotLeak in a fresh process")
}

func idOrderChild(t *testing.T, seeded bool) {
	cfg := gen.DefaultConfig()
	cfg.Seed = 3
	g := gen.New(cfg)
	msgs := make([]*tweet.Message, 4000)
	for i := range msgs {
		msgs[i] = g.Next()
	}
	if seeded {
		seedVocabulary(msgs)
	}
	first := score.NewDoc(msgs[0])
	emit("numbering", fmt.Sprint(first.Terms()))

	queries := benchQueries(msgs, 40, 9)
	for name, cfg := range map[string]core.Config{
		"full": core.FullIndexConfig(), "partial": core.PartialIndexConfig(200),
	} {
		var edges strings.Builder
		p := New(core.New(cfg, nil, func(parent, child tweet.ID, c score.ConnectionType) {
			fmt.Fprintf(&edges, "%d>%d:%v ", parent, child, c)
		}), DefaultOptions())
		for _, m := range msgs {
			p.Insert(m)
		}
		emit(name+".edges", edges.String())

		var live []*bundle.Bundle
		p.Engine().Pool().All(func(r bundle.Ref) { live = append(live, r.Expand()) })
		slices.SortFunc(live, func(a, b *bundle.Bundle) int { return cmp.Compare(a.ID(), b.ID()) })
		var summaries strings.Builder
		for _, b := range live {
			fmt.Fprintln(&summaries, b.ID(), b.SummaryWords(10), spellings(b, termdict.Tag), spellings(b, termdict.URL),
				spellings(b, termdict.Keyword), spellings(b, termdict.User))
		}
		emit(name+".summaries", summaries.String())

		var eq7, search strings.Builder
		for _, q := range queries {
			for _, h := range p.SearchBundles(q, 10) {
				fmt.Fprintln(&eq7, q, h.ID, math.Float64bits(h.Score), h.Size, h.Summary)
			}
			for _, h := range p.SearchMessages(q, 10) {
				fmt.Fprintln(&search, q, h.Msg.ID(), math.Float64bits(h.Score))
			}
		}
		emit(name+".eq7", eq7.String())
		emit(name+".search", search.String())
		emit(name+".trending", fmt.Sprint(p.Trending(10)))

		fs := fsx.NewMem()
		if err := p.Engine().SaveCheckpoint(fs, "engine.ckpt"); err != nil {
			t.Fatal(err)
		}
		ckpt, err := fs.ReadFile("engine.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		emit(name+".checkpoint", string(ckpt))
	}
}

// seedVocabulary registers every term the stream will resolve, each
// class's in a shuffled order, before anything is ingested.
func seedVocabulary(msgs []*tweet.Message) {
	type term struct {
		c termdict.Class
		s string
	}
	var vocab []term
	for _, m := range msgs {
		vocab = append(vocab, term{termdict.User, m.User}, term{termdict.User, m.RTOf})
		for _, h := range m.Hashtags {
			vocab = append(vocab, term{termdict.Tag, h})
		}
		for _, u := range m.URLs {
			vocab = append(vocab, term{termdict.URL, u})
		}
		for _, k := range tokenizer.Keywords(m.Text) {
			vocab = append(vocab, term{termdict.Keyword, k})
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
	for _, v := range vocab {
		termdict.Intern(v.c, v.s)
	}
}

// emit prints one section's digest for the parent to compare.
func emit(section, content string) {
	fmt.Printf("idorder %s %x\n", section, sha256.Sum256([]byte(content)))
}

// spellings returns the distinct terms of class c in b ordered by the
// term string, never by ID: the two runs number terms their own way.
func spellings(b *bundle.Bundle, c termdict.Class) []string {
	var out []string
	for _, t := range b.AppendTerms(nil) {
		if t.Class() == c {
			out = append(out, termdict.Term(t))
		}
	}
	slices.Sort(out)
	return out
}
