package gen

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"provex/internal/tweet"
)

func newTestVocab(n int) *vocab {
	return newVocab(n, rand.New(rand.NewSource(1)))
}

func TestVocabSeedWordsFirst(t *testing.T) {
	v := newTestVocab(1000)
	for i, w := range seedWords {
		if v.words[i] != w {
			t.Fatalf("word %d = %q, want seed word %q", i, v.words[i], w)
		}
	}
	if len(v.words) != 1000 {
		t.Errorf("vocab size = %d", len(v.words))
	}
}

func TestVocabDistinctWords(t *testing.T) {
	v := newTestVocab(3000)
	seen := map[string]bool{}
	for _, w := range v.words {
		if seen[w] {
			t.Fatalf("duplicate vocab word %q", w)
		}
		seen[w] = true
	}
}

func TestVocabTinyRequestClamped(t *testing.T) {
	v := newTestVocab(3) // below seed-word count
	if len(v.words) <= len(seedWords) {
		t.Errorf("tiny vocab = %d words, want > %d", len(v.words), len(seedWords))
	}
}

func TestVocabZipfSkew(t *testing.T) {
	v := newTestVocab(2000)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[v.sample()]++
	}
	// The head word must be dramatically more frequent than a mid-tail
	// word under a Zipf(1.1) sampler.
	head := counts[v.words[0]]
	if head < 200 {
		t.Errorf("head word sampled only %d times in 20000", head)
	}
	distinct := len(counts)
	if distinct < 100 {
		t.Errorf("only %d distinct words sampled", distinct)
	}
}

func TestSampleTailUniform(t *testing.T) {
	v := newTestVocab(2000)
	rng := rand.New(rand.NewSource(2))
	// Tail sampling should regularly reach beyond the Zipf head.
	beyondHead := 0
	for trial := 0; trial < 50; trial++ {
		for _, w := range v.sampleTail(5, rng) {
			idx := -1
			for i, vw := range v.words {
				if vw == w {
					idx = i
					break
				}
			}
			if idx > 500 {
				beyondHead++
			}
		}
	}
	if beyondHead < 50 {
		t.Errorf("sampleTail rarely leaves the head: %d/250 beyond index 500", beyondHead)
	}
}

func TestShortURL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := uint64(0); i < 200; i++ {
		u := shortURL(rng, i)
		if seen[u] {
			t.Fatalf("duplicate short URL %q", u)
		}
		seen[u] = true
		if !strings.Contains(u, "/") {
			t.Fatalf("malformed short URL %q", u)
		}
		// Must survive the tweet parser as a URL indicant.
		m := tweet.Parse(1, "u", time.Now(), "link http://"+u)
		if len(m.URLs) != 1 {
			t.Fatalf("short URL %q not parsed as URL", u)
		}
	}
}

func TestSynthWordPronounceable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		w := synthWord(rng)
		if len(w) < 4 || len(w) > 8 {
			t.Errorf("synthWord length %d: %q", len(w), w)
		}
		if strings.ToLower(w) != w {
			t.Errorf("synthWord not lower-case: %q", w)
		}
	}
}

func TestEventReservoirKeepsRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ev := &event{}
	root := &tweet.Message{ID: 1, User: "root", Text: "root msg"}
	ev.posted = 1
	ev.remember(root, rng)
	// Flood the reservoir; the root may be displaced but the reservoir
	// must stay at its cap and never contain nils.
	for i := 2; i <= 500; i++ {
		ev.posted++
		ev.remember(&tweet.Message{ID: tweet.ID(i), User: "u", Text: "x"}, rng)
	}
	if len(ev.recent) != 32 {
		t.Fatalf("reservoir size = %d, want cap 32", len(ev.recent))
	}
	for i, m := range ev.recent {
		if m == nil {
			t.Fatalf("reservoir slot %d is nil", i)
		}
	}
	if ev.pickRT(rng) == nil {
		t.Error("pickRT returned nil with non-empty reservoir")
	}
}

func TestPickRTEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ev := &event{}
	if ev.pickRT(rng) != nil {
		t.Error("pickRT on empty reservoir should be nil")
	}
}

func TestScriptedDefaults(t *testing.T) {
	g := New(DefaultConfig())
	sc := newScripted(EventScript{Name: "x", Hashtags: []string{"t"}}, g.cfg.Start, g)
	if sc.halfLife == 0 || sc.weight == 0 {
		t.Errorf("scripted defaults not applied: %+v", sc.event)
	}
}

func TestEventString(t *testing.T) {
	ev := &event{id: 5, hashtags: []string{"a"}, posted: 3}
	if s := ev.String(); !strings.Contains(s, "event#5") {
		t.Errorf("String = %q", s)
	}
}
