// Package gen synthesises micro-blog message streams with the
// statistical structure the paper's provenance index exploits: topical
// events that burst and decay, Zipf-distributed user activity and
// vocabulary, re-share (RT) cascades, shared short-URLs and hashtags,
// and a configurable fraction of short noisy chatter.
//
// The paper evaluated on a crawled 2009 Twitter dataset (~70k messages
// per day over two months, 4.25M messages total) that is not available;
// this generator is the documented substitution (DESIGN.md, S3). What
// the index cares about is not the English itself but the overlap
// structure of indicants across time — which this generator reproduces:
// messages of one event share hashtags/URLs/topic words and arrive
// clustered in time, producing the heavy-tailed bundle-size and bounded
// time-span distributions of the paper's Figure 6.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// vocab is a deterministic synthetic vocabulary. Words are pronounceable
// syllable compounds so generated messages look plausibly like text; a
// seed list of real words gives showcase events (Figure 10) readable
// summaries.
type vocab struct {
	words []string
	zipf  *rand.Zipf
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "ca", "ce", "ci", "co", "cu",
	"da", "de", "di", "do", "du", "fa", "fe", "fi", "fo", "fu",
	"ga", "ge", "gi", "go", "gu", "ha", "he", "hi", "ho", "hu",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru",
	"sa", "se", "si", "so", "su", "ta", "te", "ti", "to", "tu",
	"va", "ve", "vi", "vo", "vu", "za", "ze", "zi", "zo", "zu",
}

// seedWords make generated events readable; they are assigned to the
// head of the vocabulary where the Zipf sampler picks most often.
var seedWords = []string{
	"game", "win", "stadium", "crowd", "player", "season", "score",
	"news", "breaking", "report", "update", "watch", "live", "video",
	"launch", "release", "conference", "keynote", "partner", "announce",
	"storm", "quake", "tsunami", "warning", "rescue", "relief", "alert",
	"market", "stock", "price", "trade", "rally", "record", "surge",
	"concert", "tour", "album", "single", "show", "ticket", "stage",
	"election", "vote", "debate", "poll", "campaign", "speech", "protest",
	"coach", "team", "league", "final", "playoff", "champion", "series",
}

// newVocab builds a vocabulary of n words. Word i is deterministic in
// (seed, i); the Zipf sampler makes low-index words frequent.
func newVocab(n int, rng *rand.Rand) *vocab {
	if n < len(seedWords)+1 {
		n = len(seedWords) + 1
	}
	v := &vocab{words: make([]string, 0, n)}
	v.words = append(v.words, seedWords...)
	seen := make(map[string]bool, n)
	for _, w := range seedWords {
		seen[w] = true
	}
	for len(v.words) < n {
		w := synthWord(rng)
		if seen[w] {
			continue
		}
		seen[w] = true
		v.words = append(v.words, w)
	}
	// Zipf exponent ~1.1 mimics natural-language token frequency.
	v.zipf = rand.NewZipf(rng, 1.1, 1.0, uint64(n-1))
	return v
}

// synthWord composes a pronounceable 2–4 syllable word.
func synthWord(rng *rand.Rand) string {
	n := 2 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[rng.Intn(len(syllables))])
	}
	return b.String()
}

// sample draws one word, Zipf-biased toward the vocabulary head.
func (v *vocab) sample() string { return v.words[v.zipf.Uint64()] }

// sampleTail draws k distinct words uniformly from the whole vocabulary,
// used for event-specific topical words so that distinct events rarely
// share vocabulary by accident.
func (v *vocab) sampleTail(k int, rng *rand.Rand) []string {
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for attempts := 0; len(out) < k && attempts < 4*k+8; attempts++ {
		w := v.words[rng.Intn(len(v.words))]
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// shortURL fabricates a bit.ly/ow.ly-style short link, unique per
// counter value.
func shortURL(rng *rand.Rand, counter uint64) string {
	hosts := []string{"bit.ly", "ow.ly", "is.gd", "tinyurl.com", "t.co"}
	return fmt.Sprintf("%s/%s", hosts[rng.Intn(len(hosts))], base36(counter+1000))
}

func base36(n uint64) string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	if n == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%36]
		n /= 36
	}
	return string(buf[i:])
}
