// Package tokenizer provides the text-processing substrate shared by the
// full-text index and the provenance summary index: tokenisation of
// micro-blog text, stop-word filtering, light suffix stemming and keyword
// selection.
//
// The paper's "text" connection type (Table II) intersects the word sets
// of two messages, and its summary index carries a keywords indicant
// class next to hashtags and URLs; both consume the output of this
// package.
package tokenizer

import (
	"slices"
	"sort"
	"strings"

	"provex/internal/termdict"
	"provex/internal/tweet"
)

// MinTokenLen is the shortest token kept by Keywords; one- and two-letter
// fragments ("rt", "ny", emoticon residue) carry almost no topical signal
// in 140-character messages and would bloat posting lists.
const MinTokenLen = 3

// Tokenize splits text into lower-cased word tokens. Hashtag and mention
// sigils are dropped (the indicant extractors in package tweet own those
// classes); URLs — as tweet.HasURLPrefix and tweet.URLEnd delimit them,
// the bytes the parser extracts — are skipped entirely so link fragments
// do not pollute the vocabulary; everything else splits on
// non-alphanumeric runes.
func Tokenize(text string) []string {
	var out []string
	i := 0
	for i < len(text) {
		if tweet.HasURLPrefix(text[i:]) {
			i = tweet.URLEnd(text, i)
			continue
		}
		c := rune(text[i])
		if !isWordRune(c) {
			i++
			continue
		}
		start := i
		for i < len(text) && isWordRune(rune(text[i])) {
			i++
		}
		out = append(out, strings.ToLower(text[start:i]))
	}
	return out
}

func isWordRune(r rune) bool {
	return r == '_' || r == '\'' ||
		('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')
}

// stopwords is the filter list applied by Keywords. It mixes standard
// English function words with micro-blog chatter ("lol", "omg", "rt")
// that the paper's Figure 1 shows dominating noisy messages.
var stopwords = func() map[string]bool {
	words := []string{
		"a", "about", "after", "again", "all", "also", "am", "an", "and",
		"any", "are", "as", "at", "be", "because", "been", "before",
		"being", "but", "by", "can", "cannot", "could", "did", "do",
		"does", "doing", "don", "down", "during", "each", "few", "for",
		"from", "further", "get", "got", "had", "has", "have", "having",
		"he", "her", "here", "hers", "him", "his", "how", "i", "if", "in",
		"into", "is", "it", "its", "just", "like", "me", "more", "most",
		"my", "no", "nor", "not", "now", "of", "off", "on", "once",
		"only", "or", "other", "our", "out", "over", "own", "same",
		"she", "so", "some", "such", "than", "that", "the", "their",
		"them", "then", "there", "these", "they", "this", "those",
		"through", "to", "too", "under", "until", "up", "very", "was",
		"we", "were", "what", "when", "where", "which", "while", "who",
		"whom", "why", "will", "with", "would", "you", "your",
		// contractions produced by our apostrophe-keeping tokenizer
		"i'm", "it's", "don't", "can't", "won't", "didn't", "that's",
		"you're", "he's", "she's", "isn't", "aren't", "wasn't",
		// micro-blog chatter
		"rt", "via", "lol", "omg", "wow", "yeah", "hey", "ugh", "argh",
		"sigh", "haha", "hahaha", "u", "ur", "im", "dont", "cant",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}()

// stemBytes applies a light, deterministic suffix stemmer in place,
// over a token the caller owns — a few high-value rules rather than
// full Porter — so "yankees"/"yankee" and "wins"/"winning"/"win" collide
// in the keyword space the way the paper's bundle summaries (Figure 2)
// show merged word forms.
func stemBytes(tok []byte) []byte {
	n := len(tok)
	switch {
	case n > 5 && hasSuffix(tok, "ing"):
		return tok[:n-3]
	case n > 4 && hasSuffix(tok, "ies"): // "stories" → "story"
		tok[n-3] = 'y'
		return tok[:n-2]
	case n > 4 && hasSuffix(tok, "ed") && tok[n-3] != 'e':
		return tok[:n-2]
	case n > 3 && hasSuffix(tok, "es") && !hasSuffix(tok, "ses"):
		return tok[:n-1]
	case n > 3 && hasSuffix(tok, "s") && !hasSuffix(tok, "ss"):
		return tok[:n-1]
	}
	return tok
}

func hasSuffix(s []byte, suffix string) bool {
	return len(s) >= len(suffix) && string(s[len(s)-len(suffix):]) == suffix
}

// Keywords returns the deduplicated, stemmed, stopword-filtered keyword
// set of text, in first-occurrence order. This is the "text" indicant of
// Table II and the keywords class of the summary index.
//
// Keywords only reads the term dictionary: a keyword the dictionary
// holds comes back as the dictionary's copy, any other as a fresh
// string, and nothing is added — so queries, which resolve their words
// through it, cannot grow the dictionary. Ingest resolves a message's
// keywords to IDs with AppendKeywords instead. The result is cut to fit.
// Safe for concurrent use.
func Keywords(text string) []string {
	var buf [keywordBuf]byte
	var scratch [36]string // 140 characters hold at most 35 tokens of MinTokenLen
	out := scratch[:0]
	for i := 0; ; {
		var kw []byte
		if kw, i = nextKeyword(text, i, &buf); kw == nil {
			break
		}
		var k string
		if id := termdict.LookupBytes(termdict.Keyword, kw); id != termdict.None {
			k = termdict.Term(id)
		} else {
			k = string(kw)
		}
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return append(make([]string, 0, len(out)), out...)
}

// AppendKeywords appends the term-dictionary IDs of text's keywords —
// Keywords' set, in its order — to dst, adding first-seen keywords to
// the dictionary. It runs once per ingested message, in the prepare
// stage, and allocates only for a keyword the dictionary has never
// seen (or when dst must grow).
//
//provex:hotpath keyword extraction of every prepared message
func AppendKeywords(dst []termdict.ID, text string) []termdict.ID {
	var buf [keywordBuf]byte
	first := len(dst)
	for i := 0; ; {
		var kw []byte
		if kw, i = nextKeyword(text, i, &buf); kw == nil {
			return dst
		}
		// Keyword sets of 140-character messages hold a handful of
		// entries; the linear dedup scan beats a set.
		if id := termdict.InternBytes(termdict.Keyword, kw); !slices.Contains(dst[first:], id) {
			dst = append(dst, id)
		}
	}
}

// keywordBuf is the stack scratch a token is lower-cased and stemmed in;
// a longer token gets a heap copy.
const keywordBuf = 64

// nextKeyword scans text from i in a single pass — no token slice, no
// seen-set — and returns the next keyword, lower-cased (isWordRune
// admits only ASCII, so byte-wise) and stemmed in buf, plus the index to
// resume from; nil once text is exhausted. Tokens shorter than
// MinTokenLen, stop words and numbers are dropped before stemming. The
// keyword is valid until the next call with the same buf.
//
//provex:hotpath one call per keyword of every prepared message
func nextKeyword(text string, i int, buf *[keywordBuf]byte) ([]byte, int) {
	for i < len(text) {
		if tweet.HasURLPrefix(text[i:]) {
			i = tweet.URLEnd(text, i)
			continue
		}
		if !isWordRune(rune(text[i])) {
			i++
			continue
		}
		start := i
		for i < len(text) && isWordRune(rune(text[i])) {
			i++
		}
		if i-start < MinTokenLen {
			continue
		}
		tok := buf[:0]
		if i-start > len(buf) {
			//provlint:ignore hotpathalloc a token longer than the stack scratch, never seen in 140 characters
			tok = make([]byte, 0, i-start)
		}
		for j := start; j < i; j++ {
			c := text[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			tok = append(tok, c)
		}
		if stopwords[string(tok)] || isNumeric(tok) {
			continue
		}
		return stemBytes(tok), i
	}
	return nil, i
}

func isNumeric[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// TopTerms returns the k highest-count terms of counts, ties broken
// alphabetically for determinism. Bundle summaries use it to render the
// "Summary Words" column of the paper's Figure 2 result list.
func TopTerms(counts map[string]int, k int) []string {
	type tc struct {
		term  string
		count int
	}
	all := make([]tc, 0, len(counts))
	for t, c := range counts {
		all = append(all, tc{t, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].term < all[j].term
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].term
	}
	return out
}
