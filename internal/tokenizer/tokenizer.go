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
	"unicode"
	"unicode/utf8"

	"provex/internal/termdict"
)

// MinTokenLen is the shortest token kept by Keywords; one- and two-letter
// fragments ("rt", "ny", emoticon residue) carry almost no topical signal
// in 140-character messages and would bloat posting lists.
const MinTokenLen = 3

// Tokenize splits text into lower-cased word tokens. Hashtag and mention
// sigils are dropped (the indicant extractors in package tweet own those
// classes); URLs are skipped entirely so link fragments do not pollute
// the vocabulary; everything else splits on non-alphanumeric runes.
func Tokenize(text string) []string {
	var out []string
	i := 0
	for i < len(text) {
		if hasURLPrefix(text[i:]) {
			i = skipURL(text, i)
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

func hasURLPrefix(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") ||
		strings.HasPrefix(s, "www.")
}

// skipURL returns the end of the URL that starts at i: the first
// whitespace rune after it, or len(text). URLs are skipped wholesale so
// link fragments do not pollute the vocabulary. It steps by rune, so a
// multi-byte character whose tail byte reads as NBSP (A0) or NEL (85)
// does not end the URL and leak the rest of it into the keywords.
func skipURL(text string, i int) int {
	for i < len(text) {
		r, size := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return i
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

// IsStopword reports whether the (already lower-cased) token is filtered
// from keyword sets.
func IsStopword(tok string) bool { return stopwords[tok] }

// Stem applies a light, deterministic suffix stemmer — a few high-value
// rules rather than full Porter — so "yankees"/"yankee" and
// "wins"/"winning"/"win" collide in the keyword space the way the
// paper's bundle summaries (Figure 2) show merged word forms.
func Stem(tok string) string {
	keep, y := stemRule(tok)
	if y {
		return tok[:keep] + "y"
	}
	return tok[:keep]
}

// stemBytes is Stem in place, over a token the caller owns.
func stemBytes(tok []byte) []byte {
	keep, y := stemRule(tok)
	if y {
		tok[keep] = 'y'
		keep++
	}
	return tok[:keep]
}

// stemRule is the stemmer's one rule table: how many bytes of tok the
// stem keeps, and whether a 'y' follows them ("stories" → "story").
func stemRule[T string | []byte](tok T) (keep int, y bool) {
	n := len(tok)
	switch {
	case n > 5 && hasSuffix(tok, "ing"):
		return n - 3, false
	case n > 4 && hasSuffix(tok, "ies"):
		return n - 3, true
	case n > 4 && hasSuffix(tok, "ed") && tok[n-3] != 'e':
		return n - 2, false
	case n > 3 && hasSuffix(tok, "es") && !hasSuffix(tok, "ses"):
		return n - 1, false
	case n > 3 && hasSuffix(tok, "s") && !hasSuffix(tok, "ss"):
		return n - 1, false
	}
	return n, false
}

func hasSuffix[T string | []byte](s T, suffix string) bool {
	if len(s) < len(suffix) {
		return false
	}
	s = s[len(s)-len(suffix):]
	for i := 0; i < len(suffix); i++ {
		if s[i] != suffix[i] {
			return false
		}
	}
	return true
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
		if hasURLPrefix(text[i:]) {
			i = skipURL(text, i)
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
