package tokenizer

import (
	"strings"
	"sync"
)

// String interning for indicant terms (after Asadi, Lin & Busch's
// observation that term-string churn is a first-order memory cost in
// real-time micro-blog indexing): the keyword vocabulary of a stream is
// Zipfian, so the same few thousand terms are extracted millions of
// times. Interning returns one canonical heap copy per distinct term,
// so posting-list keys, bundle summaries and Doc.Keywords slices all
// share storage instead of each holding a fresh ToLower allocation.
//
// The table is process-global and safe for concurrent use — every
// Service's log stage tokenizes on its own goroutine. It is
// read-mostly (a miss happens once per distinct term ever), so an
// RWMutex-guarded map wins over sync.Map's amortised copying here.

// maxInternEntries bounds the table. A crawl's keyword vocabulary is
// Zipfian and plateaus far below this; the cap only guards against
// adversarial unbounded-vocabulary streams. Past the cap, Intern
// degrades to identity (no canonicalisation, no growth).
const maxInternEntries = 1 << 19

var interner = struct {
	sync.RWMutex
	m map[string]string // guarded by RWMutex
}{m: make(map[string]string, 4096)}

// Intern returns the canonical copy of s, inserting one on first sight.
// The canonical copy is detached from s's backing array (s is typically
// a substring of a full message text, which must not be pinned by the
// table).
//
//provex:hotpath hit path is a lock + map probe; only first sight of a term clones
func Intern(s string) string {
	interner.RLock()
	c, ok := interner.m[s]
	interner.RUnlock()
	if ok {
		return c
	}
	interner.Lock()
	defer interner.Unlock()
	if c, ok := interner.m[s]; ok {
		return c
	}
	if len(interner.m) >= maxInternEntries {
		return s
	}
	c = strings.Clone(s)
	interner.m[c] = c
	return c
}

// internBytes is the zero-allocation lookup path for a token assembled
// in a scratch buffer (lower-casing without strings.ToLower): the
// map[string(b)] form compiles to an allocation-free lookup, so only a
// table miss pays for string conversion.
//
//provex:hotpath runs once per token of every ingested message
func internBytes(b []byte) string {
	interner.RLock()
	c, ok := interner.m[string(b)]
	interner.RUnlock()
	if ok {
		return c
	}
	//provlint:ignore hotpathalloc miss path: the one string conversion per distinct term ever seen
	return Intern(string(b))
}
