// Router: the deterministic indicant-hash that assigns a message a
// "home" shard. The home shard only decides where a message lands when
// NO existing bundle matches it (phase 1 of the two-phase protocol
// found no Eq. 1 score above the join threshold on any shard) — the
// messages that open new bundles. Everything else follows the bundle it
// matched, wherever that bundle lives.
//
// The key is the message's dominant indicant, in the order the Eq. 1
// weights rank their routing signal: the retweeted user (an RT joins
// its original's conversation), else the first URL, else the first
// hashtag, else the first extracted keyword, else the author. Messages
// of one burst — an RT storm, a breaking-news URL, a hashtag campaign —
// therefore share a home shard, so the bundle a burst opens and the
// burst's follow-up messages meet on the same shard even within a
// single round (the commit phase's full local re-match links them).

package shard

import (
	"provex/internal/score"
	"provex/internal/termdict"
)

// FNV-1a, inlined so the hot path stays allocation-free.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashString folds s into h without allocating.
//
//provex:hotpath inner loop of RouteKey, per byte of the dominant indicant
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// RouteKey hashes the message's dominant indicant. Each indicant class
// salts the hash with a distinct byte so equal strings in different
// classes ("#x" vs a keyword "x") do not collide structurally. It hashes
// the term, never its dictionary ID, which another process numbers
// differently. Pure:
// the same document always yields the same key, on any shard count —
// which is what makes sharded ingest a function of (stream, N, batch)
// alone, independent of goroutine scheduling.
//
//provex:hotpath router hash runs once per ingested message
func RouteKey(doc score.Doc) uint64 {
	if rt, ok := doc.RTUser(); ok {
		return hashString(fnvOffset^1, termdict.Term(rt))
	}
	tags, urls, kws := doc.Runs()
	if len(urls) > 0 {
		return hashString(fnvOffset^2, termdict.Term(urls[0]))
	}
	if len(tags) > 0 {
		return hashString(fnvOffset^3, termdict.Term(tags[0]))
	}
	if len(kws) > 0 {
		return hashString(fnvOffset^4, termdict.Term(kws[0]))
	}
	return hashString(fnvOffset^5, termdict.Term(doc.User()))
}

// Route maps doc onto one of n shards.
//
//provex:hotpath runs once per ingested message in the reduce step
func Route(doc score.Doc, n int) int {
	if n <= 1 {
		return 0
	}
	return int(RouteKey(doc) % uint64(n))
}
