// Package provex reproduces "Provenance-based Indexing Support in
// Micro-blog Platforms" (Yao, Cui, Xue, Liu — ICDE 2012) as a Go
// library: a provenance model over micro-blog message streams, a
// summary index routing each incoming message into provenance bundles,
// adaptive pool maintenance, an on-disk bundle store, and
// bundle-granularity retrieval.
//
// The implementation lives under internal/ (ARCHITECTURE.md maps every
// package); cmd/ holds the tools, examples/quickstart a runnable walk
// through the engine on the paper's Table I messages, and bench_test.go
// one benchmark per figure of the paper's evaluation.
package provex
