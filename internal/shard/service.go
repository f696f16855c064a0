// Service: the sharded engine behind the one deployment shell,
// pipeline.Service — its writer loop, queue, checkpoint cadence and
// provex_pipeline_* metrics are the serial deployment's, driving this
// package through pipeline.Backend. What is sharded about serving
// lives here: the adapter that maps the writer loop onto the round
// protocol and the barrier's two steps, and the reads.
//
// Queries fan out: search and trending ask every shard's processor and
// merge top-k under the serial tie order (score desc, ID asc); the
// point lookup (Bundle) routes straight to the owning shard via the
// bundle ID stride.

package shard

import (
	"errors"
	"sort"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// Service is the concurrent facade NewService returns.
type Service = pipeline.Service

// ServiceOptions configure a Service.
type ServiceOptions struct {
	// CheckpointEvery runs the coordinated checkpoint barrier once that
	// many messages have been committed since the last one; 0 disables
	// periodic barriers (the Stop barrier still runs for durable
	// engines).
	CheckpointEvery int
}

// NewService wraps eng in a pipeline.Service. The engine must have
// been built with Options.Query set: queries need the per-shard
// processors. dur may be nil (no durability); when set it must be the
// Durable whose embedded Engine eng is.
func NewService(eng *Engine, dur *Durable, opts ServiceOptions) (*Service, error) {
	if eng.opts.Query == nil {
		return nil, errors.New("shard: service requires an engine built with Options.Query")
	}
	if dur != nil && dur.Engine != eng {
		return nil, errors.New("shard: service: dur does not wrap eng")
	}
	return pipeline.NewWith(backend{eng, dur}, pipeline.Options{CheckpointEvery: opts.CheckpointEvery}), nil
}

// backend is the pipeline.Backend over a sharded engine; the embedded
// Engine supplies Flush, Pending, Err, Snapshot and the reads. Apply
// buffers into the round, whose commit phase does the WAL logging (one
// batch write per fsync on each shard's log), so Log and Sync have
// nothing to do, and the log stage hands over one round's worth at a
// time.
type backend struct {
	*Engine
	dur *Durable // nil for memory-only engines
}

func (b backend) Log(*tweet.Message) error    { return nil }
func (b backend) Sync() error                 { return nil }
func (b backend) LogBatch() int               { return b.Batch() }
func (b backend) Apply(p core.Prepared) error { return b.IngestPrepared(p) }
func (b backend) Applied() int                { return int(b.Global()) }
func (b backend) CanCheckpoint() bool         { return b.dur != nil }
func (b backend) PrepareCheckpoint() error    { return b.dur.prepareCheckpoint() }
func (b backend) Checkpoint() error           { return b.dur.persistCheckpoint() }

// fanOut asks every shard's processor for its top k and merges the
// answers under the serial tie order. key returns a hit's score and ID.
func fanOut[T any](e *Engine, k int, ask func(*query.Processor) []T, key func(T) (float64, uint64)) []T {
	var all []T
	for _, sh := range e.shards {
		all = append(all, ask(sh.proc)...)
	}
	sort.Slice(all, func(i, j int) bool {
		si, idi := key(all[i])
		sj, idj := key(all[j])
		if si != sj {
			return si > sj
		}
		return idi < idj
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// SearchMessages answers a conventional message query: every shard's
// top k merged under (score desc, message ID asc). Like the other
// reads it needs an engine built with Options.Query.
func (e *Engine) SearchMessages(q string, k int) []query.MessageHit {
	return fanOut(e, k,
		func(p *query.Processor) []query.MessageHit { return p.SearchMessages(q, k) },
		func(h query.MessageHit) (float64, uint64) { return h.Score, uint64(h.Msg.ID) })
}

// SearchBundles answers a provenance bundle query (Eq. 7): every
// shard's top k merged under (score desc, bundle ID asc).
func (e *Engine) SearchBundles(q string, k int) []query.BundleHit {
	return fanOut(e, k,
		func(p *query.Processor) []query.BundleHit { return p.SearchBundles(q, k) },
		func(h query.BundleHit) (float64, uint64) { return h.Score, uint64(h.ID) })
}

// Trending merges every shard's leaderboard under (score desc, bundle
// ID asc).
func (e *Engine) Trending(k int) []trending.Topic {
	return fanOut(e, k,
		func(p *query.Processor) []trending.Topic { return p.Trending(k) },
		func(t trending.Topic) (float64, uint64) { return t.Score, uint64(t.ID) })
}

// Bundle resolves a bundle on its owning shard (pool, then that
// shard's disk back-end) and copies it out.
func (e *Engine) Bundle(id bundle.ID) (query.BundleDetail, error) {
	return e.shards[Owner(id, len(e.shards))].proc.Bundle(id)
}
