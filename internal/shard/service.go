// Service: the sharded engine behind the one deployment shell,
// pipeline.Service — its writer loop, queue, checkpoint cadence and
// provex_pipeline_* metrics are the serial deployment's, driving this
// package through pipeline.Backend. What is sharded about serving
// lives here: the adapter that maps the writer loop onto the round
// protocol and the barrier's two steps. The reads are not sharded
// code: they are the node's query.Processor over every shard engine,
// as a serial node's are its Processor over its one engine.

package shard

import (
	"errors"

	"provex/internal/core"
	"provex/internal/pipeline"
	"provex/internal/query"
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
// been built with Options.Query set: the Service answers queries from
// its Processor. dur may be nil (no durability); when set it must be
// the Durable whose embedded Engine eng is.
func NewService(eng *Engine, dur *Durable, opts ServiceOptions) (*Service, error) {
	if eng.proc == nil {
		return nil, errors.New("shard: service requires an engine built with Options.Query")
	}
	if dur != nil && dur.Engine != eng {
		return nil, errors.New("shard: service: dur does not wrap eng")
	}
	return pipeline.NewWith(backend{eng.proc, eng, dur}, pipeline.Options{CheckpointEvery: opts.CheckpointEvery}), nil
}

// backend is the pipeline.Backend over a sharded engine. The node's
// Processor supplies the reads and Snapshot, as it does for
// pipeline.New's serial backend; eng the rest. Apply buffers into the
// round, whose commit phase does the WAL logging (one batch write per
// fsync on each shard's log), so Log and Sync have nothing to do, and
// the log stage hands over one round's worth at a time.
type backend struct {
	*query.Processor
	eng *Engine
	dur *Durable // nil for memory-only engines
}

func (b backend) Log(*tweet.Message) error    { return nil }
func (b backend) Sync() error                 { return nil }
func (b backend) LogBatch() int               { return b.eng.Batch() }
func (b backend) Apply(p core.Prepared) error { return b.eng.IngestPrepared(p) }
func (b backend) Flush() error                { return b.eng.Flush() }
func (b backend) Pending() int                { return b.eng.Pending() }
func (b backend) Applied() int                { return int(b.eng.Global()) }
func (b backend) Err() error                  { return b.eng.Err() }
func (b backend) CanCheckpoint() bool         { return b.dur != nil }
func (b backend) PrepareCheckpoint() error    { return b.dur.prepareCheckpoint() }
func (b backend) Checkpoint() error           { return b.dur.persistCheckpoint() }
