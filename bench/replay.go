package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/promtext"
	"provex/internal/query"
	"provex/internal/shard"
	"provex/internal/storage"
	"provex/internal/stream"
	"provex/internal/trending"
)

// checkpointEvery is the cadence provserve and the shim hard-code.
const checkpointEvery = 50_000

// walSyncEvery is the WAL fsync batching provserve and the shim use.
const walSyncEvery = 64

// queryBackend is the read side both shells offer.
type queryBackend interface {
	SearchBundles(q string, k int) []query.BundleHit
	SearchMessages(q string, k int) []query.MessageHit
	Trail(id bundle.ID) (string, error)
	Trending(k int) []trending.Topic
}

// shell is a serving shell rebuilt inside the benchmark process from
// the constructors provserve uses, driven one call at a time so each
// call into a layer can be wrapped in a span.
type shell interface {
	// open recovers whatever dir holds and readies the query side.
	open(tr *tracer, dir string) error
	// apply ingests one prepared message the way the shell's writer
	// loop does, checkpointing on cadence.
	apply(tr *tracer, p core.Prepared) error
	// settle makes everything applied so far visible to queries.
	settle(tr *tracer) error
	backend() queryBackend
	snapshot() core.Stats
	span() shard.SpanStats
	walSeconds() (float64, error) // the shell's own WAL append+fsync timers
	archived() int
	// loadCheckpoints times a bare load of the checkpoint files, apart
	// from any open.
	loadCheckpoints(dir string) (time.Duration, error)
	// close releases files; closing an unopened or closed shell is a
	// no-op, so error paths can defer it.
	close() error
}

func newShell(w workload) shell {
	if w.shards > 1 {
		return &shardedShell{shards: w.shards}
	}
	return &serialShell{bounded: w.bounded()}
}

// serialShell mirrors provserve's serveLive (and the bounded shim):
// pipeline.Durable + query.Processor, applied as pipeline.Service.apply
// does.
type serialShell struct {
	bounded bool
	store   *storage.Store
	dur     *pipeline.Durable
	proc    *query.Processor
	reg     *metrics.Registry
	applied int
}

func (s *serialShell) config() core.Config {
	if s.bounded {
		return core.BundleLimitConfig(boundedMaxBundles, boundedMaxBundleSize)
	}
	return core.FullIndexConfig()
}

func (s *serialShell) open(tr *tracer, dir string) error {
	var err error
	tr.begin(lyOpenDurable)
	if s.bounded {
		s.store, err = storage.Open(filepath.Join(dir, "store"), storage.Options{})
	}
	if err == nil {
		s.dur, err = pipeline.OpenDurable(s.config(), s.store, nil, pipeline.DurableOptions{
			CheckpointPath: filepath.Join(dir, "engine.ckpt"),
			WALDir:         filepath.Join(dir, "wal"),
			WALSyncEvery:   walSyncEvery,
		})
	}
	tr.end()
	if err != nil {
		return err
	}
	qopts := query.DefaultOptions()
	qopts.IncludeArchive = s.bounded
	tr.begin(lyNewProcessor)
	s.proc = query.New(s.dur.Engine(), qopts)
	tr.end()
	tr.begin(lyReindex)
	s.proc.Reindex()
	tr.end()
	s.reg = metrics.NewRegistry()
	s.dur.RegisterMetrics(s.reg)
	s.applied = int(s.dur.Engine().Snapshot().Messages)
	return nil
}

func (s *serialShell) apply(tr *tracer, p core.Prepared) error {
	tr.begin(lyWALAppend)
	err := s.dur.Log(p.Doc.Msg)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(lyInsert)
	s.proc.InsertPrepared(p)
	tr.end()
	s.applied++
	if s.applied%checkpointEvery != 0 {
		return nil
	}
	tr.begin(lyCheckpoint)
	s.dur.DrainRetries()
	err = s.dur.Checkpoint()
	tr.end()
	return err
}

func (s *serialShell) settle(*tracer) error  { return nil }
func (s *serialShell) backend() queryBackend { return s.proc }
func (s *serialShell) snapshot() core.Stats  { return s.dur.Engine().Snapshot() }
func (s *serialShell) span() shard.SpanStats { return shard.SpanStats{} }
func (s *serialShell) archived() int         { return s.proc.Archived() }

func (s *serialShell) walSeconds() (float64, error) { return walSeconds(s.reg) }

func (s *serialShell) loadCheckpoints(dir string) (time.Duration, error) {
	return loadCheckpoint(s.config(), filepath.Join(dir, "engine.ckpt"))
}

func (s *serialShell) close() error {
	if s.dur == nil {
		return nil
	}
	err := s.dur.Close()
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	s.dur, s.store = nil, nil
	return err
}

// shardedShell mirrors provserve's serveSharded: shard.Durable driven
// as shard.Service's writer loop drives it, with an unstarted
// shard.Service lending its fan-out-and-merge query methods. There is
// no idle flush in a replay, so every round is a full batch.
type shardedShell struct {
	shards    int
	dur       *shard.Durable
	svc       *shard.Service
	reg       *metrics.Registry
	sinceCkpt int
}

func (s *shardedShell) open(tr *tracer, dir string) error {
	q := query.DefaultOptions()
	tr.begin(lyOpenDurable)
	dur, err := shard.OpenDurable(core.FullIndexConfig(),
		shard.Options{Shards: s.shards, Query: &q},
		shard.DurableOptions{
			Dir:          filepath.Join(dir, "wal"),
			ManifestPath: filepath.Join(dir, "engine.ckpt"),
			WALSyncEvery: walSyncEvery,
		})
	tr.end()
	if err != nil {
		return err
	}
	s.dur = dur
	tr.begin(lyReindex)
	dur.Reindex()
	tr.end()
	s.reg = metrics.NewRegistry()
	dur.RegisterMetrics(s.reg)
	s.sinceCkpt = int(dur.Global())
	s.svc, err = shard.NewService(dur.Engine, dur, shard.ServiceOptions{})
	return err
}

func (s *shardedShell) apply(tr *tracer, p core.Prepared) error {
	tr.begin(lyShardIngest)
	err := s.dur.IngestPrepared(p)
	tr.end()
	if err != nil {
		return err
	}
	if int(s.dur.Global())-s.sinceCkpt < checkpointEvery {
		return nil
	}
	s.sinceCkpt = int(s.dur.Global())
	tr.begin(lyCheckpoint)
	err = s.dur.Checkpoint()
	tr.end()
	return err
}

func (s *shardedShell) settle(tr *tracer) error {
	tr.begin(lyShardFlush)
	err := s.dur.Flush()
	tr.end()
	return err
}

func (s *shardedShell) backend() queryBackend { return s.svc }
func (s *shardedShell) snapshot() core.Stats  { return s.dur.Snapshot() }
func (s *shardedShell) span() shard.SpanStats { return s.dur.Span() }
func (s *shardedShell) archived() int         { return 0 }

func (s *shardedShell) walSeconds() (float64, error) { return walSeconds(s.reg) }

func (s *shardedShell) loadCheckpoints(dir string) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < s.shards; i++ {
		path := filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d", i), "engine.ckpt")
		d, err := loadCheckpoint(core.FullIndexConfig(), path)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (s *shardedShell) close() error {
	if s.dur == nil {
		return nil
	}
	err := s.dur.Close()
	s.dur = nil
	return err
}

// loadCheckpoint times core.LoadCheckpoint alone; the engine it
// returns is dropped. A missing file (a run too short to checkpoint)
// costs nothing.
func loadCheckpoint(cfg core.Config, path string) (time.Duration, error) {
	start := time.Now()
	_, err := core.LoadCheckpoint(cfg, nil, nil, nil, path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	return time.Since(start), err
}

// walSeconds reads the WAL's own append and fsync timers through the
// registry, the only way in from outside the wal package.
func walSeconds(reg *metrics.Registry) (float64, error) {
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		return 0, err
	}
	m, err := promtext.Parse(&buf)
	if err != nil {
		return 0, err
	}
	s := samples(m)
	return s.sum("provex_wal_append_seconds_sum") + s.sum("provex_wal_fsync_seconds_sum"), nil
}

// Phase names of the replay, matching the real run's.
const (
	phSetup   = "setup"
	phDrain   = "drain"
	phServe   = "serve"
	phRestart = "restart"
)

// replayResult is what one in-process replay measured.
type replayResult struct {
	setupWall time.Duration // the phase the untraced replay repeats
	// Deltas over the drain phase.
	drainStats struct{ match, place, refine time.Duration }
	drainSpan  shard.SpanStats
	drainWAL   float64
	latencyMs  [numKinds][]float64
	archived   int
	loadCkpt   time.Duration // bare checkpoint load, measured outside the restart wall
}

// replay runs the workload's stream and query sequence through an
// in-process shell on one goroutine. With setupOnly it stops after the
// setup phase. tr may be nil.
func replay(w workload, pl plan, st *synthStream, queries []querySpec, dir string, tr *tracer, setupOnly bool) (*replayResult, error) {
	res := &replayResult{}
	sh := newShell(w)
	defer func() { _ = sh.close() }() // error paths; the success paths check the error themselves
	rd := stream.NewJSONLReader(bytes.NewReader(st.data))
	n := 0 // messages ingested so far
	ingest := func(count int) error {
		for end := n + count; n < end; {
			n++
			tr.message(n)
			tr.begin(lyDecode)
			m, err := rd.Next()
			tr.end()
			if err != nil {
				return fmt.Errorf("replay: message %d: %w", n, err)
			}
			tr.begin(lyPrepare)
			p := core.Prepare(m)
			tr.end()
			if err := sh.apply(tr, p); err != nil {
				return fmt.Errorf("replay: message %d: %w", n, err)
			}
		}
		tr.noMessage()
		return nil
	}

	start := time.Now()
	tr.beginPhase(phSetup)
	if err := sh.open(tr, dir); err != nil {
		return nil, err
	}
	if err := ingest(pl.setup); err != nil {
		return nil, err
	}
	if err := sh.settle(tr); err != nil {
		return nil, err
	}
	tr.endPhase()
	res.setupWall = time.Since(start)
	if setupOnly {
		return res, sh.close()
	}

	before, spanBefore := sh.snapshot(), sh.span()
	walBefore, err := sh.walSeconds()
	if err != nil {
		return nil, err
	}
	tr.beginPhase(phDrain)
	if err := ingest(pl.drain); err != nil {
		return nil, err
	}
	if err := sh.settle(tr); err != nil {
		return nil, err
	}
	tr.endPhase()
	after, spanAfter := sh.snapshot(), sh.span()
	walAfter, err := sh.walSeconds()
	if err != nil {
		return nil, err
	}
	res.drainStats.match = after.MatchTime - before.MatchTime
	res.drainStats.place = after.PlaceTime - before.PlaceTime
	res.drainStats.refine = after.RefineTime - before.RefineTime
	res.drainSpan = shard.SpanStats{
		Probe:  spanAfter.Probe - spanBefore.Probe,
		Reduce: spanAfter.Reduce - spanBefore.Reduce,
		Commit: spanAfter.Commit - spanBefore.Commit,
	}
	res.drainWAL = walAfter - walBefore

	// Serve: the same query sequence, spread evenly over the serve
	// messages so each query sees the index state it would have seen.
	ids, err := harvestBundleIDs(queries, pl.warmup, func(q querySpec) ([]bundleRef, error) {
		hits := sh.backend().SearchBundles(q.term, queryTopK)
		refs := make([]bundleRef, len(hits))
		for i, h := range hits {
			refs[i] = bundleRef{uint64(h.ID), h.Size}
		}
		return refs, nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr.beginPhase(phServe)
	asked := 0
	for fed := 1; fed <= pl.serve; fed++ {
		if err := ingest(1); err != nil {
			return nil, err
		}
		for ; asked < fed*len(queries)/pl.serve; asked++ {
			if err := sh.settle(tr); err != nil {
				return nil, err
			}
			q := queries[asked]
			ms, err := askLocal(tr, sh.backend(), q, ids)
			if err != nil {
				return nil, err
			}
			res.latencyMs[q.kind] = append(res.latencyMs[q.kind], ms)
		}
	}
	if err := sh.settle(tr); err != nil {
		return nil, err
	}
	tr.endPhase()
	res.archived = sh.archived()

	// Restart: drop the shell without a final checkpoint, as the kill
	// does, and recover from checkpoint + WAL tail.
	if err := sh.close(); err != nil {
		return nil, err
	}
	if res.loadCkpt, err = sh.loadCheckpoints(dir); err != nil {
		return nil, err
	}
	sh = newShell(w)
	tr.beginPhase(phRestart)
	if err := sh.open(tr, dir); err != nil {
		return nil, err
	}
	tr.endPhase()
	if got := sh.snapshot().Messages; got != int64(pl.total()) {
		return nil, fmt.Errorf("replay: restart recovered %d of %d messages", got, pl.total())
	}
	return res, sh.close()
}

// askLocal runs one query directly against the layer its endpoint
// calls and returns its latency in ms.
func askLocal(tr *tracer, b queryBackend, q querySpec, ids []uint64) (float64, error) {
	var err error
	start := time.Now()
	switch q.kind {
	case kindProv:
		tr.begin(lySearchBundles)
		b.SearchBundles(q.term, queryTopK)
	case kindSearch:
		tr.begin(lySearchMessages)
		b.SearchMessages(q.term, queryTopK)
	case kindBundle:
		tr.begin(lyTrail)
		_, err = b.Trail(bundle.ID(q.bundleID(ids)))
	default:
		tr.begin(lyTrending)
		b.Trending(queryTopK)
	}
	ms := millis(time.Since(start))
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("replay: %s: %w", q.path(ids), err)
	}
	return ms, nil
}
