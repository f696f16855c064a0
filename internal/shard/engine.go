// Package shard partitions the provenance engine into N independent
// shards — each with its own bundle pool, summary index and (when
// durable) WAL segment and checkpoint — coordinated by a deterministic
// two-phase protocol that keeps bundle assignment a pure function of
// (stream, shard count, batch size), independent of goroutine
// scheduling. DESIGN.md §2i derives the protocol and its equivalence
// to the serial engine; ARCHITECTURE.md places the package in the
// ingest path.
//
// The round protocol: ingest buffers up to Batch prepared messages,
// then resolves them in one round.
//
//   - Phase 1 (probe, read-only, parallel): every shard scores every
//     buffered message against its local start-of-round state with the
//     Eq. 1 match (core.Engine.Probe).
//   - Reduce (serial, deterministic): per message in stream order, the
//     best probe wins — highest Eq. 1 score, ties broken to the bundle
//     created earliest (the serial engine's lowest-bundle-ID rule,
//     expressed in shard-independent terms). Messages no shard matched
//     go to their home shard, the indicant hash of Route.
//   - Phase 2 (commit, parallel): each shard WAL-logs and applies its
//     assigned messages in stream order via the full local insert —
//     the commit-time re-match links same-round messages that joined
//     the same shard — then every shard advances its clock to the
//     round's newest message date so refinement ages pools in lockstep.
//     With Options.Query, one more goroutine adds the whole batch, in
//     stream order, to the node's message index meanwhile.
//
// Shards=1 skips the probe phase entirely: the engine degenerates to
// the serial apply loop behind the same API, which is both the honest
// scaling baseline and the exact-equivalence anchor.
//
// Serving: the package has no writer loop and no read code of its own.
// NewService puts an Engine behind pipeline.Service — the queue, idle
// flush, checkpoint cadence and metrics every deployment shares — and
// the reads are one query.Processor over all the shard engines, whose
// one message index each round feeds in stream order (service.go).
package shard

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/storage"
	"provex/internal/trace"
	"provex/internal/tweet"
)

// DefaultBatch is the round size when Options.Batch is unset: large
// enough to amortise the per-round barrier, small enough that the
// intra-round visibility gap (see DESIGN.md §2i) stays negligible.
const DefaultBatch = 256

// Options assemble a sharded engine.
type Options struct {
	// Shards is the partition count N; <=1 runs one shard (serial
	// semantics behind the sharded API).
	Shards int
	// Batch is the round size B; <=0 uses DefaultBatch. B=1 resolves
	// every message in its own round, which makes sharded assignment
	// exactly equivalent to the serial engine (the differential test's
	// configuration); larger B trades an intra-round cross-shard
	// visibility gap for fewer barriers.
	Batch int
	// Sequential runs both phases on the calling goroutine, one shard
	// after another. Results are identical by construction — the
	// protocol never depends on scheduling — so this mode exists for
	// accurate per-shard busy timing (the fig13 sharded sweep), as the
	// scheduling-free reference of TestShardedDeterminism, and for
	// deterministic debugging.
	Sequential bool
	// Query, when non-nil, makes the engine answer reads: one
	// query.Processor over every shard engine, with the node's one
	// message index (NewService requires it). Nil skips per-message
	// indexing overhead — the right choice for pure ingest tools.
	Query *query.Options
}

func (o Options) normalized() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	return o
}

// splitConfig derives shard i's engine config from the global one:
// the bundle ID space is strided (shard i of n allocates i+1, i+1+n,
// ...; Owner inverts the map) and pool occupancy bounds are divided so
// the aggregate pool honours the configured limit.
func splitConfig(cfg core.Config, i, n int) core.Config {
	cfg.Pool.IDStart = bundle.ID(i + 1)
	cfg.Pool.IDStride = n
	if cfg.Pool.MaxBundles > 0 {
		cfg.Pool.MaxBundles = ceilDiv(cfg.Pool.MaxBundles, n)
	}
	if cfg.Pool.LowerLimit > 0 {
		cfg.Pool.LowerLimit = ceilDiv(cfg.Pool.LowerLimit, n)
	}
	return cfg
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// shardState is one shard: its engine plus optional durability shell,
// and the per-round scratch owned by that shard's phase goroutine.
type shardState struct {
	eng *core.Engine
	dur *pipeline.Durable

	probes []core.ProbeResult // phase-1 output, one per batched message
	assign []core.Prepared    // phase-2 input, stream order
	busy   time.Duration      // this phase's busy time on this shard

	msgs metrics.Counter // messages committed to this shard
	err  error           // this shard's failure in the current round's commit, if any
}

// SpanStats is the measured critical path of the rounds so far: per
// round the slowest shard's probe time, the serial reduce time, and
// the slowest shard's commit time. Span is what an ideal scheduler
// with one core per shard could not beat — provingest and the
// benchmark's traced replay report it next to wall clock
// (EXPERIMENTS.md explains why both numbers matter on core-starved
// hardware).
type SpanStats struct {
	Probe  time.Duration // Σ rounds: max over shards of phase-1 busy
	Reduce time.Duration // Σ rounds: serial reduce
	Commit time.Duration // Σ rounds: max over shards of phase-2 busy
}

// Total is the whole critical path.
func (s SpanStats) Total() time.Duration { return s.Probe + s.Reduce + s.Commit }

// Engine is the sharded provenance engine. The ingest side
// (Ingest/IngestPrepared/Flush) is single-goroutine: one owner feeds
// the stream in date order, exactly like core.Engine — the parallelism
// lives inside the round, not around it. Reads of the shard engines,
// and the node's query.Processor over them, are safe between rounds
// under whatever lock the caller uses for queries (pipeline.Service
// wraps one around the whole round).
type Engine struct {
	opts   Options
	shards []*shardState
	engs   []*core.Engine   // the shard engines, in shard order
	proc   *query.Processor // the node's read side; nil without Options.Query

	pending []core.Prepared
	global  uint64 // messages committed across all shards (stream prefix length)
	led     *ledger
	marks   []uint64 // ledger watermark scratch

	err error // first round failure; the engine refuses further ingest

	// Critical-path accounting in atomic nanosecond counters so the
	// metrics gauges may render during a round (scrapes take no engine
	// lock).
	spanProbe  metrics.Counter
	spanReduce metrics.Counter
	spanCommit metrics.Counter

	rounds metrics.Counter
	cross  metrics.Counter
}

// New builds a memory-only sharded engine (no WALs, no checkpoints).
// stores may be nil (no disk back-end anywhere) or hold one store per
// shard; onEdge, when non-nil, observes provenance edges from every
// shard — it must be safe for concurrent use unless Sequential is set,
// because commit goroutines run side by side. Options.Query with
// IncludeArchive and more than one shard panics (query.NewNode).
func New(cfg core.Config, opts Options, stores []*storage.Store, onEdge core.EdgeFunc) (*Engine, error) {
	opts = opts.normalized()
	if stores != nil && len(stores) != opts.Shards {
		return nil, fmt.Errorf("shard: %d stores for %d shards", len(stores), opts.Shards)
	}
	states := make([]*shardState, opts.Shards)
	for i := range states {
		var st *storage.Store
		if stores != nil {
			st = stores[i]
		}
		states[i] = &shardState{eng: core.New(splitConfig(cfg, i, opts.Shards), st, onEdge)}
	}
	return assemble(opts, states), nil
}

// assemble finishes construction from prepared shard states (New for
// memory engines, OpenDurable for recovered ones).
func assemble(opts Options, states []*shardState) *Engine {
	e := &Engine{
		opts:   opts,
		shards: states,
		marks:  make([]uint64, len(states)),
	}
	for _, sh := range states {
		e.engs = append(e.engs, sh.eng)
	}
	if opts.Query != nil {
		e.proc = query.NewNode(e.engs, *opts.Query)
	}
	return e
}

// Shards returns the partition count N.
func (e *Engine) Shards() int { return len(e.shards) }

// Batch returns the effective round size B.
func (e *Engine) Batch() int { return e.opts.Batch }

// Global returns the number of messages committed across all shards —
// the length of the durable stream prefix once Flush has returned.
func (e *Engine) Global() uint64 { return e.global }

// Pending returns the messages buffered for the next round.
func (e *Engine) Pending() int { return len(e.pending) }

// Span returns the accumulated critical-path timing of all rounds.
func (e *Engine) Span() SpanStats {
	return SpanStats{
		Probe:  time.Duration(e.spanProbe.Value()),
		Reduce: time.Duration(e.spanReduce.Value()),
		Commit: time.Duration(e.spanCommit.Value()),
	}
}

// ShardEngine exposes shard i's engine for read-only use (tests,
// per-shard stats reporting). Mutating it directly violates the round
// protocol.
func (e *Engine) ShardEngine(i int) *core.Engine { return e.shards[i].eng }

// SetTracer hands one decision recorder to every shard engine. A
// message is committed on exactly one shard, so the recorder samples
// the stream as a whole; a decision lists the winning shard's
// candidates only. Must be set before ingest starts.
func (e *Engine) SetTracer(r *trace.Recorder) {
	for _, sh := range e.shards {
		sh.eng.SetTracer(r)
	}
}

// Reindex rebuilds the node's message index from every shard's
// recovered pool, in message ID order. Call it once after OpenDurable,
// on an engine built with Options.Query: recovery replays through the
// shard engines, bypassing the index, so searches would otherwise only
// cover post-recovery messages (query.Processor.Reindex).
func (e *Engine) Reindex() { e.proc.Reindex() }

// Rounds returns the number of two-phase rounds resolved so far.
func (e *Engine) Rounds() int { return int(e.rounds.Value()) }

// Cross returns how many messages the best-shard-wins reduce committed
// to a shard other than their indicant-hash home.
func (e *Engine) Cross() int { return int(e.cross.Value()) }

// Ingest prepares and buffers one message, flushing a full batch.
func (e *Engine) Ingest(m *tweet.Message) error {
	return e.IngestPrepared(core.Prepare(m))
}

// IngestPrepared buffers one prepared message, resolving a round when
// the batch is full. Messages must arrive in stream (date) order. A
// returned error means the round could not be made durable — the
// engine latches it and refuses further work; recover by reopening
// from disk (OpenDurable trims to the last consistent cut).
func (e *Engine) IngestPrepared(p core.Prepared) error {
	if e.err != nil {
		return e.err
	}
	e.pending = append(e.pending, p)
	if len(e.pending) >= e.opts.Batch {
		return e.Flush()
	}
	return nil
}

// Flush resolves the buffered messages in one round (no-op when the
// buffer is empty). After a nil return every buffered message is
// applied — and, for durable engines, WAL-synced and ledgered: Flush
// returning is the acknowledgement boundary.
func (e *Engine) Flush() error {
	if e.err != nil {
		return e.err
	}
	if len(e.pending) == 0 {
		return nil
	}
	err := e.round(e.pending)
	e.pending = e.pending[:0]
	if err != nil {
		e.err = err
	}
	return err
}

// round runs the two-phase protocol over batch. See the package doc
// for the protocol; this function is its direct transcription.
func (e *Engine) round(batch []core.Prepared) error {
	n := len(e.shards)

	// Phase 1: probe. Read-only against start-of-round state, so the
	// shard goroutines are independent. One shard skips it — there is
	// nothing to arbitrate.
	if n > 1 {
		e.runPhase(func(_ int, sh *shardState) {
			t0 := time.Now()
			sh.probes = sh.probes[:0]
			for _, p := range batch {
				sh.probes = append(sh.probes, sh.eng.Probe(p.Doc))
			}
			sh.busy = time.Since(t0)
		}, nil)
		e.spanProbe.Add(int64(e.maxBusy()))
	}

	// Reduce: deterministic winner per message, in stream order.
	t0 := time.Now()
	for _, sh := range e.shards {
		sh.assign = sh.assign[:0]
	}
	var maxDate time.Time
	for mi, p := range batch {
		win := -1
		var best core.ProbeResult
		if n > 1 {
			for si, sh := range e.shards {
				pr := sh.probes[mi]
				if !pr.OK {
					continue
				}
				if win < 0 || better(pr, best) {
					win, best = si, pr
				}
			}
		}
		if win < 0 {
			win = Route(p.Doc, n)
		} else if win != Route(p.Doc, n) {
			e.cross.Inc()
		}
		e.shards[win].assign = append(e.shards[win].assign, p)
		if d := p.Doc.Msg.Date; d.After(maxDate) {
			maxDate = d
		}
	}
	e.spanReduce.Add(int64(time.Since(t0)))

	// Phase 2: commit. Each shard owns its engine and WAL exclusively;
	// stream order within a shard is preserved because assign was
	// filled in stream order. Beside the shards, the node's one message
	// index takes the round in stream order, so a message ranks as it
	// would on a serial node whichever shard won it. That task reads only
	// the batch's prepared messages and writes only the index; the
	// caller's write lock keeps queries out of both. A round whose commit
	// fails is indexed all the same — the engine latches the failure.
	var index func()
	if e.proc != nil {
		index = func() { e.proc.Index(batch) }
	}
	e.runPhase(func(_ int, sh *shardState) {
		t0 := time.Now()
		defer func() { sh.busy = time.Since(t0) }()
		sh.err = nil
		for _, p := range sh.assign {
			if sh.dur != nil {
				if err := sh.dur.Log(p.Doc.Msg); err != nil {
					sh.err = err
					return
				}
			}
			sh.eng.InsertPrepared(p)
			sh.msgs.Inc()
		}
		if sh.dur != nil {
			if err := sh.dur.SyncWAL(); err != nil {
				sh.err = err
				return
			}
		}
		sh.eng.AdvanceClock(maxDate)
	}, index)
	e.spanCommit.Add(int64(e.maxBusy()))
	for _, sh := range e.shards {
		if sh.err != nil {
			return fmt.Errorf("shard: commit: %w", sh.err)
		}
	}

	e.global += uint64(len(batch))
	e.rounds.Inc()

	// Ledger: one fsynced record naming the consistent cut this round
	// extended the durable prefix to. Only after it lands is the round
	// acknowledged.
	if e.led != nil {
		for i, sh := range e.shards {
			e.marks[i] = sh.dur.Seq()
		}
		if err := e.led.append(e.global, e.marks); err != nil {
			return err
		}
	}
	return nil
}

// better orders probe results: higher Eq. 1 score wins; exact ties go
// to the bundle created earliest (older first-message date, then lower
// first-message ID). Bundle IDs are allocated in creation order within
// a shard and creation events are globally ordered by the stream, so
// this reproduces the serial engine's lowest-bundle-ID tie-break
// without comparing IDs across stride-disjoint spaces (DESIGN.md §2i
// gives the argument).
//
//provex:hotpath reduce step compares shards-many probe results per message
func better(a, b core.ProbeResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if !a.Created.Equal(b.Created) {
		return a.Created.Before(b.Created)
	}
	return a.FirstMsg < b.FirstMsg
}

// runPhase executes f once per shard, with the shard's index, and
// beside, when non-nil, once — concurrently, one goroutine each, unless
// Sequential is set. Phase results never depend on which mode ran:
// shards share no mutable state during a phase, and beside touches no
// shard's.
func (e *Engine) runPhase(f func(int, *shardState), beside func()) {
	if e.opts.Sequential || (len(e.shards) == 1 && beside == nil) {
		for i, sh := range e.shards {
			f(i, sh)
		}
		if beside != nil {
			beside()
		}
		return
	}
	var wg sync.WaitGroup
	if beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside()
		}()
	}
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			f(i, sh)
		}(i, sh)
	}
	wg.Wait()
}

// maxBusy returns the slowest shard's busy time for the phase that
// just ran — the phase's contribution to the critical path.
func (e *Engine) maxBusy() time.Duration {
	var m time.Duration
	for _, sh := range e.shards {
		if sh.busy > m {
			m = sh.busy
		}
	}
	return m
}

// Err returns the engine's first failure: a round that could not
// commit or ledger, else the first shard engine's latched background
// error (a bundle lost after exhausting flush retries).
func (e *Engine) Err() error {
	if e.err != nil {
		return e.err
	}
	for _, sh := range e.shards {
		if err := sh.eng.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot aggregates every shard's engine statistics into one global
// view (query.SumStats).
func (e *Engine) Snapshot() core.Stats { return query.SumStats(e.engs) }

// ShardSnapshot captures shard i's statistics alone.
func (e *Engine) ShardSnapshot(i int) core.Stats { return e.shards[i].eng.Snapshot() }

// RegisterMetrics exposes the sharded engine on reg: the shard-level
// families (rounds, cross-shard resolutions, per-shard committed
// messages, per-phase critical-path gauges — OBSERVABILITY.md), every
// shard engine's full provex_* instrument set labeled shard="i", so
// per-shard series coexist in one registry and roll up with sum by (),
// and the node's message index once, unlabeled. Durable series are
// registered by Durable, keeping the memory/durable split of the
// serial layers.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("provex_shard_rounds_total",
		"Two-phase rounds resolved by the sharded ingest engine (DESIGN.md section 2i).", &e.rounds)
	reg.RegisterCounter("provex_shard_cross_resolutions_total",
		"Messages the best-shard-wins reduce committed to a shard other than their indicant-hash home (cross-shard bundle matches).", &e.cross)
	for _, p := range []struct {
		phase string
		c     *metrics.Counter
	}{
		{"probe", &e.spanProbe},
		{"reduce", &e.spanReduce},
		{"commit", &e.spanCommit},
	} {
		c := p.c
		reg.RegisterGaugeFunc("provex_shard_span_seconds",
			"Accumulated critical path per round phase: slowest shard's probe, serial reduce, slowest shard's commit (the denominator of span throughput).",
			func() float64 { return float64(c.Value()) / 1e9 }, "phase", p.phase)
	}
	for i, sh := range e.shards {
		label := strconv.Itoa(i)
		reg.RegisterCounter("provex_shard_messages_total",
			"Messages committed per shard by the phase-2 apply (imbalance = skewed indicant distribution).",
			&sh.msgs, "shard", label)
		sh.eng.RegisterMetrics(reg, "shard", label)
	}
	if e.proc != nil {
		e.proc.RegisterMetrics(reg)
	}
}
