// Package core assembles the provenance-based indexing engine of the
// paper's Figure 4: an in-memory processing unit (summary index +
// bundle pool) in front of an on-disk bundle storage back-end.
//
// Engine.Insert is Algorithm 1 end to end: fetch candidate bundles from
// the summary index, pick the best by Equation 1, allocate the message
// inside the chosen bundle by Algorithm 2 / Equation 5 (or open a new
// bundle), update the summary index, and run the periodic Algorithm 3
// pool refinement. Each stage is timed separately, which is what the
// paper's Figure 13 plots.
package core

import (
	"fmt"
	"math"
	"time"

	"provex/internal/bundle"
	"provex/internal/metrics"
	"provex/internal/pool"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/stream"
	"provex/internal/sumindex"
	"provex/internal/termdict"
	"provex/internal/trace"
	"provex/internal/tweet"
)

// Config assembles an engine. The three method variants of the paper's
// Section VI-A map onto it as:
//
//   - Full Index:    FullIndexConfig()    — no pool limits at all;
//   - Partial Index: PartialIndexConfig() — pool limit + refinement;
//   - Bundle Limit:  BundleLimitConfig()  — partial + max bundle size.
type Config struct {
	Pool          pool.Config
	MsgWeights    score.MessageWeights
	BundleWeights score.BundleWeights

	// FlushRetry bounds the degraded mode entered when the disk
	// back-end errors: failed bundle flushes are parked and retried
	// instead of dropped.
	FlushRetry FlushRetryOptions
}

// FlushRetryOptions bound the flush retry queue. A bundle whose flush
// to the disk back-end fails is parked and re-attempted on later
// refinement ticks with exponential backoff; only when MaxAttempts is
// exhausted (or the queue overflows) is it dropped — and that loss is
// counted and latched as the engine's background error.
type FlushRetryOptions struct {
	// MaxAttempts is the number of Put attempts per bundle before it is
	// dropped; 0 means DefaultFlushMaxAttempts. Set very high to never
	// give up while memory allows.
	MaxAttempts int
	// MaxQueue caps parked bundles; beyond it the oldest is dropped
	// (bounded memory in degraded mode). 0 means DefaultFlushMaxQueue.
	MaxQueue int
}

// Flush retry defaults: 8 attempts spaced exponentially over refine
// ticks, at most 1024 parked bundles.
const (
	DefaultFlushMaxAttempts = 8
	DefaultFlushMaxQueue    = 1024
)

// FullIndexConfig is the unlimited baseline whose output the paper
// treats as provenance ground truth.
func FullIndexConfig() Config {
	return Config{
		MsgWeights:    score.DefaultMessageWeights(),
		BundleWeights: score.DefaultBundleWeights(),
	}
}

// PartialIndexConfig bounds the pool at maxBundles with the default
// refinement policy (the paper's "Partial Index" with limit 10k).
func PartialIndexConfig(maxBundles int) Config {
	cfg := FullIndexConfig()
	p := pool.DefaultConfig()
	p.MaxBundles = maxBundles
	p.LowerLimit = maxBundles / 4
	// Scale the periodic pool check with the pool so overshoot between
	// checks stays a bounded fraction of the limit at any scale.
	p.CheckEvery = clamp(maxBundles/8, 64, 4096)
	cfg.Pool = p
	return cfg
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BundleLimitConfig adds the bundle size constraint on top of the
// partial index (the paper's "Bundle Limit" variant).
func BundleLimitConfig(maxBundles, maxBundleSize int) Config {
	cfg := PartialIndexConfig(maxBundles)
	cfg.Pool.MaxBundleSize = maxBundleSize
	return cfg
}

// InsertResult reports where a message landed.
type InsertResult struct {
	Bundle  bundle.ID
	Node    int
	Created bool // a fresh bundle was opened for the message
	Conn    score.ConnectionType
}

// EdgeFunc observes each provenance connection as it is discovered.
// The evaluation harness collects the per-method edge sets here.
type EdgeFunc func(parent, child tweet.ID, conn score.ConnectionType)

// Stats is a point-in-time engine snapshot.
type Stats struct {
	Messages       int64
	BundlesCreated int64
	BundlesLive    int
	EdgesCreated   int64
	ConnCounts     map[string]int64

	MemBundles       int64 // analytic bytes of the live bundles, plus the pool table that holds them
	MemIndex         int64 // analytic bytes in the summary index
	MessagesInMemory int64

	// PrepareTime accumulates the tokenize/precompute stage. Behind a
	// Service it runs on the log stage, beside the apply stage, so the
	// four stage times sum to CPU time, not wall time.
	PrepareTime time.Duration
	MatchTime   time.Duration
	PlaceTime   time.Duration
	RefineTime  time.Duration

	// Flush durability counters: retry attempts after a failed flush,
	// bundles permanently dropped (data loss, also latched by Err), and
	// bundles currently parked awaiting retry (non-zero = the engine is
	// in degraded mode).
	FlushRetries int64
	FlushDropped int64
	FlushParked  int

	Pool pool.Stats
}

// Degraded reports whether the engine is operating in degraded mode:
// bundles are parked awaiting a storage retry, or have been lost.
func (s Stats) Degraded() bool { return s.FlushParked > 0 || s.FlushDropped > 0 }

// MemTotal is the full in-memory footprint estimate — Figure 11(a)'s
// metric.
func (s Stats) MemTotal() int64 { return s.MemBundles + s.MemIndex }

// Engine is the provenance indexing engine. Not safe for concurrent
// use: the paper's pipeline is a single temporally ordered stream, so
// one goroutine must own every Insert/InsertPrepared call. Concurrency
// lives around that invariant, not inside it — Prepare is pure and runs
// on pipeline.Service's log stage, one goroutine ahead of the apply
// loop (see DESIGN.md §2c).
//
// The sharded engine (internal/shard, DESIGN.md §2i) runs N Engines
// side by side, one goroutine per shard per phase; the contract is
// per-engine: a given Engine is still owned by exactly one goroutine at
// a time. The probe passes (Seed, Resume, and the oracle Probe) are the
// read-only exception — they may run on one shard's engine while
// sibling engines insert, because they touch only that engine's own
// pool/index state plus atomic counters.
type Engine struct {
	cfg   Config
	pool  *pool.Pool
	index *sumindex.Index
	store *storage.Store // optional; nil drops flushed bundles
	clock stream.Clock

	onEdge EdgeFunc

	prepTimer   metrics.StageTimer
	matchTimer  metrics.StageTimer
	placeTimer  metrics.StageTimer
	refineTimer metrics.StageTimer

	messages   metrics.Counter
	edges      metrics.Counter
	connCounts [5]metrics.Counter

	// Pruning instrumentation (DESIGN.md §2g): how much Eq. 1 / Eq. 5
	// work the sublinear hot paths avoided. All atomic; the histogram is
	// internally locked.
	placeScored    metrics.Counter
	placeSkipped   metrics.Counter
	placeEarlyStop metrics.Counter
	matchPruned    metrics.Counter
	placeSkipHist  *metrics.Histogram

	// Candidate-fetch work counts (sumindex.Candidates): posting entries
	// walked and distinct candidates produced. They depend only on the
	// stream and the config, so two builds that report the same totals
	// did the same fetch work.
	matchPostings metrics.Counter
	matchFetched  metrics.Counter
	// matchScored counts full Eq. 1 evaluations (score.BundleSim) in the
	// match loop, probes included: the work pruning did not avoid.
	matchScored metrics.Counter

	// joinFloor is the least Eq. 1 score that joins a bundle: the next
	// float above the threshold, so "at or above the floor" is "strictly
	// above the threshold" (the match loop's floors are inclusive).
	joinFloor float64

	// placeScratch is the engine-owned scratch of the pruned Algorithm 2
	// scan, shared across every bundle (inserts are single-goroutine).
	placeScratch *bundle.Scratch

	// forget is evict's scratch: the terms of the bundle leaving the pool.
	forget []termdict.ID

	// exhaustive selects the reference O(n) implementations of both hot
	// stages: every bundle node scored with Eq. 5 during placement, every
	// fetched candidate with Eq. 1 during match, no upper-bound pruning.
	// Only the differential test sets it; assignments are identical
	// either way, which is what that test pins.
	exhaustive bool

	// refFetch, when set, replaces the summary index's hard-indicant
	// fetch. Only the differential test sets it, to the uncapped
	// reference that walks every class, and it pairs it with
	// exhaustive, so the FetchInfo slack it does not report is unused.
	refFetch func(score.Doc) []sumindex.Candidate

	// gHist observes the Eq. 6 score of ranked pool evictions (wired
	// into the pool at construction, exposed via RegisterMetrics).
	gHist *metrics.Histogram

	flushErr error // first permanent storage loss, surfaced by Err

	// Flush retry queue: bundles whose Put to the disk back-end failed,
	// parked for re-attempts on later refinement ticks (see evict).
	retryq       []flushRetry
	flushTick    int64
	flushRetries metrics.Counter
	flushDropped metrics.Counter

	// onFlush observes each bundle successfully persisted to the disk
	// back-end (archive indexing). Nil when unused.
	onFlush func(*bundle.Bundle)

	// tracer records sampled ingest decisions and refinement verdicts;
	// nil when tracing is off (trace.Recorder methods accept a nil
	// receiver, so the hot path pays one branch, no indirection).
	tracer *trace.Recorder
}

// flushRetry is one parked bundle awaiting a storage retry.
type flushRetry struct {
	b        *bundle.Bundle
	attempts int   // failed Put attempts so far
	due      int64 // flushTick at which the next attempt runs
}

// New builds an engine. store may be nil (flushed bundles are then
// discarded — sufficient for pure indexing experiments); onEdge may be
// nil. It panics on Eq. 1 weights under which keywords and freshness
// alone could pass the join threshold: candidate fetch walks only the
// hard-indicant postings, which is lossless only when they cannot
// (score.BundleWeights.HardIndicantsRequired).
func New(cfg Config, store *storage.Store, onEdge EdgeFunc) *Engine {
	if !cfg.BundleWeights.HardIndicantsRequired() {
		panic(fmt.Sprintf("core: Eq. 1 keyword %v + time %v can pass threshold %v without a hard indicant",
			cfg.BundleWeights.Keyword, cfg.BundleWeights.Time, cfg.BundleWeights.Threshold))
	}
	if onEdge == nil {
		onEdge = func(tweet.ID, tweet.ID, score.ConnectionType) {}
	}
	e := &Engine{cfg: cfg, index: sumindex.New(), store: store, onEdge: onEdge,
		joinFloor: math.Nextafter(cfg.BundleWeights.Threshold, math.Inf(1))}
	e.pool = pool.New(cfg.Pool, e.evict)
	// Milli-G buckets from 0.1 G to 1000 G (G ≈ hours of quiet age).
	e.gHist = metrics.NewHistogram(
		100, 250, 500, 1_000, 2_500, 5_000, 10_000,
		25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000)
	e.pool.SetGScoreHistogram(e.gHist)
	e.placeSkipHist = metrics.NewPow2Histogram(12)
	e.placeScratch = bundle.NewScratch()
	return e
}

// RegisterMetrics exposes the engine's always-on instruments on reg
// under canonical provex_* names (documented in OBSERVABILITY.md).
// Every instrument registered here is atomic (counters, stage timers)
// or internally locked (the G-score histogram), so a scrape may render
// them while the single ingest goroutine writes. State that is NOT
// atomically readable — pool occupancy, memory estimates, the flush
// retry queue — is intentionally absent: the HTTP layer exports it from
// lock-guarded Stats snapshots instead (see server.New).
//
// labels are extra key/value pairs baked into every series — the
// sharded engine registers each shard's engine with ("shard", "i") so
// per-shard series coexist in one registry and roll up with sum by ().
func (e *Engine) RegisterMetrics(reg *metrics.Registry, labels ...string) {
	with := func(extra ...string) []string { return append(append([]string(nil), labels...), extra...) }
	reg.RegisterCounter("provex_ingest_messages_total",
		"Messages ingested (Algorithm 1 applications).", &e.messages, labels...)
	reg.RegisterCounter("provex_ingest_edges_total",
		"Provenance edges discovered between messages.", &e.edges, labels...)
	for c := score.ConnText; c <= score.ConnRT; c++ {
		reg.RegisterCounter("provex_ingest_connections_total",
			"Provenance edges by connection type (Table II).",
			&e.connCounts[c], with("conn", c.String())...)
	}
	for _, s := range []struct {
		stage string
		t     *metrics.StageTimer
	}{
		{"prepare", &e.prepTimer},
		{"match", &e.matchTimer},
		{"place", &e.placeTimer},
		{"refine", &e.refineTimer},
	} {
		reg.RegisterTimer("provex_ingest_stage_seconds",
			"Cumulative ingest time per Algorithm 1 stage (Figure 13's match/placement/refinement split; prepare is the tokenize stage the Service runs ahead of the writer).",
			s.t, with("stage", s.stage)...)
	}
	reg.RegisterCounter("provex_place_nodes_scored_total",
		"Bundle nodes scored with Eq. 5 during message placement.", &e.placeScored, labels...)
	reg.RegisterCounter("provex_place_nodes_skipped_total",
		"Bundle nodes the pruned placement skipped (node-index pruning + score-bound early stop; DESIGN.md section 2g).", &e.placeSkipped, labels...)
	reg.RegisterCounter("provex_place_early_stop_total",
		"Placements whose time-bounded candidate scan stopped on its score bound before the posting lists ran out (early-termination rate = this / provex_ingest_messages_total).", &e.placeEarlyStop, labels...)
	reg.RegisterCounter("provex_match_candidates_pruned_total",
		"Match candidates skipped before Eq. 1 scoring because their score upper bound could not beat the running best.", &e.matchPruned, labels...)
	reg.RegisterCounter("provex_match_postings_walked_total",
		"Summary-index posting entries walked by candidate fetch (Algorithm 1 step 1; URL, hashtag and re-shared-user lists only, fanout-cut lists not walked).", &e.matchPostings, labels...)
	reg.RegisterCounter("provex_match_candidates_fetched_total",
		"Distinct candidate bundles produced by candidate fetch; every one reaches the Eq. 1 loop.", &e.matchFetched, labels...)
	reg.RegisterCounter("provex_match_candidates_scored_total",
		"Full Eq. 1 evaluations (score.BundleSim) in the match loop, sharded probes included: fetched candidates the upper bound did not prune whose bundle was still open.", &e.matchScored, labels...)
	for k := range sumindex.NumInsertKinds {
		reg.RegisterCounter("provex_sumindex_inserts_total",
			"Postings the summary index added, by where they went: inline (a term's first bundle), promote (its second, which makes a list), tail and mid (into a list).",
			e.index.Inserts(k), with("kind", k.String())...)
	}
	reg.RegisterHistogram("provex_place_skipped_nodes",
		"Distribution of nodes skipped per placement by the pruned Algorithm 2 scan.",
		e.placeSkipHist, 1, labels...)
	reg.RegisterCounter("provex_flush_retries_total",
		"Re-attempted bundle flushes after a storage failure.", &e.flushRetries, labels...)
	reg.RegisterCounter("provex_flush_dropped_total",
		"Bundles permanently lost after exhausting flush retries.", &e.flushDropped, labels...)
	reg.RegisterHistogram("provex_pool_eviction_g_score",
		"Equation 6 eviction score G(B) of ranked refinement victims (unit: G, i.e. hours of quiet age + 1/|B|).",
		e.gHist, 1000, labels...)
}

// SetTracer attaches a decision recorder: sampled inserts capture the
// full Eq. 1 candidate scoring, the Algorithm 2 parent choice and the
// Table II connection type, and every Algorithm 3 refinement verdict
// is appended to the recorder's audit ring. Must be set before ingest
// starts; nil detaches.
func (e *Engine) SetTracer(r *trace.Recorder) {
	e.tracer = r
	if r == nil {
		e.pool.SetRefineObserver(nil)
		return
	}
	e.pool.SetRefineObserver(func(b bundle.Ref, reason pool.EvictReason, ageHours, g float64, rank int) {
		r.RecordRefine(trace.RefineEvent{
			Now:      tweet.Time(e.clock.Now()),
			Bundle:   uint64(b.ID()),
			Reason:   reason.String(),
			Size:     b.Size(),
			AgeHours: ageHours,
			GScore:   g,
			Rank:     rank,
			Flushed:  reason != pool.EvictAgingTiny,
		})
	})
}

// evict is the pool's eviction hook: drop the bundle's postings from
// the summary index and persist flushed bundles to the back-end. A
// failed Put does not lose the bundle — it is parked in the flush
// retry queue and re-attempted on later refinement ticks (degraded
// mode); only exhausting FlushRetryOptions drops it, counted and
// latched as the engine's background error. A bundle in the record form
// that is flushed leaves as a Bundle built from its record, which stores
// the bytes the Bundle would have.
func (e *Engine) evict(r bundle.Ref, _ pool.EvictReason, flush bool) {
	e.forget = r.AppendTerms(e.forget[:0])
	e.index.Forget(r.ID(), e.forget)
	if flush && e.store != nil {
		b := r.Expand()
		if err := e.store.Put(b); err != nil {
			e.park(b, err)
			return
		}
		if e.onFlush != nil {
			e.onFlush(b)
		}
	}
}

// park enqueues a bundle whose flush failed, evicting the oldest entry
// if the queue is at capacity (bounded memory in degraded mode).
func (e *Engine) park(b *bundle.Bundle, cause error) {
	maxQueue := e.cfg.FlushRetry.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultFlushMaxQueue
	}
	for len(e.retryq) >= maxQueue {
		e.drop(e.retryq[0].b, fmt.Errorf("retry queue full (cause: %w)", cause))
		e.retryq = e.retryq[1:]
	}
	e.retryq = append(e.retryq, flushRetry{b: b, attempts: 1, due: e.flushTick + 1})
}

// drop records the permanent loss of a bundle that could not be
// flushed: counted, and latched as the engine's background error.
func (e *Engine) drop(b *bundle.Bundle, cause error) {
	e.flushDropped.Inc()
	if e.flushErr == nil {
		e.flushErr = fmt.Errorf("core: flush bundle %d dropped: %w", b.ID(), cause)
	}
}

// processRetries re-attempts parked flushes. When force is set, backoff
// schedules are ignored and every parked bundle is tried once (drain
// before checkpoint/shutdown); otherwise only entries due at the
// current flush tick run, with exponential backoff between attempts.
func (e *Engine) processRetries(force bool) {
	if len(e.retryq) == 0 || e.store == nil {
		return
	}
	maxAttempts := e.cfg.FlushRetry.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultFlushMaxAttempts
	}
	keep := e.retryq[:0]
	for _, r := range e.retryq {
		if !force && r.due > e.flushTick {
			keep = append(keep, r)
			continue
		}
		e.flushRetries.Inc()
		err := e.store.Put(r.b)
		if err == nil {
			if e.onFlush != nil {
				e.onFlush(r.b)
			}
			continue
		}
		r.attempts++
		if r.attempts > maxAttempts {
			e.drop(r.b, err)
			continue
		}
		// Exponential backoff in refinement ticks, capped at 64.
		backoff := int64(1) << min(r.attempts, 6)
		r.due = e.flushTick + backoff
		keep = append(keep, r)
	}
	e.retryq = keep
}

// DrainFlushRetries attempts every parked flush immediately, returning
// an error when bundles remain parked (the store is still failing).
// The durability layer calls it before checkpoints and on shutdown.
func (e *Engine) DrainFlushRetries() error {
	e.processRetries(true)
	if n := len(e.retryq); n > 0 {
		return fmt.Errorf("core: %d bundles still parked for flush retry", n)
	}
	return e.flushErr
}

// SetFlushObserver registers a hook invoked after each bundle is
// persisted to the disk back-end. The query module's archive index
// subscribes here. Must be set before ingest starts.
func (e *Engine) SetFlushObserver(fn func(*bundle.Bundle)) { e.onFlush = fn }

// Err returns the first permanent background failure (a bundle lost
// after exhausting flush retries), nil when healthy. Transient storage
// failures do not latch here — they park bundles in the retry queue,
// visible as Stats.FlushParked.
func (e *Engine) Err() error { return e.flushErr }

// Prepared is the output of the pure precompute stage of Algorithm 1:
// the message with every indicant resolved to a term-dictionary ID (and
// the stage's measured cost, charged to the engine's prepare timer at
// apply time). Prepare touches no engine state — the dictionary it
// resolves through is process-wide and safe for concurrent use — so any
// number of messages can be prepared concurrently; InsertPrepared then
// applies them strictly in stream order.
type Prepared struct {
	Doc  score.Doc
	Msg  *tweet.Message // the input, which the WAL logs; a batch buffer is cleared of it before reuse
	cost time.Duration
}

// Prepare runs the tokenize/resolve precompute for m: every indicant
// once, through the term dictionary. Safe for concurrent use.
func Prepare(m *tweet.Message) Prepared {
	start := time.Now()
	doc := score.NewDoc(m)
	return Prepared{Doc: doc, Msg: m, cost: time.Since(start)}
}

// Insert runs Algorithm 1 for one message and returns where it landed.
// Messages must arrive in stream (date) order.
func (e *Engine) Insert(m *tweet.Message) InsertResult {
	return e.InsertPrepared(Prepare(m))
}

// InsertPrepared is the sequential apply stage of Algorithm 1: match,
// place, index update and periodic refinement for one prepared message.
// Prepared messages must be applied in stream (date) order, whichever
// goroutine prepared them.
func (e *Engine) InsertPrepared(p Prepared) InsertResult {
	doc := p.Doc
	e.prepTimer.Observe(p.cost)
	e.clock.AdvanceTo(doc.Date())
	e.messages.Inc()

	// Decision tracing: nil unless this message is sampled. Everything
	// below guards on td so the untraced path stays allocation-free.
	td := e.tracer.Begin(uint64(doc.ID()))
	if td != nil {
		td.User = termdict.Term(doc.User())
		td.Date = doc.Time()
	}

	// Step 1+2a: fetch candidates and pick the best bundle by Eq. 1.
	var chosen bundle.Ref
	e.matchTimer.Time(func() {
		chosen = e.matchBundle(doc, td)
	})

	// Step 2b: allocate inside the bundle (Algorithm 2) or open a new
	// one.
	var res InsertResult
	var grew int64
	e.placeTimer.Time(func() {
		// A new bundle's message is its root, placed with nothing scored;
		// the pool holds the bundle as that message's record.
		node := bundle.Node{Doc: doc, Parent: bundle.NoParent, Conn: score.ConnNone}
		var ps bundle.PlaceStats
		if chosen.IsZero() {
			chosen = e.pool.Create(doc)
			res.Created = true
		} else {
			b := e.pool.Promote(chosen)
			before := b.MemBytes()
			res.Node, ps = e.place(b, doc, td)
			grew = b.MemBytes() - before
			node = b.Nodes()[res.Node]
			if node.Parent != bundle.NoParent {
				parent := b.Nodes()[node.Parent].Doc.ID()
				e.edges.Inc()
				e.connCounts[node.Conn].Inc()
				e.onEdge(parent, doc.ID(), node.Conn)
			}
			if td != nil {
				td.ParentScore = b.EdgeScore(e.cfg.MsgWeights, res.Node)
			}
			chosen = b.Ref()
		}
		if !e.exhaustive {
			e.placeScored.Add(int64(ps.Scored))
			skipped := int64(ps.Skipped())
			e.placeSkipped.Add(skipped)
			e.placeSkipHist.Observe(skipped)
			if ps.EarlyStop {
				e.placeEarlyStop.Inc()
			}
		}
		res.Bundle = chosen.ID()
		res.Conn = node.Conn
		if td != nil {
			td.NewBundle = res.Created
			td.Bundle = uint64(res.Bundle)
			if !res.Created {
				td.Winner = uint64(res.Bundle)
			}
			td.Node = res.Node
			td.Parent = int(node.Parent)
			td.Conn = node.Conn.String()
			td.ParentsPruned = ps.Skipped()
		}
	})

	// Step 3: update the summary index with the new message's indicants.
	e.index.Observe(chosen.ID(), doc)

	e.tracer.Commit(td)

	// Periodic maintenance (Section V-B), plus the flush retry queue:
	// parked bundles re-attempt storage on the same cadence.
	if e.pool.NoteInsert(chosen, grew) {
		e.refineTimer.Time(func() {
			e.pool.MaybeRefine(e.clock.Now())
		})
		e.flushTick++
		e.processRetries(false)
	}
	return res
}

// place is Algorithm 2: it allocates doc inside b and returns the new
// node's index with the placement's work, the reference scan's when the
// differential test selected it (its work is not counted). A sampled
// decision td receives every parent candidate scored.
func (e *Engine) place(b *bundle.Bundle, doc score.Doc, td *trace.Decision) (int, bundle.PlaceStats) {
	var obs bundle.ParentObserver
	if td != nil {
		obs = func(pc bundle.ParentCandidate) {
			td.Parents = append(td.Parents, trace.ParentScore{
				Node:    pc.Node,
				MsgID:   uint64(pc.Msg),
				Conn:    pc.Conn.String(),
				U:       pc.Parts.U,
				H:       pc.Parts.H,
				T:       pc.Parts.T,
				Keyword: pc.Parts.Keyword,
				RT:      pc.Parts.RT,
				Total:   pc.Parts.Total,
			})
		}
	}
	if e.exhaustive {
		return b.AddExhaustive(e.cfg.MsgWeights, doc, obs), bundle.PlaceStats{}
	}
	return b.AddScratch(e.cfg.MsgWeights, doc, obs, e.placeScratch)
}

// ProbeResult is the outcome of a read-only Eq. 1 match probe. Created
// and FirstMsg identify the winning bundle by its creation event (the
// date and ID of the message that opened it) — a shard-independent
// total order the sharded router uses to break exact score ties the
// same way the serial engine's lowest-bundle-ID rule does (bundle IDs
// are allocated in creation order, so "lowest ID" and "earliest
// creation" coincide; see DESIGN.md §2i).
//
// From a floored probe (Resume), OK means a bundle scored at or above
// the round's floor; an engine whose best lies below the floor reports
// !OK, because another engine already holds a better one.
type ProbeResult struct {
	Bundle   bundle.ID
	Score    float64
	Created  int64    // date of the bundle's first message, unix nanoseconds
	FirstMsg tweet.ID // ID of the bundle's first message
	OK       bool     // a bundle scored strictly above the join threshold (and at or above the floor)
}

// probeResult reports a match's winner, !OK when there is none.
func probeResult(m match) ProbeResult {
	if m.best.IsZero() {
		return ProbeResult{}
	}
	first := m.best.First()
	return ProbeResult{
		Bundle:   m.best.ID(),
		Score:    m.score,
		Created:  first.Date(),
		FirstMsg: first.ID(),
		OK:       true,
	}
}

// Probe runs the match stage of Algorithm 1 without mutating anything:
// candidate fetch plus the serial Eq. 1 scoring loop, returning the
// best open bundle strictly above the join threshold. It is the
// unfloored probe, and only tests call it: it is the oracle of Seed and
// Resume, whose reduce must pick what the reduce over Probe picks.
//
// Probe may run concurrently with other engines' inserts but not with
// this engine's own mutations (it shares the summary index's candidate
// scratch buffer with matchBundle). The counters it bumps are atomic.
func (e *Engine) Probe(doc score.Doc) ProbeResult {
	cands, fetch := e.fetchCandidates(doc)
	m, _ := e.matchRange(doc, cands, fetch, match{score: e.joinFloor}, false, nil)
	return probeResult(m)
}

// RoundProbe is one engine's scratch for a sharded round's floored
// probe (DESIGN.md §2i). Seed fills it, one entry per batched message
// in batch order; Resume reads it. Per message it keeps the seed — the
// first candidate, in fetch order, that cleared the threshold — and,
// for a seeded message, the candidates after it, unscored, with the
// fetch's skipped-list slack. That is what makes the floored probe one
// fetch per message with no candidate scored twice. The zero value is
// ready; Reset reuses the buffers from round to round.
type RoundProbe struct {
	seeds []seed
	rest  []sumindex.Candidate // the seeded messages' unscored candidates, back to back
}

// seed is one message's seed pass on one engine.
type seed struct {
	m      match // the seed bundle and its score; no bundle when none cleared the threshold
	fetch  sumindex.FetchInfo
	lo, hi int // the candidates after the seed: rest[lo:hi]
}

// Reset empties the probe for the next round.
func (p *RoundProbe) Reset() { p.seeds, p.rest = p.seeds[:0], p.rest[:0] }

// Seed returns message i's seed score, 0 when none of this engine's
// candidates cleared the threshold.
func (p *RoundProbe) Seed(i int) float64 {
	if p.seeds[i].m.best.IsZero() {
		return 0
	}
	return p.seeds[i].m.score
}

// Seed is the first pass of a floored probe: one candidate fetch for
// doc, scored in fetch order up to the first bundle that clears the
// join threshold. It appends doc's seed to p and returns its score, 0
// when no candidate qualifies. Seeds are real Eq. 1 scores, so the
// largest over all engines is a floor no winner lies below. Like Probe
// it only reads this engine.
func (e *Engine) Seed(p *RoundProbe, doc score.Doc) float64 {
	cands, fetch := e.fetchCandidates(doc)
	m, at := e.matchRange(doc, cands, fetch, match{score: e.joinFloor}, true, nil)
	s := seed{m: m}
	if !m.best.IsZero() {
		lo := len(p.rest)
		p.rest = append(p.rest, cands[at+1:]...)
		s.fetch, s.lo, s.hi = fetch, lo, len(p.rest)
	}
	p.seeds = append(p.seeds, s)
	return p.Seed(len(p.seeds) - 1)
}

// Resume is the second pass of a floored probe for the i-th message
// Seed saw, under floor, the largest seed over all engines. An engine
// without a seed reports !OK: it could not have won. Otherwise the
// Eq. 1 loop continues after the seed candidate, pruning what cannot
// reach floor and accepting scores at or above it; the seed itself is
// the running best when it is the floor. The result is Probe's
// whenever Probe's score is at least floor, and !OK otherwise, so the
// reduce picks the same winner (DESIGN.md §2i gives the argument).
func (e *Engine) Resume(p *RoundProbe, i int, doc score.Doc, floor float64) ProbeResult {
	s := p.seeds[i]
	if s.m.best.IsZero() {
		return ProbeResult{}
	}
	m := match{score: floor}
	if s.m.score == floor {
		m = s.m
	}
	m, _ = e.matchRange(doc, p.rest[s.lo:s.hi], s.fetch, m, false, nil)
	return probeResult(m)
}

// AdvanceClock moves the engine's simulated clock forward to date, in
// unix nanoseconds (older dates are ignored). The sharded commit phase calls it so shards
// that won no message in a round still age their pools in lockstep with
// the stream — Algorithm 3 refinement and trending decay stay globally
// timed.
func (e *Engine) AdvanceClock(date int64) { e.clock.AdvanceTo(date) }

// fetchCandidates is Algorithm 1 step 1: the hit-ranked candidates
// from the hard-indicant postings and the fetch's skipped-list slack.
func (e *Engine) fetchCandidates(doc score.Doc) ([]sumindex.Candidate, sumindex.FetchInfo) {
	if e.refFetch != nil {
		return e.refFetch(doc), sumindex.FetchInfo{}
	}
	cands := e.index.Candidates(doc)
	fetch := e.index.LastFetch()
	e.matchPostings.Add(int64(fetch.Postings))
	e.matchFetched.Add(int64(len(cands)))
	return cands, fetch
}

// matchBundle scores the summary-index candidates with Eq. 1 and
// returns the best open bundle above the threshold, the zero Ref when
// none qualifies.
func (e *Engine) matchBundle(doc score.Doc, td *trace.Decision) bundle.Ref {
	cands, fetch := e.fetchCandidates(doc)
	var sink *[]trace.CandidateScore
	if td != nil {
		td.CandidatesFetched = len(cands)
		td.Threshold = e.cfg.BundleWeights.Threshold
		sink = &td.Candidates
	}
	m, _ := e.matchRange(doc, cands, fetch, match{score: e.joinFloor}, false, sink)
	return m.best
}

// match is the running state of the Eq. 1 loop: the best bundle so far
// and its score or, before any bundle qualifies, the floor — the least
// score that qualifies.
type match struct {
	best  bundle.Ref
	score float64
}

// beats reports whether a bundle scoring s takes the lead: a higher
// score, or an equal one with a lower bundle ID — and, before any
// bundle qualifies, any score at or above the floor.
//
//provex:hotpath runs twice per match candidate
func (m match) beats(s float64, id bundle.ID) bool {
	return s > m.score || (s == m.score && (m.best.IsZero() || id < m.best.ID()))
}

// matchRange is the Eq. 1 scoring loop over a candidate list, from the
// running state m: the best open bundle that beats it, ties broken
// toward the lowest bundle ID. A serial match starts from the join
// floor (the least score strictly above the threshold); a sharded
// round's resume pass starts from its cross-shard floor, or from its
// seed. With first set the loop stops at the first candidate that takes
// the lead and also returns that candidate's index (the seed pass);
// otherwise the index is len(cands). It only reads pool and bundle
// state (its counters are atomic), which is what lets the probe passes
// run it beside sibling shards' inserts. A non-nil sink receives one
// CandidateScore per candidate (skipped ones included), carrying the
// score that was compared, so tracing never changes which bundle wins.
//
// Unless the differential test selected the reference loop, each
// candidate is first tested against its Eq. 1 upper bound
// (score.BundleSimCeil over the exact hard-indicant hit counts, fetch's
// skipped-list slack and the keyword and freshness ceilings) and
// skipped when that bound does not beat the running state. Since the
// true score never exceeds the bound, a pruned candidate could never
// have been selected, so the result is identical to the exhaustive
// loop's.
//
//provex:hotpath Eq. 1 scoring loop runs per ingested message
func (e *Engine) matchRange(doc score.Doc, cands []sumindex.Candidate, fetch sumindex.FetchInfo, m match, first bool, sink *[]trace.CandidateScore) (match, int) {
	prune := !e.exhaustive
	pruned, scored := int64(0), int64(0)
	at := len(cands)
	for i, c := range cands {
		if prune {
			ub := score.BundleSimCeil(e.cfg.BundleWeights, int(c.URLHits), int(c.TagHits), c.RTHit,
				fetch.SkippedURL, fetch.SkippedTag, fetch.SkippedRT)
			if !m.beats(ub, c.ID) {
				pruned++
				if sink != nil {
					*sink = append(*sink, trace.CandidateScore{
						Bundle: uint64(c.ID), Hits: c.Hits(), Skipped: "pruned",
					})
				}
				continue
			}
		}
		b := e.pool.Get(c.ID)
		if b.IsZero() || b.Closed() {
			if sink != nil {
				skip := "evicted"
				if !b.IsZero() {
					skip = "closed"
				}
				*sink = append(*sink, trace.CandidateScore{
					Bundle: uint64(c.ID), Hits: c.Hits(), Skipped: skip,
				})
			}
			continue
		}
		parts := score.BundleSim(e.cfg.BundleWeights, doc, b.Stats())
		scored++
		s := parts.Total
		if sink != nil {
			*sink = append(*sink, trace.CandidateScore{
				Bundle:    uint64(c.ID),
				Hits:      c.Hits(),
				URL:       parts.URL,
				Hashtag:   parts.Tag,
				Keyword:   parts.Keyword,
				RT:        parts.RT,
				Freshness: parts.Freshness,
				Total:     s,
			})
		}
		if m.beats(s, b.ID()) {
			m = match{best: b, score: s}
			if first {
				at = i
				break
			}
		}
	}
	if pruned > 0 {
		e.matchPruned.Add(pruned)
	}
	if scored > 0 {
		e.matchScored.Add(scored)
	}
	return m, at
}

// Pool exposes the live bundle pool (read-only use by query/eval).
func (e *Engine) Pool() *pool.Pool { return e.pool }

// SummaryIndex exposes the summary index (read-only use by query).
func (e *Engine) SummaryIndex() *sumindex.Index { return e.index }

// Store returns the disk back-end, nil when the engine runs memory-only.
func (e *Engine) Store() *storage.Store { return e.store }

// MessageWeights are the Eq. 5 weights the engine places messages
// under: a bundle's edge scores are derived from them
// (bundle.EdgeScore).
func (e *Engine) MessageWeights() score.MessageWeights { return e.cfg.MsgWeights }

// Now is the simulated current time (the newest message date seen), in
// unix nanoseconds; stream.NoDate before the first message.
func (e *Engine) Now() int64 { return e.clock.Now() }

// Bundle resolves id in the pool first, then the disk back-end. A live
// bundle in the record form comes back as a Bundle built from its
// record, which the pool does not hold.
func (e *Engine) Bundle(id bundle.ID) (*bundle.Bundle, error) {
	if r := e.pool.Get(id); !r.IsZero() {
		return r.Expand(), nil
	}
	if e.store != nil {
		return e.store.Get(id)
	}
	return nil, fmt.Errorf("core: bundle %d: %w", id, storage.ErrNotFound)
}

// Snapshot captures current statistics.
func (e *Engine) Snapshot() Stats {
	conn := make(map[string]int64, 4)
	for c := score.ConnText; c <= score.ConnRT; c++ {
		conn[c.String()] = e.connCounts[c].Value()
	}
	return Stats{
		Messages:         e.messages.Value(),
		BundlesCreated:   e.pool.Stats().Created,
		BundlesLive:      e.pool.Len(),
		EdgesCreated:     e.edges.Value(),
		ConnCounts:       conn,
		MemBundles:       e.pool.MemBytes() + e.pool.TableBytes(),
		MemIndex:         e.index.MemBytes(),
		MessagesInMemory: e.pool.MessageCount(),
		PrepareTime:      e.prepTimer.Total(),
		MatchTime:        e.matchTimer.Total(),
		PlaceTime:        e.placeTimer.Total(),
		RefineTime:       e.refineTimer.Total(),
		FlushRetries:     e.flushRetries.Value(),
		FlushDropped:     e.flushDropped.Value(),
		FlushParked:      len(e.retryq),
		Pool:             e.pool.Stats(),
	}
}
