// Package pipeline is the one concurrent deployment shell around the
// provenance engines: a single writer goroutine owns ingest (the
// paper's pipeline is inherently sequential — messages must enter in
// date order), while any number of query goroutines read under a
// shared lock. The demo server, live feeds and replicas talk to a
// Service, not to an engine.
//
// The Service drives its engine through Backend, which has exactly two
// implementations: the serial one New builds over a query.Processor and
// its optional Durable, and the sharded one shard.NewService builds
// over a shard.Engine. Everything that is not engine work — the queue
// and its back-pressure, parallel prepare, flush-on-idle, the
// checkpoint cadence and protocol, error latching, the
// provex_pipeline_* metrics — exists once, here.
//
// Checkpoints (the paper's stability requirement) run every
// CheckpointEvery applied messages and at Stop, in two steps: the
// mutating step (flush the buffered round, drain parked flushes) under
// the write lock, then the persisting step under the read lock, so
// queries stay answerable while state goes to disk.
//
// Concurrency contract: Submit is safe from any goroutine (it only
// feeds the queue); Start and Stop must not race each other; all query
// methods take the service's read lock and may run concurrently with
// ingest. RegisterMetrics may be called before Start; the series it
// registers are scrape-safe at any time — counters are atomics, and
// lock-guarded values are read through funcs that take the read lock
// per render.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/query"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// ErrClosed is returned by Submit after Stop.
var ErrClosed = errors.New("pipeline: service closed")

// Backend is the engine side of a Service. The Service supplies all
// synchronisation: Log and the reads of Pending and Applied happen on
// the writer goroutine, Apply, Flush and PrepareCheckpoint under the
// write lock, and everything else under the read lock, so an
// implementation needs no locking of its own.
type Backend interface {
	// Log makes m durable ahead of Apply. It runs outside the lock so an
	// fsync never blocks queries; a failure degrades durability but does
	// not stop ingest. Engines that log inside Apply return nil.
	Log(m *tweet.Message) error
	// Apply ingests one prepared message; it may only buffer it. An
	// error is the backend's to latch and report through Err.
	Apply(p core.Prepared) error
	// Flush applies whatever Apply buffered; Pending counts it.
	Flush() error
	Pending() int
	// Applied counts the messages in engine state, recovered ones
	// included.
	Applied() int

	// CanCheckpoint reports whether the two checkpoint steps do
	// anything. PrepareCheckpoint is the mutating step; Checkpoint only
	// reads engine state and writes it out.
	CanCheckpoint() bool
	PrepareCheckpoint() error
	Checkpoint() error

	Err() error
	Snapshot() core.Stats
	SearchBundles(q string, k int) []query.BundleHit
	SearchMessages(q string, k int) []query.MessageHit
	Trail(id bundle.ID) (string, error)
	Bundle(id bundle.ID) (*bundle.Bundle, error)
	Trending(k int) []trending.Topic
}

// Options configure a Service.
type Options struct {
	// Buffer is the ingest queue capacity; Submit blocks when full
	// (backpressure), so producers can never outrun memory. 0 uses 1024.
	Buffer int
	// CheckpointEvery writes a checkpoint once that many messages have
	// been applied since the last one; 0 leaves only the checkpoint at
	// Stop.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file of a serial service without
	// a Durable; required then when CheckpointEvery > 0.
	CheckpointPath string
	// Workers sets the number of concurrent prepare goroutines (keyword
	// extraction) feeding the single apply writer. 0 defers to the
	// engine's Parallel.Workers configuration; values <= 1 keep the
	// fully serial writer. Bundle assignment is identical either way —
	// the apply stage consumes prepared messages in submission order.
	Workers int
	// Durable, when set, switches a serial service to crash-safe ingest:
	// every message is WAL-appended before it is applied, and
	// checkpoints go through Durable.Checkpoint — drain parked flushes,
	// sync the store, atomic checkpoint, truncate the WAL. The Durable
	// must wrap the same engine the service's processor does;
	// CheckpointPath is ignored (Durable carries its own).
	Durable *Durable
}

// Service is a concurrent facade over a Backend. Create with New (or
// shard.NewService), feed with Submit, query with the Search/Trail
// methods, and shut down with Stop. The query methods work on a
// Service that was never started.
type Service struct {
	opts Options
	be   Backend

	mu sync.RWMutex // guards the backend's engine state

	in     chan *tweet.Message
	done   chan struct{}
	stopMu sync.Mutex
	closed bool // guarded by stopMu

	// base is the backend's applied count at construction (the recovered
	// prefix), immutable afterwards; lastCkpt is the applied count at the
	// last checkpoint attempt, owned by the writer goroutine.
	base     int
	lastCkpt int

	bgErr     error // guarded by mu
	ckptCount int   // guarded by mu

	// ckptTimer accumulates checkpoint wall time (both steps). Atomic,
	// so scrapes read it live.
	ckptTimer metrics.StageTimer
}

// RegisterMetrics exposes the service's instruments on reg under
// canonical provex_pipeline_* names (documented in OBSERVABILITY.md).
// The *Func series take the service's read lock at render time, so a
// scrape briefly queues behind the writer like any query does.
func (s *Service) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounterFunc("provex_pipeline_ingested_total",
		"Messages applied by the ingest writer since this process started (recovered messages excluded).",
		func() float64 { return float64(s.Ingested()) })
	reg.RegisterCounterFunc("provex_pipeline_checkpoints_total",
		"Durable checkpoints written by the ingest writer.",
		func() float64 { return float64(s.Checkpoints()) })
	reg.RegisterTimer("provex_pipeline_checkpoint_seconds",
		"Cumulative checkpoint time (round flush, retry drain, store sync, atomic write, WAL truncate).",
		&s.ckptTimer)
	reg.RegisterGaugeFunc("provex_pipeline_queue_depth",
		"Messages waiting in the ingest queue (capacity reached = producers blocked on backpressure).",
		func() float64 { return float64(len(s.in)) })
	reg.RegisterGaugeFunc("provex_pipeline_queue_capacity",
		"Capacity of the ingest queue.",
		func() float64 { return float64(cap(s.in)) })
}

// New builds a Service over the serial engine behind proc. Call Start
// before Submit.
func New(proc *query.Processor, opts Options) *Service {
	if opts.Workers == 0 {
		opts.Workers = proc.Engine().Config().Parallel.Workers
	}
	return NewWith(&serial{
		Processor: proc,
		dur:       opts.Durable,
		path:      opts.CheckpointPath,
		applied:   int(proc.Engine().Snapshot().Messages),
	}, opts)
}

// NewWith builds a Service over be. Of opts it reads Buffer,
// CheckpointEvery and Workers (0 meaning 1); the rest configure the
// backend New builds.
func NewWith(be Backend, opts Options) *Service {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	base := be.Applied()
	return &Service{
		opts:     opts,
		be:       be,
		in:       make(chan *tweet.Message, opts.Buffer),
		done:     make(chan struct{}),
		base:     base,
		lastCkpt: base,
	}
}

// Start launches the writer goroutine.
func (s *Service) Start() {
	go s.run()
}

// run is the writer loop: prepare (inline, or on a PreparePool that
// keeps apply order equal to submission order), apply, and flush a
// buffered round whenever the queue runs dry so a live tail never sits
// invisible and non-durable in a batch buffer.
func (s *Service) run() {
	defer close(s.done)
	next := func() (core.Prepared, bool) {
		m, ok := <-s.in
		if !ok {
			return core.Prepared{}, false
		}
		return core.Prepare(m), true
	}
	if s.opts.Workers > 1 {
		pool := NewPreparePool(s.opts.Workers, 0)
		go func() {
			for m := range s.in {
				pool.Dispatch(m)
			}
			pool.Close()
		}()
		next = pool.Next
	}
	for {
		p, ok := next()
		if !ok {
			break
		}
		s.apply(p)
		if len(s.in) == 0 {
			s.flush()
		}
	}
	s.flush()
	// Final checkpoint on drain, so Stop leaves durable state.
	if s.be.CanCheckpoint() && s.be.Applied() > s.base {
		s.checkpoint()
	}
}

// apply is the sequential half of ingest: make the message durable
// (WAL-before-apply), mutate engine state under the write lock and
// checkpoint on cadence.
func (s *Service) apply(p core.Prepared) {
	if err := s.be.Log(p.Doc.Msg); err != nil {
		// The message stays in memory but is not crash-safe: degraded
		// durability, latched and surfaced by Err while ingest continues
		// (availability over durability).
		s.fail("wal", err)
	}
	s.mu.Lock()
	err := s.be.Apply(p)
	s.mu.Unlock()
	// On error the backend has latched it; the queue keeps draining so
	// Stop does not deadlock producers.
	if err == nil {
		s.maybeCheckpoint()
	}
}

// flush applies a partial round so the live tail becomes visible (and,
// for a durable backend, acknowledged).
func (s *Service) flush() {
	if s.be.Pending() == 0 {
		return
	}
	s.mu.Lock()
	err := s.be.Flush()
	s.mu.Unlock()
	if err == nil {
		s.maybeCheckpoint()
	}
}

// maybeCheckpoint checkpoints once CheckpointEvery messages have been
// applied since the last checkpoint this writer took.
func (s *Service) maybeCheckpoint() {
	if s.opts.CheckpointEvery > 0 && s.be.CanCheckpoint() &&
		s.be.Applied()-s.lastCkpt >= s.opts.CheckpointEvery {
		s.checkpoint()
	}
}

// checkpoint makes engine state durable. Only the writer goroutine
// calls it. Failures are latched and surfaced by Err.
func (s *Service) checkpoint() {
	start := time.Now()
	defer func() { s.ckptTimer.Observe(time.Since(start)) }()
	// Flushing and draining parked flushes mutate the engine: write lock.
	s.mu.Lock()
	err := s.be.PrepareCheckpoint()
	s.mu.Unlock()
	s.lastCkpt = s.be.Applied()
	if err == nil {
		// The checkpoint itself only reads — queries stay answerable.
		s.mu.RLock()
		err = s.be.Checkpoint()
		s.mu.RUnlock()
	}
	if err != nil {
		s.fail("checkpoint", err)
		return
	}
	s.mu.Lock()
	s.ckptCount++
	s.mu.Unlock()
}

// fail latches the first background failure.
func (s *Service) fail(what string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bgErr == nil {
		s.bgErr = fmt.Errorf("pipeline: %s: %w", what, err)
	}
}

// Submit enqueues one message for ingest, blocking when the buffer is
// full. Messages must be submitted in stream (date) order.
func (s *Service) Submit(m *tweet.Message) error {
	s.stopMu.Lock()
	if s.closed {
		s.stopMu.Unlock()
		return ErrClosed
	}
	// Hold stopMu across the send so Stop cannot close the channel
	// between the check and the send.
	defer s.stopMu.Unlock()
	s.in <- m
	return nil
}

// Stop drains the queue, waits for the writer to finish (including the
// final flush and checkpoint) and returns the first background error,
// if any. Queries keep working afterwards.
func (s *Service) Stop() error {
	s.stopMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.stopMu.Unlock()
	<-s.done
	return s.Err()
}

// Err surfaces the first background failure without stopping: a failed
// checkpoint or WAL append, else whatever the engine latched.
func (s *Service) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.bgErr != nil {
		return s.bgErr
	}
	return s.be.Err()
}

// Ingested returns how many messages this service's writer has applied;
// messages recovered before it was built are not counted.
func (s *Service) Ingested() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Applied() - s.base
}

// Checkpoints returns how many checkpoints this service has written.
func (s *Service) Checkpoints() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ckptCount
}

// Snapshot returns engine statistics under the read lock.
func (s *Service) Snapshot() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Snapshot()
}

// SearchBundles answers a provenance bundle query (Eq. 7) under the
// read lock.
func (s *Service) SearchBundles(q string, k int) []query.BundleHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.SearchBundles(q, k)
}

// SearchMessages answers a conventional message query under the read
// lock.
func (s *Service) SearchMessages(q string, k int) []query.MessageHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.SearchMessages(q, k)
}

// Trail renders a bundle's provenance forest under the read lock.
func (s *Service) Trail(id bundle.ID) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Trail(id)
}

// Bundle resolves a bundle (pool or disk) under the read lock.
func (s *Service) Bundle(id bundle.ID) (*bundle.Bundle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Bundle(id)
}

// Trending returns the hottest live bundles under the read lock.
func (s *Service) Trending(k int) []trending.Topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Trending(k)
}

// serial is the Backend over one query.Processor (which supplies the
// reads and Snapshot) and its optional Durable. It never buffers.
type serial struct {
	*query.Processor
	dur     *Durable // nil without a WAL
	path    string   // checkpoint file when dur is nil; "" for none
	applied int
}

func (b *serial) Log(m *tweet.Message) error {
	if b.dur == nil {
		return nil
	}
	return b.dur.Log(m)
}

func (b *serial) Apply(p core.Prepared) error {
	b.InsertPrepared(p)
	b.applied++
	return nil
}

func (b *serial) Flush() error { return nil }
func (b *serial) Pending() int { return 0 }
func (b *serial) Applied() int { return b.applied }
func (b *serial) Err() error   { return b.Engine().Err() }

func (b *serial) CanCheckpoint() bool { return b.dur != nil || b.path != "" }

func (b *serial) PrepareCheckpoint() error {
	if b.dur != nil {
		b.dur.DrainRetries()
	}
	return nil
}

func (b *serial) Checkpoint() error {
	if b.dur != nil {
		return b.dur.Checkpoint()
	}
	return b.Engine().SaveCheckpoint(nil, b.path)
}
