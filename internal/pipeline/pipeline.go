// Package pipeline is the one concurrent deployment shell around the
// provenance engines: a single writer goroutine mutates the engine (the
// paper's pipeline is inherently sequential — messages must enter in
// date order), while any number of query goroutines read under a
// shared lock. The demo server, live feeds and replicas talk to a
// Service, not to an engine.
//
// Ingest is two goroutines (DESIGN.md §2c). The log stage does
// everything with no dependency between messages: it drains the queue
// into a batch, prepares and WAL-appends each message, lands the batch
// with one write and one fsync, and hands it on. A batch is whatever
// the queue held, so it is bounded by the queue's capacity and a
// saturated feed pays one fsync per queueful. The writer does
// nothing but lock, apply, unlock per message — so a message becomes
// visible to queries only after its batch is on stable storage.
//
// The Service drives its engine through Backend, which has exactly two
// implementations: the serial one New builds over a query.Processor and
// its Durable (nil for a memory-only node), and the sharded one
// shard.NewService builds over a shard.Engine. Both take their reads
// from a query.Processor. Everything that is not
// engine work — the queue and its back-pressure, the two stages,
// flush-on-idle, the checkpoint cadence and protocol, error latching,
// the provex_pipeline_* metrics — exists once, here.
//
// Checkpoints (the paper's stability requirement) run every
// CheckpointEvery messages and at Stop, in two steps: the mutating step
// (flush the buffered round, drain parked flushes) under the write
// lock, then the persisting step under the read lock, so queries stay
// answerable while state goes to disk. A cadence checkpoint is a
// barrier through the pipe: the log stage cuts its batch at the
// boundary and parks until the writer has checkpointed, so the WAL
// holds exactly the applied prefix when it is truncated.
//
// Concurrency contract: Submit is safe from any goroutine (it only
// feeds the queue); Start and Stop must not race each other; all query
// methods take the service's read lock and may run concurrently with
// ingest. What a query method returns was copied out under that lock
// and is the caller's to keep after it (query.Reader's contract; only
// messages are shared, and they are immutable once parsed) — no engine
// state crosses the lock, and Trail renders from such a copy after
// releasing it. RegisterMetrics may be called before Start; the series it
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
// synchronisation: Log and Sync happen on the log stage, never beside a
// checkpoint; the reads of Pending and Applied on the writer goroutine;
// Apply, Flush and PrepareCheckpoint under the write lock; and
// everything else under the read lock, so an implementation needs no
// locking of its own.
type Backend interface {
	// The reads. The Service runs each under the read lock and hands the
	// result to a caller who keeps it after the lock is gone;
	// query.Reader's contract is what makes that safe.
	query.Reader

	// Log appends m to the write-ahead log and Sync lands everything
	// logged since the last Sync, both ahead of Apply. They run outside
	// the lock, so an fsync never blocks queries; a failure degrades
	// durability but does not stop ingest. Engines that log inside Apply
	// do nothing in either.
	Log(m *tweet.Message) error
	Sync() error
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
}

// Options configure a Service.
type Options struct {
	// Buffer is the ingest queue capacity; Submit blocks when full
	// (backpressure), so producers can never outrun memory. It also
	// bounds a batch of the log stage. 0 uses 1024.
	Buffer int
	// CheckpointEvery writes a checkpoint after every that many messages
	// this service ingests; 0 leaves only the checkpoint at Stop. A
	// memory-only service never checkpoints.
	CheckpointEvery int
	// Durable, when set, makes a serial service crash-safe: every
	// message is WAL-appended and fsynced, one fsync per batch the log
	// stage drained from the queue, before it is applied, and
	// checkpoints go through Durable.Checkpoint — drain parked flushes,
	// sync the store, atomic checkpoint, truncate the WAL. The Durable
	// must wrap the same engine the service's processor does. Nil keeps
	// the service memory-only.
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
	// prefix), immutable afterwards.
	base int

	bgErr     error // guarded by mu
	ckptCount int   // guarded by mu

	// ckptTimer accumulates checkpoint wall time (both steps); batchSize
	// and the two waits describe the hand-over between the stages.
	// Atomic or internally locked, so scrapes read them live.
	ckptTimer metrics.StageTimer
	batchSize *metrics.Histogram
	logWait   metrics.StageTimer // log stage blocked on the writer
	applyWait metrics.StageTimer // writer blocked on the log stage
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
	reg.RegisterHistogram("provex_pipeline_batch_size",
		"Messages per batch the log stage handed to the writer (one WAL write and fsync each).",
		s.batchSize, 1)
	const waitHelp = "Time one ingest stage spent blocked on the other: the log stage out of batch buffers or parked at a checkpoint barrier, the writer idle while a batch was being logged."
	reg.RegisterTimer("provex_pipeline_stage_wait_seconds", waitHelp, &s.logWait, "stage", "log")
	reg.RegisterTimer("provex_pipeline_stage_wait_seconds", waitHelp, &s.applyWait, "stage", "apply")
}

// New builds a Service over the serial engine behind proc. Call Start
// before Submit.
func New(proc *query.Processor, opts Options) *Service {
	return NewWith(&serial{
		Processor: proc,
		dur:       opts.Durable,
		applied:   int(proc.Engine().Snapshot().Messages),
	}, opts)
}

// NewWith builds a Service over be. Of opts it reads Buffer and
// CheckpointEvery; the rest configure the backend New builds.
func NewWith(be Backend, opts Options) *Service {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	return &Service{
		opts:      opts,
		be:        be,
		in:        make(chan *tweet.Message, opts.Buffer),
		done:      make(chan struct{}),
		base:      be.Applied(),
		batchSize: metrics.NewPow2Histogram(11), // 1 … 1024
	}
}

// Start launches the two ingest goroutines.
func (s *Service) Start() {
	go s.run()
}

// batch is one hand-over from the log stage to the writer: prepared
// messages whose WAL records are already on stable storage.
type batch struct {
	msgs    []core.Prepared
	started time.Time // when the log stage began filling it
	// barrier marks a batch cut at the checkpoint cadence: the log stage
	// is parked behind it until the writer has checkpointed.
	barrier bool
}

// inFlight is how many batches may be between the stages: one being
// applied, one being filled. More would only let the heap run further
// ahead of the writer.
const inFlight = 2

// run is the writer: lock, apply, unlock per message, a flush whenever
// no further batch is waiting — so a live tail never sits invisible in
// a round buffer — and the checkpoints. Everything ahead of the engine
// runs in logStage.
func (s *Service) run() {
	defer close(s.done)
	// Both channels hold every batch buffer there is, so neither the
	// hand-over nor the return ever blocks on a full channel.
	full := make(chan batch, inFlight)
	free := make(chan []core.Prepared, inFlight)
	for i := 0; i < inFlight; i++ {
		free <- make([]core.Prepared, 0, cap(s.in))
	}
	resume := make(chan struct{})
	go s.logStage(full, free, resume)

	for {
		idle := time.Now()
		b, ok := <-full
		if !ok {
			break
		}
		// Only the part of the wait during which the log stage was at
		// work on this batch is time blocked on it; the rest is a quiet
		// feed.
		if b.started.After(idle) {
			idle = b.started
		}
		s.applyWait.Observe(time.Since(idle))

		var err error
		for _, p := range b.msgs {
			s.mu.Lock()
			err = s.be.Apply(p)
			s.mu.Unlock()
		}
		clear(b.msgs) // a buffer waiting for reuse keeps no input message alive
		free <- b.msgs[:0]
		// On an Apply error the backend has latched it; the queue keeps
		// draining so Stop does not deadlock producers.
		switch {
		case b.barrier:
			if err == nil {
				s.checkpoint()
			}
			resume <- struct{}{}
		case len(full) == 0:
			s.flush()
		}
	}
	s.flush()
	// Final checkpoint on drain, so Stop leaves durable state.
	if s.be.CanCheckpoint() && s.be.Applied() > s.base {
		s.checkpoint()
	}
}

// logStage is everything ingest does that has no dependency between
// messages. It drains the queue greedily into a batch — closed as soon
// as the queue is dry, so a quiet feed's tail is synced at once, at the
// checkpoint cadence, or at the queue's capacity, so a producer that
// refills the queue as fast as it drains cannot hold a batch open —
// prepares and logs each message, syncs once, and hands the batch to
// the writer. Between a barrier batch and resume it is parked: the
// writer checkpoints, and owns the backend's log while it does.
func (s *Service) logStage(full chan<- batch, free <-chan []core.Prepared, resume <-chan struct{}) {
	defer close(full)
	limit := cap(s.in)
	every := 0
	if s.be.CanCheckpoint() {
		every = s.opts.CheckpointEvery
	}
	sinceCkpt := 0 // messages handed on since the last barrier (or Start)
	for m := range s.in {
		blocked := time.Now()
		b := batch{msgs: <-free}
		b.started = time.Now()
		s.logWait.Observe(b.started.Sub(blocked))
		for more := true; more; {
			p := core.Prepare(m)
			b.msgs = append(b.msgs, p)
			if err := s.be.Log(m); err != nil {
				// The message stays in memory but is not crash-safe:
				// degraded durability, latched and surfaced by Err while
				// ingest continues (availability over durability).
				s.fail("wal", err)
			}
			sinceCkpt++
			if sinceCkpt == every {
				b.barrier = true
				break
			}
			if len(b.msgs) == limit {
				break
			}
			select {
			case m, more = <-s.in:
			default:
				more = false
			}
		}
		if err := s.be.Sync(); err != nil {
			s.fail("wal", err)
		}
		s.batchSize.Observe(int64(len(b.msgs)))
		full <- b
		if b.barrier {
			sinceCkpt = 0
			parked := time.Now()
			<-resume
			s.logWait.Observe(time.Since(parked))
		}
	}
}

// flush applies a partial round so the live tail becomes visible (and,
// for a durable backend, acknowledged).
func (s *Service) flush() {
	if s.be.Pending() == 0 {
		return
	}
	s.mu.Lock()
	// A failed flush is the backend's to latch and report through Err.
	_ = s.be.Flush()
	s.mu.Unlock()
}

// checkpoint makes engine state durable. Only the writer goroutine
// calls it, and only while the log stage is parked at a barrier or has
// exited. Failures are latched and surfaced by Err.
func (s *Service) checkpoint() {
	start := time.Now()
	defer func() { s.ckptTimer.Observe(time.Since(start)) }()
	// Flushing and draining parked flushes mutate the engine: write lock.
	s.mu.Lock()
	err := s.be.PrepareCheckpoint()
	s.mu.Unlock()
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

// Trail renders a bundle's provenance forest from the copy Bundle took,
// after the read lock is released.
func (s *Service) Trail(id bundle.ID) (string, error) { return query.Trail(s, id) }

// Bundle resolves a bundle (pool or disk) and copies it out under the
// read lock.
func (s *Service) Bundle(id bundle.ID) (query.BundleDetail, error) {
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
// reads and Snapshot) and its Durable. It never buffers.
type serial struct {
	*query.Processor
	dur     *Durable // nil for a memory-only node
	applied int
}

func (b *serial) Log(m *tweet.Message) error {
	if b.dur == nil {
		return nil
	}
	return b.dur.Log(m)
}

func (b *serial) Sync() error {
	if b.dur == nil {
		return nil
	}
	return b.dur.SyncWAL()
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

func (b *serial) CanCheckpoint() bool { return b.dur != nil }

// The Service runs the two checkpoint steps only when CanCheckpoint
// holds, so dur is set in both.
func (b *serial) PrepareCheckpoint() error {
	b.dur.DrainRetries()
	return nil
}

func (b *serial) Checkpoint() error { return b.dur.Checkpoint() }
