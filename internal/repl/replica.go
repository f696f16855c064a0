package repl

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/storage"
	"provex/internal/trending"
	"provex/internal/wal"
)

// ReplicaOptions tune a follower.
type ReplicaOptions struct {
	// FS is the filesystem for the follower's own durable state; nil
	// uses the real one. Tests swap in fsx.MemFS / fsx.FaultFS.
	FS fsx.FS
	// CheckpointPath and WALDir are the follower's OWN durable state —
	// a follower is a full crash-recoverable node, not a cache.
	CheckpointPath string
	WALDir         string
	// WALSyncEvery batches the follower's WAL fsyncs (default 64).
	WALSyncEvery int
	// CheckpointEvery checkpoints the follower every n applied messages
	// (default 50000), truncating its WAL like any durable node.
	CheckpointEvery int
	// Client issues the leader requests; inject a faulty RoundTripper
	// here. nil uses a client with a 30s timeout.
	Client *http.Client
	// PollInterval is the sleep between WAL fetches while caught up
	// (default 250ms).
	PollInterval time.Duration
	// MaxBatchBytes is the per-fetch byte hint sent to the leader
	// (default 1 MiB; the leader caps it too).
	MaxBatchBytes int
	// MaxLag is the staleness bound in messages: beyond it the replica
	// reports not-ready and gates reads (default 10000).
	MaxLag uint64
	// StaleAfter bounds silence: when the leader has not answered for
	// this long the replica cannot quantify its staleness and gates
	// (default 30s).
	StaleAfter time.Duration
	// BackoffBase/BackoffCap shape the jittered exponential retry
	// backoff on faults (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

func (o *ReplicaOptions) defaults() {
	o.FS = fsx.Default(o.FS)
	if o.WALSyncEvery <= 0 {
		o.WALSyncEvery = 64
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 50_000
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 1 << 20
	}
	if o.MaxLag == 0 {
		o.MaxLag = 10_000
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5 * time.Second
	}
}

// replState is one generation of follower state: everything that is
// torn down and rebuilt on a checkpoint resync. The Replica swaps it
// atomically so queries racing a resync see either the old complete
// generation or the new one, never a half-built node.
type replState struct {
	dur  *pipeline.Durable
	proc *query.Processor
	svc  *pipeline.Service
	base uint64 // engine messages recovered at open; svc.Ingested counts from here
}

// Replica is the follower side of WAL-shipping replication: it
// bootstraps from the newest leader checkpoint, tails the leader's WAL
// with jittered exponential backoff on every fault, and applies the
// records through pipeline.Durable exactly like leader-side ingest —
// WAL-before-apply, own checkpoints, full crash recoverability.
//
// It implements query.Reader (read-only query surface) and exposes
// Health as a server.HealthFunc: the replica gates its data endpoints
// when it is bootstrapping, has diverged from the leader, lags beyond
// MaxLag, or has not heard from the leader within StaleAfter —
// explicit staleness bounds instead of unbounded-stale reads.
//
// Concurrency: Start launches the single tailer goroutine, which owns
// all mutation. Queries, Health and metrics reads are safe at any
// time: they go through the atomic state pointer and atomic counters,
// and where they ask the pipeline (queries, Applied) its read lock.
type Replica struct {
	leader string
	cfg    core.Config
	opts   ReplicaOptions

	state atomic.Pointer[replState]

	applied      atomic.Uint64 // sequences submitted to the local pipeline: the tail cursor, ahead of Applied() by the queue
	leaderSynced atomic.Uint64 // leader watermark from the last good exchange
	lastContact  atomic.Int64  // UnixNano of the last good exchange (0 = never)
	diverged     atomic.Bool   // latched: leader regressed below our applied state

	// Tailer-goroutine-only state.
	cursor       wal.Cursor
	catchupStart time.Time

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	reg     *metrics.Registry
	regOnce sync.Once

	retries    metrics.Counter
	bootstraps metrics.Counter
	batches    metrics.Counter
	records    metrics.Counter
	catchup    *metrics.Histogram
}

// catchupBounds bucket catch-up episodes from 100ms to 10min.
var catchupBounds = []int64{
	int64(100 * time.Millisecond), int64(250 * time.Millisecond),
	int64(500 * time.Millisecond), int64(time.Second),
	int64(2500 * time.Millisecond), int64(5 * time.Second),
	int64(10 * time.Second), int64(30 * time.Second),
	int64(time.Minute), int64(2 * time.Minute),
	int64(5 * time.Minute), int64(10 * time.Minute),
}

// NewReplica builds a follower of the leader at leaderURL (scheme +
// host, no trailing slash needed). cfg must match the leader's engine
// config or bundle assignment diverges.
func NewReplica(leaderURL string, cfg core.Config, opts ReplicaOptions) (*Replica, error) {
	if opts.CheckpointPath == "" || opts.WALDir == "" {
		return nil, errors.New("repl: replica: CheckpointPath and WALDir are required")
	}
	opts.defaults()
	for len(leaderURL) > 0 && leaderURL[len(leaderURL)-1] == '/' {
		leaderURL = leaderURL[:len(leaderURL)-1]
	}
	return &Replica{
		leader:  leaderURL,
		cfg:     cfg,
		opts:    opts,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		catchup: metrics.NewHistogram(catchupBounds...),
	}, nil
}

// RegisterMetrics exposes the follower's instruments under canonical
// provex_repl_* names (documented in OBSERVABILITY.md). The engine,
// WAL, message-index and pipeline families of the underlying node
// register once the first state generation exists (and stay bound to
// that generation across resyncs — a documented trade-off, since the
// registry pins series forever).
func (r *Replica) RegisterMetrics(reg *metrics.Registry) {
	r.reg = reg
	reg.RegisterGaugeFunc("provex_repl_lag_messages",
		"Replica staleness bound: leader durable watermark minus locally applied sequence.",
		func() float64 { return float64(r.Lag()) })
	reg.RegisterGaugeFunc("provex_repl_applied_seq",
		"Highest WAL sequence applied to the local engine.",
		func() float64 { return float64(r.Applied()) })
	reg.RegisterGaugeFunc("provex_repl_last_contact_seconds",
		"Seconds since the last successful leader exchange (-1 = never).",
		func() float64 {
			t := r.lastContact.Load()
			if t == 0 {
				return -1
			}
			return time.Since(time.Unix(0, t)).Seconds()
		})
	reg.RegisterGaugeFunc("provex_repl_diverged",
		"1 when the leader's watermark regressed below our applied state (latched; manual intervention).",
		func() float64 {
			if r.diverged.Load() {
				return 1
			}
			return 0
		})
	reg.RegisterCounter("provex_repl_fetch_retries_total",
		"Replication fetches retried after a network, HTTP or decode fault.", &r.retries)
	reg.RegisterCounter("provex_repl_bootstraps_total",
		"Leader checkpoints installed (initial bootstrap + 410-triggered resyncs).", &r.bootstraps)
	reg.RegisterCounter("provex_repl_batches_applied_total",
		"WAL batches fetched and applied.", &r.batches)
	reg.RegisterCounter("provex_repl_records_applied_total",
		"WAL records applied to the local engine.", &r.records)
	reg.RegisterHistogram("provex_repl_catchup_seconds",
		"Duration of catch-up episodes (behind the leader -> caught up).", r.catchup, 1e9)
	// A state generation may already exist (tests call Start first).
	if st := r.state.Load(); st != nil {
		r.registerStateMetrics(st)
	}
}

// registerStateMetrics publishes the underlying durable node's families
// exactly once (first generation wins; see RegisterMetrics).
func (r *Replica) registerStateMetrics(st *replState) {
	if r.reg == nil {
		return
	}
	r.regOnce.Do(func() {
		st.dur.Engine().RegisterMetrics(r.reg)
		st.dur.RegisterMetrics(r.reg)
		st.proc.RegisterMetrics(r.reg)
		st.svc.RegisterMetrics(r.reg)
	})
}

// Start launches the tailer goroutine.
func (r *Replica) Start() { go r.run() }

// Stop halts tailing, drains the local pipeline and checkpoints it
// (the normal durable shutdown), returning the first pipeline error.
func (r *Replica) Stop() error {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	st := r.state.Load()
	if st == nil {
		return nil
	}
	err := st.svc.Stop()
	if cerr := st.dur.Close(); err == nil {
		err = cerr
	}
	return err
}

// kill stops the tailer WITHOUT the graceful pipeline drain/checkpoint
// shutdown — the test hook behind crash torture's "SIGKILL at any
// point". Whatever the abandoned generation had not yet synced sits in
// the (simulated) page cache for MemFS.Crash to discard.
func (r *Replica) kill() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Lag returns the replica's staleness bound in messages: how far the
// leader's durable watermark is ahead of what we applied. 0 while
// diverged or never connected (lag is then meaningless; Health covers
// those states).
func (r *Replica) Lag() uint64 {
	synced, applied := r.leaderSynced.Load(), r.Applied()
	if synced <= applied {
		return 0
	}
	return synced - applied
}

// Applied returns the highest sequence applied to the local engine —
// what queries can see. Sequences merely queued for the writer do not
// count, so Lag and the staleness bound cover the local queue too.
func (r *Replica) Applied() uint64 {
	st := r.state.Load()
	if st == nil {
		return 0
	}
	return st.base + uint64(st.svc.Ingested())
}

// Health implements server.HealthFunc: the explicit staleness contract
// of a follower. Cheap and lock-free — called per probe and per gated
// request.
func (r *Replica) Health() server.HealthStatus {
	detail := map[string]interface{}{
		"role":          "follower",
		"leader":        r.leader,
		"applied_seq":   r.Applied(),
		"leader_synced": r.leaderSynced.Load(),
		"lag":           r.Lag(),
	}
	notReady := func(reason string) server.HealthStatus {
		return server.HealthStatus{
			Ready:      false,
			Reason:     reason,
			RetryAfter: 2 * time.Second,
			GateReads:  true,
			Detail:     detail,
		}
	}
	st := r.state.Load()
	if st == nil {
		return notReady("bootstrapping from leader checkpoint")
	}
	if err := st.svc.Err(); err != nil {
		return notReady(fmt.Sprintf("local durability degraded, resyncing: %v", err))
	}
	if r.diverged.Load() {
		return notReady("diverged: leader watermark regressed below locally applied state")
	}
	last := r.lastContact.Load()
	if last == 0 {
		return notReady("no leader contact yet")
	}
	if age := time.Since(time.Unix(0, last)); age > r.opts.StaleAfter {
		detail["last_contact_age"] = age.String()
		return notReady(fmt.Sprintf("leader unreachable for %s (bound %s): staleness unquantifiable",
			age.Round(time.Second), r.opts.StaleAfter))
	}
	if lag := r.Lag(); lag > r.opts.MaxLag {
		return notReady(fmt.Sprintf("replica lag %d messages exceeds bound %d", lag, r.opts.MaxLag))
	}
	return server.HealthStatus{Ready: true, Detail: detail}
}

// --- query.Reader (the read-only query surface server.New takes) ---

// reader is the current state generation's read surface; while there is
// none (bootstrap, resync) it is one that finds nothing — reads are
// gated then anyway, but /stats-style callers must never crash.
func (r *Replica) reader() query.Reader {
	if st := r.state.Load(); st != nil {
		return st.svc
	}
	return bootstrapping{}
}

// SearchMessages and the four reads below are query.Reader, each
// answered by reader().
func (r *Replica) SearchMessages(q string, k int) []query.MessageHit {
	return r.reader().SearchMessages(q, k)
}
func (r *Replica) SearchBundles(q string, k int) []query.BundleHit {
	return r.reader().SearchBundles(q, k)
}
func (r *Replica) Bundle(id bundle.ID) (query.BundleDetail, error) { return r.reader().Bundle(id) }
func (r *Replica) Trending(k int) []trending.Topic                 { return r.reader().Trending(k) }
func (r *Replica) Snapshot() core.Stats                            { return r.reader().Snapshot() }

// bootstrapping is the query.Reader of a follower with no state yet.
type bootstrapping struct{}

func (bootstrapping) SearchMessages(string, int) []query.MessageHit { return nil }
func (bootstrapping) SearchBundles(string, int) []query.BundleHit   { return nil }
func (bootstrapping) Trending(int) []trending.Topic                 { return nil }
func (bootstrapping) Snapshot() core.Stats                          { return core.Stats{} }
func (bootstrapping) Bundle(bundle.ID) (query.BundleDetail, error) {
	return query.BundleDetail{}, fmt.Errorf("repl: bootstrapping: %w", storage.ErrNotFound)
}

// --- tailer ---

type tailResult int

const (
	tailApplied  tailResult = iota // records landed; go again immediately
	tailCaughtUp                   // at the watermark; poll-sleep
	tailFault                      // transport/decode fault; backoff
	tailResync                     // 410: behind the truncation horizon
	tailDiverged                   // leader below us; latched
	tailShed                       // 503: honor Retry-After
)

func (r *Replica) run() {
	defer close(r.done)
	attempt := 0
	for {
		if r.stopped() {
			return
		}
		st := r.state.Load()
		if st == nil {
			var err error
			st, err = r.openState()
			if err != nil {
				attempt++
				r.retries.Inc()
				slog.Warn("replica: open state", "err", err, "attempt", attempt)
				if !r.sleep(r.backoff(attempt)) {
					return
				}
				continue
			}
			attempt = 0
		}
		res, retryAfter := r.tailOnce(st)
		if res == tailApplied || res == tailCaughtUp {
			// A degraded local pipeline (a WAL append or checkpoint
			// failed; availability-over-durability mode) breaks the
			// "local WAL sequence == engine ordinal" alignment this
			// replica's convergence proof rests on. Heal by re-basing on
			// a leader checkpoint instead of limping into divergence.
			if st.svc.Err() != nil {
				slog.Warn("replica: local durability degraded; forcing checkpoint resync", "err", st.svc.Err())
				res = tailResync
			}
		}
		switch res {
		case tailApplied:
			attempt = 0
		case tailCaughtUp:
			attempt = 0
			if !r.sleep(r.opts.PollInterval) {
				return
			}
		case tailFault:
			attempt++
			r.retries.Inc()
			if !r.sleep(r.backoff(attempt)) {
				return
			}
		case tailShed:
			// The leader shed us: back off exactly as told, bounded.
			r.retries.Inc()
			if retryAfter <= 0 {
				retryAfter = time.Second
			}
			if retryAfter > 30*time.Second {
				retryAfter = 30 * time.Second
			}
			if !r.sleep(retryAfter) {
				return
			}
		case tailResync:
			attempt++
			if err := r.resync(st); err != nil {
				r.retries.Inc()
				slog.Warn("replica: resync", "err", err, "attempt", attempt)
				if !r.sleep(r.backoff(attempt)) {
					return
				}
			} else {
				attempt = 0
			}
		case tailDiverged:
			if r.diverged.CompareAndSwap(false, true) {
				slog.Error("replica: diverged — leader watermark below locally applied state; reads gated",
					"applied", r.applied.Load(), "leader_synced", r.leaderSynced.Load())
			}
			if !r.sleep(r.opts.PollInterval) {
				return
			}
		}
	}
}

// openState builds a state generation: bootstrap from the leader when
// no local checkpoint exists, then the standard durable recovery path
// (checkpoint + local WAL replay) — a follower restart IS a crash
// recovery.
func (r *Replica) openState() (*replState, error) {
	if _, err := r.opts.FS.Open(r.opts.CheckpointPath); err != nil {
		// No local checkpoint: pull the leader's (404 = fresh leader,
		// start empty and tail from sequence 0).
		if err := r.bootstrap(); err != nil {
			return nil, err
		}
	}
	dur, err := pipeline.OpenDurable(r.cfg, nil, nil, pipeline.DurableOptions{
		FS:             r.opts.FS,
		CheckpointPath: r.opts.CheckpointPath,
		WALDir:         r.opts.WALDir,
		WALSyncEvery:   r.opts.WALSyncEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("repl: open durable: %w", err)
	}
	proc := query.New(dur.Engine(), query.DefaultOptions())
	// Recovery bypasses the processor; rebuild the message index so
	// /search covers the bootstrapped history.
	proc.Reindex()
	svc := pipeline.New(proc, pipeline.Options{
		Durable:         dur,
		CheckpointEvery: r.opts.CheckpointEvery,
	})
	svc.Start()
	st := &replState{dur: dur, proc: proc, svc: svc, base: uint64(dur.Engine().Snapshot().Messages)}
	r.applied.Store(st.base)
	r.cursor = wal.Cursor{}
	r.catchupStart = time.Now()
	r.state.Store(st)
	r.registerStateMetrics(st)
	slog.Info("replica: state open", "applied", r.applied.Load(), "wal_replayed", dur.Replayed())
	return st, nil
}

// downloadSuffix names the leader's checkpoint beside the local one
// while it is fetched and validated.
const downloadSuffix = ".download"

// installCheckpoint fetches the leader's newest checkpoint to a sibling
// of the local one, validates it end to end — a torn download must
// never be installed — runs ready, the caller's last word before the
// swap, and renames the download into place. found is false when the
// leader has no checkpoint yet (404). On any failure the local
// checkpoint is untouched.
func (r *Replica) installCheckpoint(op string, ready func() error) (found bool, err error) {
	resp, err := r.opts.Client.Get(r.leader + "/repl/checkpoint")
	if err != nil {
		return false, fmt.Errorf("repl: %s: %w", op, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("repl: %s: leader answered %s", op, resp.Status)
	}
	fsys, tmp := r.opts.FS, r.opts.CheckpointPath+downloadSuffix
	if err = fsys.MkdirAll(filepath.Dir(tmp), 0o755); err == nil {
		err = fsx.WriteAtomic(fsys, tmp, func(w io.Writer) error {
			_, err := io.Copy(w, resp.Body)
			return err
		})
	}
	if err != nil {
		return true, fmt.Errorf("repl: %s download: %w", op, err)
	}
	// Validate before install: load the engine once from the download.
	// CRC-guarded checkpoint records turn torn/flipped downloads into
	// load errors here instead of a poisoned install we would reopen
	// forever.
	if _, err = core.LoadCheckpoint(r.cfg, nil, nil, fsys, tmp); err != nil {
		err = fmt.Errorf("repl: %s: downloaded checkpoint invalid: %w", op, err)
	} else if err = ready(); err == nil {
		if err = fsys.Rename(tmp, r.opts.CheckpointPath); err != nil {
			err = fmt.Errorf("repl: %s install: %w", op, err)
		}
	}
	if err != nil {
		fsx.BestEffortRemove(fsys, tmp)
		return true, err
	}
	r.bootstraps.Inc()
	slog.Info("replica: leader checkpoint installed", "op", op)
	return true, nil
}

// bootstrap installs the leader's newest checkpoint as the follower's
// first. A 404 means the leader has none yet — the follower starts
// empty and tails from zero.
func (r *Replica) bootstrap() error {
	_, err := r.installCheckpoint("bootstrap", func() error { return nil })
	return err
}

// resync tears down the current generation and re-bootstraps from the
// leader's newest checkpoint — the 410 path, when the leader truncated
// records we still needed. Download and validation happen FIRST, so a
// failed resync leaves the old generation serving (stale but intact).
func (r *Replica) resync(st *replState) error {
	found, err := r.installCheckpoint("resync", func() error {
		// Teardown only after the replacement is known-good. The old
		// generation stops answering queries the moment state is cleared;
		// Health gates reads ("bootstrapping") until the reopen finishes.
		r.state.Store(nil)
		if err := st.svc.Stop(); err != nil {
			slog.Warn("replica: resync: stopping old pipeline", "err", err)
		}
		if err := st.dur.Close(); err != nil {
			slog.Warn("replica: resync: closing old wal", "err", err)
		}
		// Wipe the local WAL before installing the new checkpoint: its
		// records predate the new base and a degraded pipeline may have
		// skipped appends, shifting sequences. Wipe-then-rename is the
		// crash-safe order — dying in between leaves the OLD checkpoint
		// with no WAL, a consistent (merely staler) recovery point.
		return wal.Wipe(r.opts.FS, r.opts.WALDir)
	})
	if err == nil && !found {
		err = errors.New("repl: resync: leader has no checkpoint")
	}
	return err
}

// tailOnce fetches and applies one WAL batch. The second return value
// is the Retry-After to honor when the result is tailShed.
func (r *Replica) tailOnce(st *replState) (tailResult, time.Duration) {
	url := fmt.Sprintf("%s/repl/wal?after=%d&seg=%d&off=%d&max=%d",
		r.leader, r.applied.Load(), r.cursor.Seg, r.cursor.Off, r.opts.MaxBatchBytes)
	resp, err := r.opts.Client.Get(url)
	if err != nil {
		return tailFault, 0
	}
	defer func() {
		// Drain a bounded remainder so the connection can be reused.
		_, _ = io.CopyN(io.Discard, resp.Body, 1<<16)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return tailResync, 0
	case http.StatusServiceUnavailable:
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return tailShed, time.Duration(ra) * time.Second
	default:
		return tailFault, 0
	}

	applied := r.applied.Load()
	count := 0
	end, err := ReadStream(resp.Body, func(payload []byte) error {
		seq, m, err := wal.DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("undecodable record after %d: %w", applied, err)
		}
		if seq <= applied {
			// Duplicate delivery (stale cursor on the leader side):
			// sequence alignment makes it a no-op, never a double apply.
			return nil
		}
		if seq != applied+1 {
			return fmt.Errorf("sequence gap in stream: got %d want %d", seq, applied+1)
		}
		if err := st.svc.Submit(m); err != nil {
			return err
		}
		applied = seq
		r.applied.Store(applied)
		count++
		return nil
	})
	if err != nil {
		// A torn stream after a prefix of good records is fine: the
		// prefix was contiguous and applied; the retry resumes after it.
		if count > 0 {
			r.records.Add(int64(count))
			r.cursor = wal.Cursor{} // cursor unknown; next fetch full-scans
		}
		return tailFault, 0
	}
	r.lastContact.Store(time.Now().UnixNano())
	r.leaderSynced.Store(end.Synced)
	r.cursor = end.Next
	r.batches.Inc()
	r.records.Add(int64(count))
	if end.Synced < applied {
		return tailDiverged, 0
	}
	if applied >= end.Synced {
		// Caught up: close any open catch-up episode.
		if !r.catchupStart.IsZero() {
			r.catchup.Observe(int64(time.Since(r.catchupStart)))
			r.catchupStart = time.Time{}
		}
		if count > 0 {
			return tailApplied, 0
		}
		return tailCaughtUp, 0
	}
	// Still behind: an episode is running.
	if r.catchupStart.IsZero() {
		r.catchupStart = time.Now()
	}
	return tailApplied, 0
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until Stop; false means stopping.
func (r *Replica) sleep(d time.Duration) bool {
	if d <= 0 {
		return !r.stopped()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.stop:
		return false
	case <-t.C:
		return true
	}
}

// backoff is jittered exponential: base<<(attempt-1) capped, scaled by
// a uniform [0.5, 1.0) factor so a fleet of followers retrying against
// one recovering leader spreads out instead of stampeding.
func (r *Replica) backoff(attempt int) time.Duration {
	d := r.opts.BackoffBase
	for i := 1; i < attempt && d < r.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > r.opts.BackoffCap {
		d = r.opts.BackoffCap
	}
	//provlint:ignore hotpathalloc not a hot path: one backoff per failed fetch
	return time.Duration((0.5 + rand.Float64()/2) * float64(d))
}
