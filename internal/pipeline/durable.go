// Crash-safe ingest: Durable couples an engine with a write-ahead log
// and atomic checkpoints so that a killed process recovers to exactly
// the state it acknowledged. Recovery is newest checkpoint + WAL
// replay: OpenDurable loads the checkpoint (if any), then re-inserts
// every logged message with a sequence number beyond the checkpoint's
// coverage. Checkpoint() inverts the dependency — once engine state is
// durably on disk the log is redundant and is truncated.
//
// Durable has one owner at a time: Log, Checkpoint, SyncWAL, Seq and
// Close must never run concurrently. Behind a Service the owner
// is the log stage, or the writer while the stage is parked at a
// checkpoint barrier (DESIGN.md §2c) — Log and SyncWAL come from the
// one, Checkpoint from the other, and the hand-over is a channel
// operation. In sharded mode (DESIGN.md §2i) it is the per-shard
// commit goroutine, which owns its shard's Durable exclusively for the
// round. Engine reads may happen
// concurrently under whatever lock the caller already uses for
// queries; WALSyncedSeq and ReadWAL are safe from any goroutine.

package pipeline

import (
	"errors"
	"fmt"
	"io/fs"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/storage"
	"provex/internal/tweet"
	"provex/internal/wal"
)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// FS is the filesystem everything durable goes through; nil uses
	// the real one. Tests swap in fsx.MemFS / fsx.FaultFS here.
	FS fsx.FS
	// CheckpointPath is the engine checkpoint file.
	CheckpointPath string
	// WALDir is the write-ahead log directory.
	WALDir string
	// WALSyncEvery is the group-commit batch cap: the log is written and
	// fsynced after every n appends, and a Service closes its batches at
	// the same n (or sooner, when its queue runs dry). <=1 syncs every
	// append (strongest guarantee, highest cost).
	WALSyncEvery int
	// ReplayLimit, when non-zero, caps recovery at WAL sequence
	// ReplayLimit: records beyond it are left in the log but NOT applied
	// to the engine. The sharded engine uses it to trim every shard back
	// to the last round-ledger barrier so recovery lands on a globally
	// consistent cut (DESIGN.md §2i); the caller MUST checkpoint (and
	// thereby truncate) before appending again, or the stale tail would
	// collide with re-issued sequence numbers.
	ReplayLimit uint64
}

// Durable is the crash-safety shell around an engine: a WAL of raw
// ingested messages plus checkpoints of engine state.
type Durable struct {
	fs   fsx.FS
	opts DurableOptions
	eng  *core.Engine
	st   *storage.Store
	wal  *wal.Log

	seq      uint64 // last sequence handed to the WAL (= engine message ordinal)
	replayed int    // messages recovered from the WAL at open
}

// OpenDurable restores an engine from CheckpointPath (a missing file
// means a fresh engine), opens the WAL and replays every record past
// the checkpoint's message count. store may be nil, as in core.New.
func OpenDurable(cfg core.Config, store *storage.Store, onEdge core.EdgeFunc, opts DurableOptions) (*Durable, error) {
	fsys := fsx.Default(opts.FS)
	if opts.CheckpointPath == "" || opts.WALDir == "" {
		return nil, errors.New("pipeline: durable: CheckpointPath and WALDir are required")
	}
	eng, err := core.LoadCheckpoint(cfg, store, onEdge, fsys, opts.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		eng = core.New(cfg, store, onEdge)
	} else if err != nil {
		return nil, err
	}

	l, err := wal.Open(opts.WALDir, wal.Options{FS: fsys, SyncEvery: opts.WALSyncEvery})
	if err != nil {
		return nil, err
	}
	base := uint64(eng.Snapshot().Messages)
	replayed := 0
	err = l.Replay(base, func(seq uint64, m *tweet.Message) error {
		if opts.ReplayLimit > 0 && seq > opts.ReplayLimit {
			return nil // beyond the consistent cut: never acknowledged
		}
		eng.Insert(m)
		replayed++
		return nil
	})
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("pipeline: durable: replay: %w", err)
	}
	return &Durable{
		fs:       fsys,
		opts:     opts,
		eng:      eng,
		st:       store,
		wal:      l,
		seq:      uint64(eng.Snapshot().Messages),
		replayed: replayed,
	}, nil
}

// Engine exposes the recovered engine.
func (d *Durable) Engine() *core.Engine { return d.eng }

// RegisterMetrics exposes the durability layer's instruments on reg:
// the WAL's append/fsync/size series plus the replay count from the
// last recovery. Registering the engine's own metrics is the caller's
// choice (Engine().RegisterMetrics) — the split keeps memory-only and
// durable deployments symmetrical. labels are extra key/value pairs
// baked into every series (the sharded engine passes ("shard", "i")).
func (d *Durable) RegisterMetrics(reg *metrics.Registry, labels ...string) {
	d.wal.RegisterMetrics(reg, labels...)
	reg.RegisterGaugeFunc("provex_wal_replayed_messages",
		"Messages recovered from the WAL at the last open (work a crash would have lost without the log).",
		func() float64 { return float64(d.replayed) }, labels...)
}

// Replayed reports how many messages the WAL contributed at open —
// the work a crash would have lost without the log.
func (d *Durable) Replayed() int { return d.replayed }

// LogSize returns the active WAL file's byte length.
func (d *Durable) LogSize() int64 { return d.wal.Size() }

// Log appends m to the WAL's open batch under the next sequence number;
// every WALSyncEvery-th call also writes and fsyncs the batch. Call it
// BEFORE applying m to the engine. On error the sequence is not
// consumed and nothing of the open batch was made durable (wal.Sync).
func (d *Durable) Log(m *tweet.Message) error {
	next := d.seq + 1
	if err := d.wal.Append(next, m); err != nil {
		return err
	}
	d.seq = next
	return nil
}

// DrainRetries re-attempts every parked bundle flush. It MUTATES the
// engine — a concurrent service must hold its write lock. Failures are
// not fatal to checkpointing: checkpoints persist still-parked bundles.
func (d *Durable) DrainRetries() { _ = d.eng.DrainFlushRetries() }

// Checkpoint makes the engine state durable and truncates the WAL, in
// the order that keeps every acknowledged message recoverable at all
// times: sync the bundle store, atomically write the checkpoint, then
// discard the now-redundant log. It only READS engine state — callers
// holding a read lock (queries still allowed) are safe, provided
// DrainRetries ran just before under the write lock.
func (d *Durable) Checkpoint() error {
	if d.st != nil {
		if err := d.st.Sync(); err != nil {
			return fmt.Errorf("pipeline: durable: store sync: %w", err)
		}
	}
	if err := d.eng.SaveCheckpoint(d.fs, d.opts.CheckpointPath); err != nil {
		return err
	}
	// The checkpoint now covers every engine message, so WAL sequences
	// must rejoin the engine ordinal here: if a failed Log ever skipped
	// a message (degraded mode), seq lags the engine count and every
	// post-checkpoint append would sit at or below the count recovery
	// passes to Replay — filtered out, silently losing logged messages.
	d.seq = uint64(d.eng.Snapshot().Messages)
	if err := d.wal.Truncate(); err != nil {
		// Stale log records are filtered by sequence on the next open;
		// surface the error but the checkpoint itself stands.
		return err
	}
	// The log is empty: rebase its sequence watermark onto the engine
	// ordinal. A no-op except after a ReplayLimit-trimmed recovery,
	// where the WAL scan saw torn-round sequences above the consistent
	// cut that would otherwise collide with re-issued ones.
	d.wal.Rebase(d.seq)
	return nil
}

// WALSyncedSeq returns the WAL's durable watermark — the highest
// sequence fully on stable storage. Unlike the writer-side methods it
// is safe from any goroutine (replication shippers read it from HTTP
// handlers).
func (d *Durable) WALSyncedSeq() uint64 { return d.wal.SyncedSeq() }

// SyncWAL writes and fsyncs the WAL's open batch, however few records
// it holds. The Service's log stage calls it before handing a batch to
// the writer, the sharded commit phase at the end of each round so the
// round ledger's per-shard watermarks only ever cover records that are
// actually on stable storage.
func (d *Durable) SyncWAL() error { return d.wal.Sync() }

// Seq returns the last WAL sequence handed out by Log — the shard
// round ledger records it as the shard's durable watermark after a
// round's appends are synced. Owner only, like Log.
func (d *Durable) Seq() uint64 { return d.seq }

// ReadWAL collects durable WAL record payloads with sequence in
// (after, watermark], resuming from hint when possible. Safe to call
// concurrently with the single writer: it opens its own file handles
// and takes no engine or pipeline locks, so shipping replication
// batches can never block ingest. See wal.ReadBatch for the ErrGap
// contract.
func (d *Durable) ReadWAL(after uint64, hint wal.Cursor, maxBytes int) (wal.Batch, error) {
	return d.wal.ReadBatch(after, hint, maxBytes)
}

// OpenCheckpoint opens the newest checkpoint file for reading (the
// replication bootstrap payload). The checkpoint is written atomically
// (fsx.WriteAtomic), so a handle opened here always sees one
// complete checkpoint even while Checkpoint() replaces it. Returns
// fs.ErrNotExist when no checkpoint has been taken yet.
func (d *Durable) OpenCheckpoint() (fsx.File, error) {
	return d.fs.Open(d.opts.CheckpointPath)
}

// Close syncs and closes the WAL. It does not close the bundle store,
// which the caller owns.
func (d *Durable) Close() error { return d.wal.Close() }
