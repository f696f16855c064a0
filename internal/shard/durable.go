// Durable sharding: N pipeline.Durable shells (one WAL segment and
// checkpoint file per shard) coordinated by the round ledger and a
// manifest, so a crash anywhere recovers to an exact stream prefix.
//
// On-disk layout under DurableOptions.Dir:
//
//	shard-000/engine.ckpt   per-shard checkpoint
//	shard-000/wal/          per-shard write-ahead log
//	shard-000/store/        per-shard bundle store (optional)
//	shard-001/...
//	rounds.ledger           consistent cuts (see ledger.go)
//
// plus the manifest at DurableOptions.ManifestPath: shard count,
// global sequence and per-shard counts at the last checkpoint barrier,
// written atomically (fsx.WriteAtomic) AFTER every shard's
// checkpoint and BEFORE the ledger reset. That ordering makes each
// crash window recoverable:
//
//   - mid-round: the ledger's newest cut predates the torn round;
//     recovery trims every shard's WAL replay to its watermark.
//   - mid-barrier, before the manifest: shards with the new checkpoint
//     recovered it (it matches the barrier cut exactly — the barrier
//     runs between rounds); shards without it replay their WAL to the
//     same cut, which the ledger still holds.
//   - after the manifest, before the ledger reset: the stale cuts are
//     at or below the manifest's global sequence and are ignored.
//
// Recovery finishes with a full checkpoint barrier of its own, which
// truncates the trimmed WAL tails before any new append could re-issue
// their sequence numbers.

package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/storage"
	"provex/internal/wal"
)

// manifestVersion guards the manifest schema.
const manifestVersion = 1

// manifest is the barrier-consistent summary of the sharded state.
type manifest struct {
	Version int      `json:"version"`
	Shards  int      `json:"shards"`
	Global  uint64   `json:"global_seq"`
	Counts  []uint64 `json:"shard_counts"`
}

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// FS is the filesystem all durable state goes through; nil uses the
	// real one.
	FS fsx.FS
	// Dir is the shard state root (per-shard subdirectories plus the
	// round ledger).
	Dir string
	// ManifestPath is the manifest file.
	ManifestPath string
	// WALSyncEvery is each shard WAL's batching cadence; the round
	// commit ends with an explicit sync regardless, so this only
	// shapes intra-round append cost.
	WALSyncEvery int
	// Store, when non-nil, opens one bundle store per shard at
	// Dir/shard-NNN/store (its FS defaults to FS above).
	Store *storage.Options
}

// Durable is the crash-safe sharded engine: the Engine ingest API plus
// the coordinated checkpoint barrier.
type Durable struct {
	*Engine
	fs     fsx.FS
	dopts  DurableOptions
	stores []*storage.Store // stores this Durable opened (closed by Close)

	ckpts       metrics.Counter
	barrierHist *metrics.Histogram
}

// barrierBounds bucket checkpoint-barrier latency (ns) from 1ms to a
// minute: N checkpoints + a manifest + a ledger reset per observation.
var barrierBounds = []int64{
	1e6, 5e6, 25e6, 1e8, 5e8, 2_500e6, 10_000e6, 60_000e6,
}

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// OpenDurable opens (creating if needed) the sharded state under
// dopts and recovers it to the newest consistent cut: each shard loads
// its checkpoint and replays its WAL no further than the cut's
// watermark, then a full checkpoint barrier persists the recovered
// state and clears the trimmed tails. The manifest pins the shard
// count — reopening with a different opts.Shards is an error
// (resharding is not supported; DESIGN.md §2i).
func OpenDurable(cfg core.Config, opts Options, dopts DurableOptions) (*Durable, error) {
	opts = opts.normalized()
	fsys := fsx.Default(dopts.FS)
	if dopts.Dir == "" || dopts.ManifestPath == "" {
		return nil, errors.New("shard: durable: Dir and ManifestPath are required")
	}
	if err := fsys.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: durable: %w", err)
	}
	n := opts.Shards

	man, haveMan, err := readManifest(fsys, dopts.ManifestPath)
	if err != nil {
		return nil, err
	}
	if haveMan && man.Shards != n {
		return nil, fmt.Errorf("shard: durable: state has %d shards, opened with %d (resharding is not supported)", man.Shards, n)
	}

	led, cut, haveCut, err := openLedger(fsys, filepath.Join(dopts.Dir, "rounds.ledger"))
	if err != nil {
		return nil, err
	}

	// The recovery cut: the ledger's newest record when it postdates
	// the last barrier, else the barrier itself (manifest counts), else
	// nothing durable (zeros).
	limits := make([]uint64, n)
	switch {
	case haveCut && cut.global > man.Global:
		if len(cut.watermarks) != n {
			led.close()
			return nil, fmt.Errorf("shard: durable: ledger cut has %d shards, state has %d", len(cut.watermarks), n)
		}
		copy(limits, cut.watermarks)
	case haveMan:
		copy(limits, man.Counts)
	}

	d := &Durable{
		fs:          fsys,
		dopts:       dopts,
		barrierHist: metrics.NewHistogram(barrierBounds...),
	}
	states := make([]*shardState, n)
	fail := func(err error) (*Durable, error) {
		led.close()
		d.closeShards(states)
		return nil, err
	}
	for i := range states {
		dir := shardDir(dopts.Dir, i)
		var st *storage.Store
		if dopts.Store != nil {
			sopts := *dopts.Store
			if sopts.FS == nil {
				sopts.FS = fsys
			}
			st, err = storage.Open(filepath.Join(dir, "store"), sopts)
			if err != nil {
				return fail(fmt.Errorf("shard: durable: shard %d store: %w", i, err))
			}
			d.stores = append(d.stores, st)
		}
		walDir := filepath.Join(dir, "wal")
		if limits[i] == 0 {
			// Nothing on this shard was ever acknowledged: any WAL
			// records are a torn round's. ReplayLimit cannot express
			// "replay none" (0 is its disabled sentinel), so drop the
			// files outright.
			if err := wal.Wipe(fsys, walDir); err != nil {
				return fail(fmt.Errorf("shard: durable: shard %d: %w", i, err))
			}
		}
		dur, err := pipeline.OpenDurable(splitConfig(cfg, i, n), st, nil, pipeline.DurableOptions{
			FS:             fsys,
			CheckpointPath: filepath.Join(dir, "engine.ckpt"),
			WALDir:         walDir,
			WALSyncEvery:   dopts.WALSyncEvery,
			ReplayLimit:    limits[i],
		})
		if err != nil {
			return fail(fmt.Errorf("shard: durable: shard %d: %w", i, err))
		}
		states[i] = &shardState{eng: dur.Engine(), dur: dur}
	}

	d.Engine = assemble(opts, states)
	d.Engine.led = led
	// Replay restores a shard's clock from its own messages only, while
	// every commit had advanced all shards to the round's newest date:
	// realign them, or a crash after the last round leaves the shards
	// that won none of its messages aging their pools behind the rest.
	var now time.Time
	for _, sh := range states {
		d.Engine.global += uint64(sh.eng.Snapshot().Messages)
		if t := sh.eng.Now(); t.After(now) {
			now = t
		}
	}
	for _, sh := range states {
		sh.eng.AdvanceClock(now)
	}

	// Persist the recovered cut before accepting new work: the barrier
	// truncates every trimmed WAL tail, so no re-issued sequence number
	// can ever collide with a stale record.
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, fmt.Errorf("shard: durable: recovery checkpoint: %w", err)
	}
	return d, nil
}

// Replayed sums the messages each shard's WAL contributed at open —
// the work the last crash would have lost without the logs.
func (d *Durable) Replayed() int {
	n := 0
	for _, sh := range d.shards {
		n += sh.dur.Replayed()
	}
	return n
}

// Checkpoint flushes any buffered round, then runs the coordinated
// barrier: every shard drains its flush retries and checkpoints (store
// sync, atomic checkpoint write, WAL truncate) in parallel, the
// manifest records the new cut atomically, and the ledger resets. A
// crash at any point recovers to either the previous cut or this one
// (see the file comment's window analysis).
//
// It is the two steps below back to back; a Service runs them under
// different locks.
func (d *Durable) Checkpoint() error {
	if err := d.prepareCheckpoint(); err != nil {
		return err
	}
	return d.persistCheckpoint()
}

// prepareCheckpoint is the barrier's mutating step: it puts the engine
// between rounds and re-attempts every parked bundle flush.
func (d *Durable) prepareCheckpoint() error {
	if err := d.Flush(); err != nil {
		return err
	}
	d.runPhase(func(_ int, sh *shardState) { sh.dur.DrainRetries() }, nil)
	return nil
}

// persistCheckpoint is the barrier proper. It only reads engine state,
// so queries may run beside it; ingest may not.
func (d *Durable) persistCheckpoint() error {
	t0 := time.Now()
	// The results stay local: a barrier that fails on several shards (a
	// full disk) must leave nothing behind for the next round's commit
	// to mistake for its own failure.
	errs := make([]error, len(d.shards))
	d.runPhase(func(i int, sh *shardState) { errs[i] = sh.dur.Checkpoint() }, nil)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: checkpoint shard %d: %w", i, err)
		}
	}
	man := manifest{Version: manifestVersion, Shards: len(d.shards), Global: d.global}
	for _, sh := range d.shards {
		man.Counts = append(man.Counts, uint64(sh.eng.Snapshot().Messages))
	}
	if err := writeManifest(d.fs, d.dopts.ManifestPath, man); err != nil {
		return err
	}
	if err := d.led.reset(); err != nil {
		return err
	}
	d.ckpts.Inc()
	d.barrierHist.Observe(int64(time.Since(t0)))
	return nil
}

// Checkpoints counts completed barriers (including the recovery one).
func (d *Durable) Checkpoints() int64 { return d.ckpts.Value() }

// LogSize sums the shards' active WAL byte lengths.
func (d *Durable) LogSize() int64 {
	var n int64
	for _, sh := range d.shards {
		n += sh.dur.LogSize()
	}
	return n
}

// RegisterMetrics exposes the durability side on reg: each shard's WAL
// and replay series labeled shard="i" (per-shard WAL size gauges fall
// out of this), plus the barrier counter and duration histogram.
// Pair with Engine.RegisterMetrics for the full sharded instrument
// set.
func (d *Durable) RegisterMetrics(reg *metrics.Registry) {
	for i, sh := range d.shards {
		sh.dur.RegisterMetrics(reg, "shard", fmt.Sprintf("%d", i))
	}
	reg.RegisterCounter("provex_shard_checkpoints_total",
		"Coordinated checkpoint barriers completed across all shards.", &d.ckpts)
	reg.RegisterHistogram("provex_shard_checkpoint_barrier_seconds",
		"Latency of the coordinated checkpoint barrier (per-shard checkpoints, manifest write, ledger reset).",
		d.barrierHist, 1e9)
}

// Close closes every shard's WAL, the ledger, and any stores this
// Durable opened. It does NOT checkpoint — un-checkpointed rounds
// recover from the WALs and ledger.
func (d *Durable) Close() error {
	var first error
	if d.Engine != nil {
		d.closeShards(d.shards)
		if err := d.led.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeShards releases per-shard resources for whichever states were
// opened so far (construction failure paths included).
func (d *Durable) closeShards(states []*shardState) {
	for _, sh := range states {
		if sh != nil && sh.dur != nil {
			sh.dur.Close()
		}
	}
	for _, st := range d.stores {
		st.Close()
	}
	d.stores = nil
}

// readManifest loads the manifest; a missing file is a fresh state.
func readManifest(fsys fsx.FS, path string) (manifest, bool, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("shard: manifest: %w", err)
	}
	defer f.Close()
	var m manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return manifest{}, false, fmt.Errorf("shard: manifest: decode: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, false, fmt.Errorf("shard: manifest: unsupported version %d", m.Version)
	}
	if len(m.Counts) != m.Shards {
		return manifest{}, false, fmt.Errorf("shard: manifest: %d counts for %d shards", len(m.Counts), m.Shards)
	}
	return m, true, nil
}

// writeManifest persists m atomically, so a reader never sees a partial
// manifest.
func writeManifest(fsys fsx.FS, path string, m manifest) error {
	err := fsx.WriteAtomic(fsys, path, func(w io.Writer) error { return json.NewEncoder(w).Encode(m) })
	if err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}
