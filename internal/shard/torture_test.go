package shard

// Crash-torture capstone, one seeded driver over both durable backends:
// ingest a fixed stream under randomized frozen fault injection — every
// mutating filesystem op (on the serial node's WAL, checkpoint and
// store; on any shard's, the manifest or the round ledger) is a
// potential failure point; each failure is followed by a simulated
// crash (the in-memory disk reverts to its last-synced image) and a
// fresh recovery — and assert the final state is IDENTICAL, engine by
// engine, to an uninterrupted run over the same stream. For the sharded
// backend this exercises every barrier window: crashes land mid-round
// (ledger trim), mid-barrier (mixed old/new shard checkpoints) and
// post-manifest (stale ledger cuts ignored).
//
// The resume contract under test is the strong one: recovery always
// lands on an exact stream prefix, so the feeder resumes from applied()
// with no duplicates and no holes. Seeds are fixed and in the subtest
// name, so a failure reproduces exactly. The driver lives here, like
// the Service contract, because pipeline cannot import shard.

import (
	"fmt"
	"math/rand"
	"testing"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/pipeline"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// tortured is one opened durable backend under torture.
type tortured interface {
	applied() int // length of the stream prefix in engine state
	ingest(m *tweet.Message) error
	checkpoint() error // both steps, as the Service runs them
	engines() []*core.Engine
	close()
}

// tortureBackend describes how to torture one backend. open recovers
// whatever fs holds; deep and shallow bound the fault trigger counts
// for "any mutating op" and "one op class".
type tortureBackend struct {
	name          string
	maxRounds     int
	deep, shallow int64
	open          func(fs fsx.FS) (tortured, error)
}

func tortureConfig() core.Config {
	cfg := core.PartialIndexConfig(300)
	// Transient faults must never escalate to permanent drops — a drop
	// is real data loss and would (correctly) break state equality.
	cfg.FlushRetry.MaxAttempts = 1 << 30
	cfg.FlushRetry.MaxQueue = 1 << 20
	return cfg
}

var tortureStore = storage.Options{SegmentSize: 8192, SyncEvery: 4}

type serialTortured struct {
	d  *pipeline.Durable
	st *storage.Store
}

func openSerialTortured(fs fsx.FS) (tortured, error) {
	sOpts := tortureStore
	sOpts.FS = fs
	st, err := storage.Open("store", sOpts)
	if err != nil {
		return nil, fmt.Errorf("store reopen: %w", err)
	}
	d, err := pipeline.OpenDurable(tortureConfig(), st, nil, pipeline.DurableOptions{
		FS: fs, CheckpointPath: "engine.ckpt", WALDir: "wal",
		WALSyncEvery: 1, // acknowledged == durable
	})
	if err != nil {
		return nil, err
	}
	return serialTortured{d, st}, nil
}

func (s serialTortured) applied() int { return int(s.d.Engine().Snapshot().Messages) }

// ingest logs, syncs and applies, in the order the Service's two stages
// do.
func (s serialTortured) ingest(m *tweet.Message) error {
	if err := s.d.Log(&m.Post); err != nil {
		return err
	}
	if err := s.d.SyncWAL(); err != nil {
		return err
	}
	s.d.Engine().Insert(m)
	return nil
}

func (s serialTortured) checkpoint() error {
	s.d.DrainRetries()
	return s.d.Checkpoint()
}

func (s serialTortured) engines() []*core.Engine { return []*core.Engine{s.d.Engine()} }

func (s serialTortured) close() {
	s.d.Close()
	s.st.Close()
}

type shardedTortured struct{ *Durable }

func openShardedTortured(fs fsx.FS) (tortured, error) {
	// ckptEvery is a multiple of the batch: barriers sit on round
	// boundaries, so cadence does not shape the rounds.
	const batch = 50
	dOpts := testDurableOpts(fs)
	dOpts.Store = &tortureStore
	d, err := OpenDurable(tortureConfig(), Options{Shards: 4, Batch: batch}, dOpts)
	if err != nil {
		return nil, err
	}
	if d.Global()%batch != 0 {
		return nil, fmt.Errorf("recovered prefix %d is not a round boundary", d.Global())
	}
	return shardedTortured{d}, nil
}

func (s shardedTortured) applied() int                  { return int(s.Global()) }
func (s shardedTortured) ingest(m *tweet.Message) error { return s.Ingest(m) }
func (s shardedTortured) checkpoint() error             { return s.Checkpoint() }
func (s shardedTortured) engines() []*core.Engine       { return shardEngines(s.Engine) }
func (s shardedTortured) close()                        { s.Close() }

func TestCrashTorture(t *testing.T) {
	for _, be := range []tortureBackend{
		{name: "serial", maxRounds: 60, deep: 1000, shallow: 40, open: openSerialTortured},
		{name: "sharded", maxRounds: 80, deep: 2000, shallow: 60, open: openShardedTortured},
	} {
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			t.Run(fmt.Sprintf("%s/seed=%d", be.name, seed), func(t *testing.T) {
				tortureRun(t, be, seed)
			})
		}
	}
}

func tortureRun(t *testing.T, be tortureBackend, seed int64) {
	const (
		total     = 2500
		ckptEvery = 500
	)
	rng := rand.New(rand.NewSource(seed))
	msgs := genMessages(seed, total)

	// feed ingests msgs[from:] with the checkpoint cadence; it stops at
	// the first failure.
	feed := func(d tortured, from int) error {
		for i := from; i < total; i++ {
			if err := d.ingest(msgs[i]); err != nil {
				return err
			}
			if (i+1)%ckptEvery == 0 {
				if err := d.checkpoint(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Uninterrupted reference run on a pristine disk, same cadence.
	ref, err := be.open(fsx.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if err := feed(ref, 0); err != nil {
		t.Fatal(err)
	}
	if err := ref.checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Tortured run: same stream, same config, hostile disk.
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	ops := fsx.MutatingOps()
	crashes := 0
	for round := 0; ; round++ {
		if round >= be.maxRounds {
			t.Fatalf("still not converged after %d rounds", be.maxRounds)
		}
		d, err := be.open(ff)
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		done := d.applied()

		// Arm one randomized frozen fault: once it trips, the armed op
		// class keeps failing until the crash — a dying disk, not a
		// blip. Alternate between "any mutating op" (deep trigger
		// counts) and a single op class (shallow counts, so rare ops
		// like rename and remove get hit too).
		fault := fsx.Fault{Freeze: true}
		switch rng.Intn(3) {
		case 0:
			fault.Err = fsx.ErrNoSpace
		case 1:
			fault.TornBytes = rng.Intn(8)
			fault.Err = fsx.ErrNoSpace
		}
		// Round 0 always arms across every op class: the full stream
		// runs more mutating ops than deep, so at least one crash is
		// certain.
		if round == 0 || rng.Intn(2) == 0 {
			ff.Arm(1+rng.Int63n(be.deep), fault, ops...)
		} else {
			ff.Arm(1+rng.Int63n(be.shallow), fault, ops[rng.Intn(len(ops))])
		}

		crashed := feed(d, done) != nil
		ff.Disarm()
		if !crashed {
			if err := d.checkpoint(); err != nil {
				t.Fatalf("round %d: clean-path checkpoint: %v", round, err)
			}
			// A fault may have latched an open store (unrepairable
			// tail) without surfacing through ingest; parked bundles
			// then need one more recovery cycle to land.
			for _, e := range d.engines() {
				crashed = crashed || e.Snapshot().FlushParked > 0
			}
		}
		if crashed {
			crashes++
			mem.Crash()
			continue
		}
		d.close()
		break
	}
	t.Logf("survived %d crashes", crashes)
	if crashes == 0 {
		t.Fatal("no fault ever tripped — the torture is not torturing")
	}

	// One last crash: the clean shutdown must have made everything
	// durable, so the post-crash image recovers to full state, equal to
	// the reference engine by engine — counters, ID watermarks, clocks,
	// live bundles, stores — and as one partition of the stream.
	mem.Crash()
	d, err := be.open(mem)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer d.close()
	if d.applied() != total {
		t.Fatalf("recovered prefix = %d, want %d", d.applied(), total)
	}
	want, got := ref.engines(), d.engines()
	for i := range want {
		if err := got[i].Err(); err != nil {
			t.Fatalf("engine %d: recovered degraded: %v", i, err)
		}
		assertEnginesEqual(t, i, want[i], got[i])
	}
	assertPartitionsEqual(t, livePartition(want...), livePartition(got...))
}

// assertEnginesEqual compares the deterministic portion of two engines
// — message/edge counters, pool statistics, the bundle ID watermark,
// the clock, live bundle bytes — and the logical content of their
// bundle stores. Flush/timer stats legitimately differ.
func assertEnginesEqual(t *testing.T, i int, want, got *core.Engine) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	if ws.Messages != gs.Messages || ws.EdgesCreated != gs.EdgesCreated ||
		ws.BundlesCreated != gs.BundlesCreated || ws.BundlesLive != gs.BundlesLive ||
		ws.Pool != gs.Pool {
		t.Fatalf("engine %d: stats differ:\n got %+v\nwant %+v", i, gs, ws)
	}
	if want.Pool().NextID() != got.Pool().NextID() {
		t.Fatalf("engine %d: NextID %d, want %d", i, got.Pool().NextID(), want.Pool().NextID())
	}
	if want.Now() != got.Now() {
		t.Fatalf("engine %d: clock %v, want %v", i, got.Now(), want.Now())
	}
	want.Pool().All(func(b *bundle.Bundle) {
		g := got.Pool().Get(b.ID())
		if g == nil || string(g.Marshal()) != string(b.Marshal()) {
			t.Fatalf("engine %d: live bundle %d differs", i, b.ID())
		}
	})
	wst, gst := want.Store(), got.Store()
	wids, gids := wst.IDs(), gst.IDs()
	if len(wids) != len(gids) {
		t.Fatalf("engine %d: store sizes differ: got %d want %d", i, len(gids), len(wids))
	}
	for _, id := range wids {
		wb, err := wst.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := gst.Get(id)
		if err != nil {
			t.Fatalf("engine %d: stored bundle %d missing: %v", i, id, err)
		}
		if string(wb.Marshal()) != string(gb.Marshal()) {
			t.Fatalf("engine %d: stored bundle %d differs", i, id)
		}
	}
}
