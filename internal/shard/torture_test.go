package shard

// Crash-torture capstone, one seeded harness over every durable shape:
// the serial node, the sharded node and a follower. For the first two
// it ingests a fixed stream under randomized frozen fault injection —
// every mutating filesystem op (on the serial node's WAL, checkpoint
// and store; on any shard's, or the round ledger's files) is a
// potential failure point; each failure is followed by a simulated
// crash (the in-memory disk reverts to its last-synced image) and a
// fresh recovery — and asserts the final state is IDENTICAL, engine by
// engine, to an uninterrupted run over the same stream. For the sharded
// backend this exercises every barrier window: crashes land mid-round
// (ledger trim) and mid-barrier (mixed old/new shard checkpoints, the
// ledger's new file not yet holding the barrier's cut). The follower
// shape (tortureFollower) puts a repl.Replica on the tortured disk and
// its leader's wire behind a repl.FaultTransport; both faults trip on
// the one schedule, fsx.Trigger.
//
// The resume contract under test is the strong one: recovery always
// lands on an exact stream prefix, so the feeder resumes from applied()
// with no duplicates and no holes. Seeds are fixed and in the subtest
// name, and a failing seed prints each round's fault and recovered
// prefix. The harness lives here, like the Service contract, because
// pipeline cannot import shard, and repl does not.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/promtext"
	"provex/internal/query"
	"provex/internal/repl"
	"provex/internal/server"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// tortured is one opened durable backend under torture.
type tortured interface {
	applied() int // length of the stream prefix in engine state
	ingest(run []*tweet.Message) error
	checkpoint() error // both steps, as the Service runs them
	engines() []*core.Engine
	close()
}

// tortureBackend describes how to torture one backend. open recovers
// whatever fs holds; deep and shallow bound the fault trigger counts
// for "any mutating op" and "one op class". deep stays below the
// mutating ops of a clean run (about 750 serial, one fsync a run; about
// 5 900 sharded), so round 0 always crashes.
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

// tortureStore is the production store, with segments small enough to
// rotate many times over the stream.
var tortureStore = storage.Options{SegmentSize: 8192}

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
	})
	if err != nil {
		return nil, err
	}
	return serialTortured{d, st}, nil
}

func (s serialTortured) applied() int { return int(s.d.Engine().Snapshot().Messages) }

// ingest logs the run, syncs it with one fsync and applies it, as the
// Service's log stage and writer do with a batch.
func (s serialTortured) ingest(run []*tweet.Message) error {
	for _, m := range run {
		if err := s.d.Log(m); err != nil {
			return err
		}
	}
	if err := s.d.SyncWAL(); err != nil {
		return err
	}
	for _, m := range run {
		s.d.Engine().Insert(m)
	}
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

func (s shardedTortured) applied() int { return int(s.Global()) }

func (s shardedTortured) ingest(run []*tweet.Message) error {
	for _, m := range run {
		if err := s.Ingest(m); err != nil {
			return err
		}
	}
	return nil
}

func (s shardedTortured) checkpoint() error       { return s.Checkpoint() }
func (s shardedTortured) engines() []*core.Engine { return shardEngines(s.Engine) }
func (s shardedTortured) close()                  { s.Close() }

func TestCrashTorture(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	for _, be := range []tortureBackend{
		{name: "serial", maxRounds: 60, deep: 600, shallow: 40, open: openSerialTortured},
		{name: "sharded", maxRounds: 80, deep: 2000, shallow: 60, open: openShardedTortured},
	} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", be.name, seed), func(t *testing.T) {
				tortureRun(t, be, seed)
			})
		}
	}
	var seen followerSeen
	var rounds []string
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("follower/seed=%d", seed), func(t *testing.T) {
			rounds = append(rounds, tortureFollower(t, seed, &seen))
		})
	}
	// Over the follower's seeds every recovery path must have run, or
	// the shape proves less than it claims.
	if len(rounds) == len(seeds) && !t.Failed() && seen != (followerSeen{true, true, true}) {
		t.Fatalf("over %d follower seeds: crashed %v, resynced after a disk fault %v, after a 410 %v; want all\n%s",
			len(seeds), seen.crashed, seen.diskResync, seen.goneResync, strings.Join(rounds, "\n"))
	}
}

// armDiskFault draws one frozen fault from rng and arms it on ff: once
// it trips, the armed op class keeps failing until the crash — a dying
// disk, not a blip. It alternates between "any mutating op" (deep
// trigger counts) and a single op class (shallow counts, so rare ops
// like rename and remove get hit too); round 0 always arms across every
// op class. It returns the fault as a round's log line names it.
func armDiskFault(rng *rand.Rand, ff *fsx.FaultFS, round int, deep, shallow int64) string {
	fault := fsx.Fault{Freeze: true, Err: fsx.ErrInjected}
	switch rng.Intn(3) {
	case 0:
		fault.Err = fsx.ErrNoSpace
	case 1:
		fault.TornBytes = rng.Intn(8)
		fault.Err = fsx.ErrNoSpace
	}
	ops, class := fsx.MutatingOps(), "any op"
	var nth int64
	if round == 0 || rng.Intn(2) == 0 {
		nth = 1 + rng.Int63n(deep)
	} else {
		nth = 1 + rng.Int63n(shallow)
		ops = ops[rng.Intn(len(ops)):][:1]
		class = ops[0].String()
	}
	ff.Arm(nth, fault, ops...)
	return fmt.Sprintf("disk: %s #%d fails (%v, torn %d)", class, nth, fault.Err, fault.TornBytes)
}

// roundLog keeps, for one seed, what each round did; a failing seed
// prints it.
type roundLog struct {
	name  string
	lines []string
}

func newRoundLog(t *testing.T) *roundLog {
	l := &roundLog{name: t.Name()}
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(l)
		}
	})
	return l
}

func (l *roundLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("round %d: ", len(l.lines))+fmt.Sprintf(format, args...))
}

func (l *roundLog) String() string {
	return fmt.Sprintf("rounds of %s:\n%s", l.name, strings.Join(l.lines, "\n"))
}

func tortureRun(t *testing.T, be tortureBackend, seed int64) {
	const (
		total     = 2500
		ckptEvery = 500
	)
	rng := rand.New(rand.NewSource(seed))
	runs := rand.New(rand.NewSource(seed))
	msgs := genMessages(seed, total)

	// feed ingests msgs[from:] with the checkpoint cadence; it stops at
	// the first failure. The messages go over in seeded runs of 1–64,
	// cut at each checkpoint as the log stage cuts its batch at the
	// barrier.
	feed := func(d tortured, from int) error {
		for i := from; i < total; {
			end := min(i+1+runs.Intn(64), total, (i/ckptEvery+1)*ckptEvery)
			if err := d.ingest(msgs[i:end]); err != nil {
				return err
			}
			if i = end; i%ckptEvery == 0 {
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
	rounds := newRoundLog(t)
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

		fault := armDiskFault(rng, ff, round, be.deep, be.shallow)
		rounds.add("recovered %d; %s", done, fault)

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
	want.Pool().All(func(b bundle.Ref) {
		g := got.Pool().Get(b.ID())
		if g.IsZero() || g.Bundle() == nil != (b.Bundle() == nil) || string(g.AppendMarshal(nil)) != string(b.AppendMarshal(nil)) {
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
		if string(wb.AppendMarshal(nil)) != string(gb.AppendMarshal(nil)) {
			t.Fatalf("engine %d: stored bundle %d differs", i, id)
		}
	}
}

// The follower shape: a repl.Replica on the tortured disk tails a
// leader pipeline.Service on a clean one through a repl.FaultTransport.
// Both run core.FullIndexConfig with no bundle store, because a
// follower has none; under a bounded pool a node without a store that
// reopens indexes only the messages its pool still holds
// (query.Processor.Reindex), so its /search would score against fewer
// messages than the leader's. Each round the leader first moves on by a seeded
// run of the stream — across one of its checkpoints now and then, so a
// follower that was down meets a 410 and resyncs — and stands still;
// then the follower opens on whatever its disk holds, under one disk
// fault and one transport fault drawn from the seed, and the test
// waits until the disk fault trips or the follower has caught up. A
// tripped round ends, by a seeded coin, in a crash (Stop under the
// frozen fault, then MemFS.Crash) or a heal (Disarm, and the follower
// must catch up by itself: a pipeline that latched the failure resyncs
// from the leader). Every other round ends in a clean Stop and a crash,
// which must lose nothing. The plan replays from the seed; where in the
// follower's work its fault lands is the scheduler's.
const (
	followerTotal     = 1200
	followerRounds    = 40
	leaderCkptEvery   = 200
	followerCkptEvery = 150
	// A follower round runs about 15 to 100 mutating ops: its open, a
	// WAL write and fsync per applied batch, a checkpoint every
	// followerCkptEvery messages and at Stop, a download per (re)sync.
	followerDeep, followerShallow = 25, 10
)

// parityPaths are the reads the follower tests compare byte for byte.
var parityPaths = []string{
	"/search?q=tsunami&k=25",
	"/search?q=samoa+message&k=10",
	"/prov?q=tsunami&k=10",
	"/trending?k=10",
}

// followerSeen says which recovery paths a follower seed went through.
type followerSeen struct{ crashed, diskResync, goneResync bool }

// tortureLeader is the follower shape's leader: a durable Service with
// its replication source and reads behind one handler.
type tortureLeader struct {
	svc *pipeline.Service
	dur *pipeline.Durable
	reg *metrics.Registry // the source's provex_repl_ship_* series
	h   http.Handler
	srv *httptest.Server
	n   int // messages fed
}

func openTortureLeader(t *testing.T) *tortureLeader {
	dur, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, pipeline.DurableOptions{
		FS: fsx.NewMem(), CheckpointPath: "leader.ckpt", WALDir: "leader-wal",
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := pipeline.New(query.New(dur.Engine(), query.DefaultOptions()),
		pipeline.Options{Durable: dur, CheckpointEvery: leaderCkptEvery})
	svc.Start()
	src := repl.NewSource(dur)
	l := &tortureLeader{svc: svc, dur: dur, reg: metrics.NewRegistry(), h: server.New(svc, server.WithReplication(src))}
	src.RegisterMetrics(l.reg)
	l.srv = httptest.NewServer(l.h)
	t.Cleanup(func() {
		l.srv.Close()
		l.svc.Stop()
		l.dur.Close()
	})
	return l
}

// feed ingests run and waits until it is applied and every checkpoint
// it crossed is written: the leader stands still through the round.
func (l *tortureLeader) feed(t *testing.T, run []*tweet.Message) {
	for _, m := range run {
		if err := l.svc.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	l.n += len(run)
	waitFor(t, "the leader to ingest", func() bool {
		return l.svc.Ingested() == l.n && l.svc.Checkpoints() == l.n/leaderCkptEvery
	})
}

// metric reads one unlabelled series of reg.
func metric(t *testing.T, reg *metrics.Registry, name string) float64 {
	var b bytes.Buffer
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	m, err := promtext.Parse(&b)
	if err != nil {
		t.Fatal(err)
	}
	return m[name]
}

// get answers path from h.
func get(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// armTransportFault draws one transport fault from rng and arms it on
// ft, one-shot: a request error, a body torn inside its records, a
// stale cursor, a 503 or a stall.
func armTransportFault(rng *rand.Rand, ft *repl.FaultTransport) string {
	var f repl.TransportFault
	kind := "request error"
	switch rng.Intn(5) {
	case 1:
		f.TornBytes = 1 + rng.Intn(600)
		kind = fmt.Sprintf("torn at %d", f.TornBytes)
	case 2:
		f.StaleOffset, kind = true, "stale cursor"
	case 3:
		f.Status, kind = http.StatusServiceUnavailable, "503"
	case 4:
		f.Stall, kind = 20*time.Millisecond, "stall"
	}
	nth := 1 + rng.Int63n(8)
	ft.Arm(nth, f)
	return fmt.Sprintf("wire: request #%d %s", nth, kind)
}

// tortureFollower runs one seed of the follower shape, marks in seen
// the recovery paths it went through, and returns its round log.
func tortureFollower(t *testing.T, seed int64, seen *followerSeen) string {
	rng := rand.New(rand.NewSource(seed))
	msgs := genMessages(seed, followerTotal)
	lead := openTortureLeader(t)
	rounds := newRoundLog(t)

	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	ft := repl.NewFaultTransport(nil)
	open := func(maxBatch int) (*repl.Replica, *metrics.Registry) {
		r, err := repl.NewReplica(lead.srv.URL, core.FullIndexConfig(), repl.ReplicaOptions{
			FS: ff, CheckpointPath: "follower.ckpt", WALDir: "follower-wal",
			CheckpointEvery: followerCkptEvery,
			Client:          &http.Client{Transport: ft, Timeout: 5 * time.Second},
			PollInterval:    time.Millisecond,
			MaxBatchBytes:   maxBatch,
			StaleAfter:      time.Minute,
			BackoffBase:     time.Millisecond,
			BackoffCap:      10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		r.RegisterMetrics(reg)
		r.Start()
		return r, reg
	}
	caughtUp := func(r *repl.Replica) bool { return r.Applied() == uint64(lead.n) && r.Health().Ready }

	for round := 0; ; round++ {
		if round == followerRounds {
			t.Fatalf("still not converged after %d rounds", round)
		}
		// The round's plan, all of it from the seed.
		run := 50 + rng.Intn(350)
		maxBatch := 256 + rng.Intn(4096)
		heal := rng.Intn(2) == 0
		lead.feed(t, msgs[lead.n:min(lead.n+run, followerTotal)])
		gone := metric(t, lead.reg, "provex_repl_ship_resyncs_total")
		disk := armDiskFault(rng, ff, round, followerDeep, followerShallow)
		wire := armTransportFault(rng, ft)
		r, reg := open(maxBatch)
		waitFor(t, "a trip or the catch-up", func() bool { return ff.Tripped() || caughtUp(r) })
		tripped := ff.Tripped()
		end := "caught up"
		switch {
		case tripped && !heal:
			// Stop under the frozen fault: the final checkpoint fails and
			// nothing is repaired; then the power goes.
			_ = r.Stop()
			ff.Disarm()
			ft.Disarm()
			mem.Crash()
			seen.crashed = true
			rounds.add("leader at %d; %s; %s; tripped, crashed at %d", lead.n, disk, wire, r.Applied())
			continue
		case tripped:
			// A pipeline that latched the failure says so for as long as
			// the frozen fault stands: nothing can replace it until then.
			var reason string
			waitFor(t, "the fault to show", func() bool {
				h := r.Health()
				reason = h.Reason
				return !h.Ready || caughtUp(r)
			})
			installs := metric(t, reg, "provex_repl_bootstraps_total")
			ff.Disarm()
			ft.Disarm()
			waitFor(t, "the healed follower to catch up", func() bool { return caughtUp(r) })
			if strings.Contains(reason, "local durability degraded") && metric(t, reg, "provex_repl_bootstraps_total") > installs {
				seen.diskResync = true
			}
			end = fmt.Sprintf("tripped (%q), healed", reason)
		}
		ff.Disarm()
		ft.Disarm()
		// The leader stood still, so a follower that met a 410 and then
		// caught up installed a newer leader checkpoint.
		if metric(t, lead.reg, "provex_repl_ship_resyncs_total") > gone {
			seen.goneResync = true
			end += " after a 410"
		}
		if err := r.Stop(); err != nil {
			t.Fatalf("round %d: clean stop: %v", round, err)
		}
		mem.Crash()
		rounds.add("leader at %d; %s; %s; %s, stopped at %d", lead.n, disk, wire, end, r.Applied())
		if !tripped && lead.n == followerTotal {
			break
		}
	}

	// The last round stopped cleanly before its crash, so the follower
	// recovers everything from its own disk and equals the leader: the
	// deterministic statistics, every live bundle and the parity reads,
	// byte for byte.
	r, _ := open(1 << 20)
	defer r.Stop()
	waitFor(t, "the final catch-up", func() bool { return caughtUp(r) })
	ws, gs := lead.svc.Snapshot(), r.Snapshot()
	if ws.Messages != gs.Messages || ws.EdgesCreated != gs.EdgesCreated ||
		ws.BundlesCreated != gs.BundlesCreated || ws.BundlesLive != gs.BundlesLive || ws.Pool != gs.Pool {
		t.Fatalf("follower stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	// The leader is idle; its writer's last change happened before the
	// read lock Snapshot just took.
	paths := append([]string(nil), parityPaths...)
	lead.dur.Engine().Pool().All(func(b bundle.Ref) { paths = append(paths, fmt.Sprintf("/bundle?id=%d", b.ID())) })
	fh := server.New(r, server.WithHealth(r.Health))
	for _, p := range paths {
		lc, lb := get(lead.h, p)
		fc, fb := get(fh, p)
		if lc != http.StatusOK || fc != lc || fb != lb {
			t.Fatalf("%s: leader %d, follower %d\nleader:   %s\nfollower: %s", p, lc, fc, lb, fb)
		}
	}
	t.Logf("survived %d rounds", len(rounds.lines))
	return rounds.String()
}
