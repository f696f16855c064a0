package shard

// The Service contract: one table of cases run over both backends of
// pipeline.Service, each durable and memory-only — the serial engine
// with and without a pipeline.Durable, the sharded engine behind
// shard.Durable (N=3, B=16) and without one (N=3, B=1). The cases that
// need durable state skip the memory-only rows. The suite lives here
// because pipeline cannot import shard.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/storage"
	"provex/internal/trending"
	"provex/internal/tweet"
	"provex/internal/wal"
)

// deployment is one opened backend behind its Service.
type deployment struct {
	svc       *Service
	replayed  int           // messages the WALs contributed at open
	walSynced func() uint64 // a watermark readable beside ingest; nil for none
	liveIDs   func() []bundle.ID
	close     func() error
}

// liveIDs lists the live bundles of every engine behind a deployment.
func liveIDs(engines ...*core.Engine) func() []bundle.ID {
	return func() (ids []bundle.ID) {
		for _, e := range engines {
			e.Pool().All(func(b bundle.Ref) { ids = append(ids, b.ID()) })
		}
		return ids
	}
}

// plainSerial is the serial backends' reference: the same engine fed by
// a bare insert loop, no Service.
func plainSerial(msgs []*tweet.Message) core.Stats {
	e := core.New(core.PartialIndexConfig(500), nil, nil)
	for _, m := range msgs {
		e.Insert(m)
	}
	return e.Snapshot()
}

var memShardOpts = Options{Shards: 3, Batch: 1}

// contractBackends lists how to open each backend on fs (the
// memory-only ones ignore it). opts carries the ingest-loop settings
// (Buffer, CheckpointEvery). plain, where set, is the state a bare
// ingest loop over the same engine shape ends in; the durable sharded
// backend has none, because at B=16 the end state depends on where the
// idle flush cut the rounds.
type contractBackend struct {
	name    string
	durable bool
	open    func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment
	plain   func(msgs []*tweet.Message) core.Stats
}

var contractBackends = []contractBackend{
	{"serial", true, func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment {
		d, err := pipeline.OpenDurable(core.PartialIndexConfig(500), nil, nil, pipeline.DurableOptions{
			FS: fs, CheckpointPath: "engine.ckpt", WALDir: "wal",
		})
		if err != nil {
			t.Fatal(err)
		}
		proc := query.New(d.Engine(), query.DefaultOptions())
		proc.Reindex()
		opts.Durable = d
		return deployment{
			svc:      pipeline.New(proc, opts),
			replayed: d.Replayed(),
			walSynced: func() uint64 {
				// As replication reads it; asking past every sequence
				// reads no record.
				b, _ := d.ReadWAL(math.MaxUint64, wal.Cursor{}, 0)
				return b.Synced
			},
			liveIDs: liveIDs(d.Engine()),
			close:   d.Close,
		}
	}, plainSerial},
	{"sharded", true, func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment {
		q := query.DefaultOptions()
		d, err := OpenDurable(core.PartialIndexConfig(500), Options{Shards: 3, Batch: 16, Query: &q}, testDurableOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Reindex()
		return deployment{
			// NewService's own wiring, with the loop settings the
			// cases vary.
			svc:      pipeline.NewWith(backend{d.proc, d.Engine, d}, opts),
			replayed: d.Replayed(),
			liveIDs:  liveIDs(shardEngines(d.Engine)...),
			close:    d.Close,
		}
	}, nil},
	// The shapes provserve -n 50000 runs: no Durable, nothing on disk.
	{"serial-mem", false, func(t *testing.T, _ fsx.FS, opts pipeline.Options) deployment {
		e := core.New(core.PartialIndexConfig(500), nil, nil)
		return deployment{
			svc:     pipeline.New(query.New(e, query.DefaultOptions()), opts),
			liveIDs: liveIDs(e),
			close:   func() error { return nil },
		}
	}, plainSerial},
	{"sharded-mem", false, func(t *testing.T, _ fsx.FS, opts pipeline.Options) deployment {
		q := query.DefaultOptions()
		mo := memShardOpts
		mo.Query = &q
		e, err := New(core.PartialIndexConfig(500), mo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return deployment{
			svc:     pipeline.NewWith(backend{e.proc, e, nil}, opts),
			liveIDs: liveIDs(shardEngines(e)...),
			close:   func() error { return nil },
		}
	}, func(msgs []*tweet.Message) core.Stats {
		e, _ := New(core.PartialIndexConfig(500), memShardOpts, nil, nil)
		for _, m := range msgs {
			_ = e.Ingest(m) // a memory-only round cannot fail
		}
		return e.Snapshot()
	}},
}

// comparable strips the stage timers (wall-clock, legitimately
// different across runs) from a Stats for equality checks.
func comparable(s core.Stats) core.Stats {
	s.PrepareTime, s.MatchTime, s.PlaceTime, s.RefineTime = 0, 0, 0, 0
	return s
}

func submitAll(t *testing.T, s *Service, next func() *tweet.Message, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Submit(next()); err != nil {
			t.Fatal(err)
		}
	}
}

// submitWeak submits n messages and returns weak pointers to them; the
// messages themselves do not outlive the call.
func submitWeak(t *testing.T, s *Service, next func() *tweet.Message, n int) []weak.Pointer[tweet.Message] {
	t.Helper()
	ws := make([]weak.Pointer[tweet.Message], n)
	for i := range ws {
		m := next()
		ws[i] = weak.Make(m)
		if err := s.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// waitFor polls cond until it holds; the writer goroutine is
// asynchronous, so cases that must not Stop observe it this way.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// walkBundle reads everything Bundle and Trail return for id, from a
// goroutine that holds no lock: query.Reader says the value is the
// caller's, so under -race this fails if any of it is still the
// writer's. Runs beside the test goroutine, hence Errorf only.
func walkBundle(t *testing.T, s *Service, id bundle.ID) {
	d, err := s.Bundle(id)
	if errors.Is(err, storage.ErrNotFound) {
		return // refined out of the bounded pool since the read that named it
	}
	if err != nil || d.ID != id || len(d.Nodes) == 0 || len(d.Summary) == 0 {
		t.Errorf("Bundle(%d) = %d nodes, summary %v, err %v", id, len(d.Nodes), d.Summary, err)
		return
	}
	for i, n := range d.Nodes {
		if n.Msg.Text() == "" || int(n.Parent) >= i || n.Msg.Time().Before(d.Start) || n.Msg.Time().After(d.End) {
			t.Errorf("Bundle(%d): node %d = %+v outside the bundle's shape", id, i, n)
			return
		}
	}
	// A bundle only grows, so the trail drawn later has at least a
	// header and one line per node seen above.
	trail, err := s.Trail(id)
	if lines := strings.Count(trail, "\n"); err == nil && lines <= len(d.Nodes) {
		t.Errorf("Trail(%d) has %d lines after Bundle saw %d nodes", id, lines, len(d.Nodes))
	}
}

func TestServiceContract(t *testing.T) {
	cases := []struct {
		name    string
		durable bool // needs state that survives the Service
		run     func(t *testing.T, be contractBackend)
	}{
		{"ingest query resume", true, func(t *testing.T, be contractBackend) {
			mem := fsx.NewMem()
			d := be.open(t, mem, pipeline.Options{CheckpointEvery: 1000})
			s := d.svc
			s.Start()
			const n = 4000
			submitAll(t, s, smallGen(3).Next, n)
			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
			if s.Ingested() != n {
				t.Fatalf("Ingested = %d, want %d", s.Ingested(), n)
			}
			if s.Checkpoints() < 2 {
				t.Fatalf("Checkpoints = %d, want cadence + final", s.Checkpoints())
			}
			if st := s.Snapshot(); st.Messages != n || st.BundlesCreated == 0 {
				t.Fatalf("stats = %+v", st)
			}

			// Hits come back in the serial tie order, whether one engine
			// ranked them or a merge across shards did.
			bundles := s.SearchBundles("the", 10)
			if len(bundles) > 10 {
				t.Fatalf("SearchBundles overflowed k: %d", len(bundles))
			}
			for i := 1; i < len(bundles); i++ {
				a, b := bundles[i-1], bundles[i]
				if a.Score < b.Score || (a.Score == b.Score && a.ID > b.ID) {
					t.Fatalf("order violated at %d: %+v then %+v", i, a, b)
				}
			}
			if top := s.Trending(5); len(top) > 5 {
				t.Fatalf("Trending overflowed k: %d", len(top))
			}
			// Point lookups: every live bundle (on every shard) must
			// resolve through the facade.
			ids := d.liveIDs()
			if len(ids) == 0 {
				t.Fatal("no live bundles to look up")
			}
			for _, id := range ids {
				if _, err := s.Bundle(id); err != nil {
					t.Fatalf("Bundle(%d): %v", id, err)
				}
			}
			if trail, err := s.Trail(ids[0]); err != nil || trail == "" {
				t.Fatalf("Trail(%d) = (%q, %v)", ids[0], trail, err)
			}
			if err := d.close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: the stopped service checkpointed everything, so the
			// recovered state resumes at the full stream with nothing to
			// replay — and a new writer has ingested nothing yet.
			d2 := be.open(t, mem, pipeline.Options{})
			if got := d2.svc.Snapshot().Messages; got != n {
				t.Fatalf("resumed Messages = %d, want %d", got, n)
			}
			if got := d2.svc.Ingested(); got != 0 {
				t.Fatalf("resumed Ingested = %d, want 0 (recovered messages are not this writer's)", got)
			}
			if d2.replayed != 0 {
				t.Fatalf("replayed = %d after clean stop, want 0", d2.replayed)
			}
			if err := d2.close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"submit after stop", false, func(t *testing.T, be contractBackend) {
			d := be.open(t, fsx.NewMem(), pipeline.Options{})
			defer d.close()
			d.svc.Start()
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			err := d.svc.Submit(&tweet.Message{ID: 1, User: "u", Text: "x", Date: time.Now().UnixNano()})
			if !errors.Is(err, pipeline.ErrClosed) {
				t.Errorf("Submit after Stop = %v, want ErrClosed", err)
			}
			if err := d.svc.Stop(); err != nil {
				t.Errorf("second Stop = %v", err)
			}
		}},
		// Hammers the read path while the log stage group-commits and the
		// writer ingests and crosses checkpoint barriers; under -race this
		// verifies the locking discipline.
		{"concurrent queries during ingest", false, func(t *testing.T, be contractBackend) {
			d := be.open(t, fsx.NewMem(), pipeline.Options{Buffer: 64, CheckpointEvery: 350})
			defer d.close()
			s := d.svc
			s.Start()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// The trail view of the largest bundle the reads just
						// named — the one the writer is most likely appending to.
						big := query.BundleHit{}
						for _, h := range s.SearchBundles("game win", 5) {
							if h.Size > big.Size {
								big = h
							}
						}
						for _, tp := range s.Trending(5) {
							if tp.Size > big.Size {
								big = query.BundleHit{ID: tp.ID, Size: tp.Size}
							}
						}
						if big.Size > 0 {
							walkBundle(t, s, big.ID)
						}
						s.SearchMessages("game", 5)
						s.Snapshot()
						s.Ingested()
						s.Checkpoints()
						if d.walSynced != nil {
							d.walSynced()
						}
					}
				}()
			}
			submitAll(t, s, smallGen(2).Next, 1500)
			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			if s.Ingested() != 1500 {
				t.Errorf("Ingested = %d", s.Ingested())
			}
			// 4 on cadence + 1 final, or none at all without a Durable.
			want := 0
			if be.durable {
				want = 5
			}
			if got := s.Checkpoints(); got != want {
				t.Errorf("Checkpoints = %d, want %d", got, want)
			}
		}},
		{"checkpoint cadence and resume", true, func(t *testing.T, be contractBackend) {
			mem := fsx.NewMem()
			d := be.open(t, mem, pipeline.Options{CheckpointEvery: 500})
			d.svc.Start()
			const n = 2200
			submitAll(t, d.svc, smallGen(3).Next, n)
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			// 4 on cadence (a round may overshoot 500 by less than a
			// batch, never enough to lose or gain one) + 1 final.
			if got := d.svc.Checkpoints(); got != 5 {
				t.Errorf("Checkpoints = %d, want 5", got)
			}
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			// A crash after the clean stop loses nothing: the final
			// checkpoint alone restores the full state.
			mem.Crash()
			d2 := be.open(t, mem, pipeline.Options{})
			defer d2.close()
			if got := d2.svc.Snapshot().Messages; got != n {
				t.Errorf("restored messages = %d, want %d", got, n)
			}
			if d2.replayed != 0 {
				t.Errorf("replayed = %d, want 0: the final checkpoint truncates the WAL", d2.replayed)
			}
		}},
		// The satellite bug: a writer built on recovered state owes no
		// checkpoint until it has itself applied CheckpointEvery messages.
		{"no checkpoint before cadence after restart", true, func(t *testing.T, be contractBackend) {
			mem := fsx.NewMem()
			g := smallGen(6)
			d := be.open(t, mem, pipeline.Options{CheckpointEvery: 1000})
			d.svc.Start()
			submitAll(t, d.svc, g.Next, 1500)
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := d.close(); err != nil {
				t.Fatal(err)
			}

			d2 := be.open(t, mem, pipeline.Options{CheckpointEvery: 1000})
			defer d2.close()
			s := d2.svc
			s.Start()
			submitAll(t, s, g.Next, 200)
			waitFor(t, "200 messages applied", func() bool { return s.Ingested() == 200 })
			if got := s.Checkpoints(); got != 0 {
				t.Errorf("Checkpoints = %d before the cadence elapsed, want 0", got)
			}
			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
			if got := s.Checkpoints(); got != 1 {
				t.Errorf("Checkpoints = %d after Stop, want 1 (the final one)", got)
			}
		}},
		{"checkpoint failure surfaced", true, func(t *testing.T, be contractBackend) {
			ff := fsx.NewFault(fsx.NewMem())
			d := be.open(t, ff, pipeline.Options{CheckpointEvery: 100})
			defer d.close()
			s := d.svc
			// Checkpoints land by rename; WAL appends never rename, so
			// ingest itself is untouched.
			ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace}, fsx.OpRename)
			s.Start()
			submitAll(t, s, smallGen(4).Next, 300)
			// The failure must latch and surface through Err() while the
			// service is still running, not only at Stop.
			waitFor(t, "checkpoint failure in Err", func() bool { return s.Err() != nil })
			err := s.Stop()
			if !errors.Is(err, fsx.ErrNoSpace) {
				t.Fatalf("Stop = %v, want the injected checkpoint failure", err)
			}
			if got := s.Err(); got == nil || got.Error() != err.Error() {
				t.Errorf("Stop error %v differs from latched Err %v", err, got)
			}
			if s.Ingested() != 300 {
				t.Errorf("Ingested = %d, want 300: a failed checkpoint must not stop ingest", s.Ingested())
			}
		}},
		// A disk full for a whole barrier fails every shard's checkpoint,
		// not one: the failure is reported, and once space is back ingest
		// goes on as if the barrier had never been due.
		{"ingest continues after a failed barrier", true, func(t *testing.T, be contractBackend) {
			ff := fsx.NewFault(fsx.NewMem())
			d := be.open(t, ff, pipeline.Options{CheckpointEvery: 100})
			defer d.close()
			s := d.svc
			// Every checkpoint lands by rename and WAL appends never
			// rename: the disk is full for the barriers and nothing else.
			ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace, Freeze: true}, fsx.OpRename)
			s.Start()
			g := smallGen(8)
			submitAll(t, s, g.Next, 150)
			waitFor(t, "checkpoint failure in Err", func() bool { return s.Err() != nil })
			ff.Disarm()
			submitAll(t, s, g.Next, 350)
			waitFor(t, "500 messages applied", func() bool { return s.Ingested() == 500 })
			if err := s.Err(); !errors.Is(err, fsx.ErrNoSpace) || !strings.Contains(err.Error(), "checkpoint") {
				t.Errorf("Err = %v, want the failed checkpoint", err)
			}
			if s.Checkpoints() == 0 {
				t.Error("no barrier landed after the disk was freed")
			}
			_ = s.Stop()
		}},
		// The two-stage loop must end in the same engine state as a bare
		// ingest loop, whether the stages hand over a message at a time
		// or full batches.
		{"matches a plain ingest loop", false, func(t *testing.T, be contractBackend) {
			if be.plain == nil {
				t.Skip("end state depends on idle-flush timing")
			}
			const n = 5000
			want := comparable(be.plain(genMessages(14, n)))
			for _, buffer := range []int{1, 0} {
				d := be.open(t, fsx.NewMem(), pipeline.Options{Buffer: buffer})
				d.svc.Start()
				submitAll(t, d.svc, smallGen(14).Next, n)
				if err := d.svc.Stop(); err != nil {
					t.Fatal(err)
				}
				if got := comparable(d.svc.Snapshot()); !reflect.DeepEqual(got, want) {
					t.Errorf("Buffer %d: service state diverges:\nplain:   %+v\nservice: %+v", buffer, want, got)
				}
				d.close()
			}
		}},
		// A tiny buffer with a slow consumer must not lose messages.
		{"backpressure bounds queue", false, func(t *testing.T, be contractBackend) {
			d := be.open(t, fsx.NewMem(), pipeline.Options{Buffer: 2})
			defer d.close()
			d.svc.Start()
			submitAll(t, d.svc, smallGen(5).Next, 500)
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			if d.svc.Ingested() != 500 {
				t.Errorf("Ingested = %d, want 500", d.svc.Ingested())
			}
		}},
		// Fewer messages than one round: the writer must flush when its
		// queue runs dry, or a live tail would sit invisible until Stop.
		{"partial round visible when idle", false, func(t *testing.T, be contractBackend) {
			d := be.open(t, fsx.NewMem(), pipeline.Options{})
			defer d.close()
			s := d.svc
			s.Start()
			base := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
			for i, text := range []string{
				"breaking story #news", "RT @a: breaking story #news", "another breaking story #news",
			} {
				m := tweet.Parse(tweet.ID(i+1), string(rune('a'+i)), base.Add(time.Duration(i)*time.Minute), text)
				if err := s.Submit(m); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "the partial round", func() bool { return s.Snapshot().Messages == 3 })
			if hits := s.SearchBundles("breaking story", 1); len(hits) == 0 {
				t.Error("applied messages not searchable before Stop")
			}
			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
		}},
		// A prepared message carries its input (core.Prepared.Msg) to
		// the log, so every buffer that holds prepared messages — the
		// stages' batches, a round's pending and per-shard lists — is
		// cleared before reuse: an applied message's input is garbage
		// while the node runs on.
		{"applied inputs are not kept", false, func(t *testing.T, be contractBackend) {
			d := be.open(t, fsx.NewMem(), pipeline.Options{})
			defer d.close()
			s := d.svc
			s.Start()
			const n = 100
			inputs := submitWeak(t, s, smallGen(7).Next, n)
			waitFor(t, "every message applied", func() bool { return s.Snapshot().Messages == n })
			runtime.GC()
			for i, w := range inputs {
				if w.Value() != nil {
					t.Fatalf("input %d of %d survives a forced GC after its apply", i, n)
				}
			}
			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
		}},
		// A quiet feed's tail must be on disk, not in a batch buffer
		// waiting for more traffic: ten messages, silence, power loss.
		{"quiet tail survives a crash", true, func(t *testing.T, be contractBackend) {
			mem := fsx.NewMem()
			ff := fsx.NewFault(mem)
			d := be.open(t, ff, pipeline.Options{})
			d.svc.Start()
			submitAll(t, d.svc, smallGen(7).Next, 10)
			waitFor(t, "10 messages applied", func() bool { return d.svc.Ingested() == 10 })
			// Freeze the disk before stopping, so Stop's final checkpoint
			// cannot land what the ingest path had left volatile.
			ff.Arm(1, fsx.Fault{Freeze: true})
			_ = d.svc.Stop()
			_ = d.close()
			mem.Crash()
			d2 := be.open(t, mem, pipeline.Options{})
			defer d2.close()
			if got := d2.svc.Snapshot().Messages; got != 10 {
				t.Errorf("recovered %d messages, want the 10 that were visible before the crash", got)
			}
		}},
	}
	for _, be := range contractBackends {
		for _, c := range cases {
			if c.durable && !be.durable {
				continue
			}
			t.Run(be.name+"/"+c.name, func(t *testing.T) { c.run(t, be) })
		}
	}
}

// TestServiceMatchesSerial: a sharded node answers reads as the serial
// node fed the same stream does. Its message index is one per node, fed
// in stream order, so SearchMessages is the serial list at every shard
// count and round size — the same messages, the scores equal to the
// bit. SearchBundles and Trending rank bundles, which are the serial
// ones where assignment is (B = 1), and are compared by content: bundle
// IDs are strided across shards. The durable row closes the node,
// reopens it and asks again, so Reindex across shards rebuilds the same
// index.
func TestServiceMatchesSerial(t *testing.T) {
	const n = 4000
	cfg := core.FullIndexConfig()
	q := query.DefaultOptions()
	msgs := genMessages(9, n)
	queries := []string{"game", "game win", "zzzunknown"}
	for i := 50; i < n; i += 100 {
		m := msgs[i]
		queries = append(queries, m.Text)
		if len(m.Hashtags) > 0 {
			queries = append(queries, m.Hashtags[0])
		}
	}

	serial := pipeline.New(query.New(core.New(cfg, nil, nil), q), pipeline.Options{})
	ingest := func(s *Service) {
		s.Start()
		submitAll(t, s, smallGen(9).Next, n)
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(serial)
	messages := make(map[string][]query.MessageHit, len(queries))
	hits := 0
	for _, term := range queries {
		messages[term] = serial.SearchMessages(term, 10)
		hits += len(messages[term])
	}
	if hits == 0 {
		t.Fatal("the serial node finds no message for any query")
	}
	sameMessages := func(t *testing.T, s *Service) {
		t.Helper()
		for _, term := range queries {
			if a, b := messages[term], s.SearchMessages(term, 10); !sameMessageHits(a, b) {
				t.Errorf("SearchMessages(%q) differs:\nserial  %v\nsharded %v", term, a, b)
			}
		}
	}

	for _, row := range []struct {
		shards, batch int
		durable       bool
	}{{1, 1, false}, {3, 1, false}, {3, 16, true}} {
		t.Run(fmt.Sprintf("shards=%d/batch=%d", row.shards, row.batch), func(t *testing.T) {
			opts := Options{Shards: row.shards, Batch: row.batch, Query: &q}
			mem := fsx.NewMem()
			open := func() (*Engine, *Durable) {
				if !row.durable {
					e, err := New(cfg, opts, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					return e, nil
				}
				d, err := OpenDurable(cfg, opts, testDurableOpts(mem))
				if err != nil {
					t.Fatal(err)
				}
				d.Reindex()
				return d.Engine, d
			}
			eng, dur := open()
			sharded, err := NewService(eng, dur, ServiceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ingest(sharded)
			sameMessages(t, sharded)

			if row.batch == 1 {
				for _, term := range queries {
					if a, b := serial.SearchBundles(term, 10), sharded.SearchBundles(term, 10); !reflect.DeepEqual(bundleContent(a), bundleContent(b)) {
						t.Errorf("SearchBundles(%q) differs:\nserial  %v\nsharded %v", term, a, b)
					}
				}
				if a, b := serial.Trending(10), sharded.Trending(10); !reflect.DeepEqual(topicContent(a), topicContent(b)) || len(a) == 0 {
					t.Errorf("Trending differs (or is empty):\nserial  %v\nsharded %v", a, b)
				}
			}

			if dur == nil {
				return
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			eng, dur = open()
			defer dur.Close()
			reopened, err := NewService(eng, dur, ServiceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := reopened.Snapshot().Messages; got != n {
				t.Fatalf("reopened node holds %d messages, want %d", got, n)
			}
			sameMessages(t, reopened)
		})
	}
}

// TestShardedRepeatsCountedOnce: a stream re-fed to a sharded node is
// counted as repeats whichever shard each repeat lands on, because the
// node has one message index.
func TestShardedRepeatsCountedOnce(t *testing.T) {
	const n = 1000
	q := query.DefaultOptions()
	e, err := New(core.FullIndexConfig(), Options{Shards: 3, Batch: 16, Query: &q}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg)
	msgs := genMessages(11, n)
	for _, m := range append(msgs, msgs...) {
		if err := e.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, reg)["provex_query_duplicate_messages_total"]; got != n {
		t.Errorf("provex_query_duplicate_messages_total = %v, want %d", got, n)
	}
}

// sameMessageHits: the same messages in the same order with scores equal
// as float64 bits; nil and empty alike.
func sameMessageHits(a, b []query.MessageHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Msg.ID() != b[i].Msg.ID() || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// bundleContent and topicContent drop the bundle IDs, which the shard
// count alone changes; nil and empty come out alike.
func bundleContent(hits []query.BundleHit) (out []query.BundleHit) {
	for _, h := range hits {
		h.ID = 0
		out = append(out, h)
	}
	return out
}

func topicContent(topics []trending.Topic) (out []trending.Topic) {
	for _, tp := range topics {
		tp.ID = 0
		out = append(out, tp)
	}
	return out
}

func TestServiceRequiresQueryProcessors(t *testing.T) {
	e, err := New(core.PartialIndexConfig(100), Options{Shards: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(e, nil, ServiceOptions{}); err == nil {
		t.Fatal("NewService accepted an engine without query processors")
	}
}
