package shard

// The Service contract: one table of cases run over both backends of
// pipeline.Service — the serial engine behind pipeline.Durable and the
// sharded engine (N=3, B=16) behind shard.Durable. The suite lives here
// because pipeline cannot import shard.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/tweet"
)

// deployment is one opened durable backend behind its Service.
type deployment struct {
	svc      *Service
	replayed int // messages the WALs contributed at open
	liveIDs  func() []bundle.ID
	close    func() error
}

// contractBackends lists how to open each backend on fs. opts carries
// the ingest-loop settings (Buffer, CheckpointEvery).
var contractBackends = []struct {
	name string
	open func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment
}{
	{"serial", func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment {
		d, err := pipeline.OpenDurable(core.PartialIndexConfig(500), nil, nil, pipeline.DurableOptions{
			FS: fs, CheckpointPath: "engine.ckpt", WALDir: "wal", WALSyncEvery: 64,
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
			liveIDs: func() (ids []bundle.ID) {
				d.Engine().Pool().All(func(b *bundle.Bundle) { ids = append(ids, b.ID()) })
				return ids
			},
			close: d.Close,
		}
	}},
	{"sharded", func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment {
		q := query.DefaultOptions()
		d, err := OpenDurable(core.PartialIndexConfig(500), Options{Shards: 3, Batch: 16, Query: &q}, testDurableOpts(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Reindex()
		return deployment{
			// NewService's own wiring, with the loop settings the
			// cases vary.
			svc:      pipeline.NewWith(backend{d.Engine, d}, opts),
			replayed: d.Replayed(),
			liveIDs: func() (ids []bundle.ID) {
				for i := 0; i < d.Shards(); i++ {
					d.ShardEngine(i).Pool().All(func(b *bundle.Bundle) { ids = append(ids, b.ID()) })
				}
				return ids
			},
			close: d.Close,
		}
	}},
}

func submitAll(t *testing.T, s *Service, next func() *tweet.Message, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Submit(next()); err != nil {
			t.Fatal(err)
		}
	}
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

func TestServiceContract(t *testing.T) {
	type openFunc = func(t *testing.T, fs fsx.FS, opts pipeline.Options) deployment
	cases := []struct {
		name string
		run  func(t *testing.T, open openFunc)
	}{
		{"ingest query resume", func(t *testing.T, open openFunc) {
			mem := fsx.NewMem()
			d := open(t, mem, pipeline.Options{CheckpointEvery: 1000})
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
			d2 := open(t, mem, pipeline.Options{})
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
		{"submit after stop", func(t *testing.T, open openFunc) {
			d := open(t, fsx.NewMem(), pipeline.Options{})
			defer d.close()
			d.svc.Start()
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			err := d.svc.Submit(&tweet.Message{ID: 1, User: "u", Text: "x", Date: time.Now()})
			if !errors.Is(err, pipeline.ErrClosed) {
				t.Errorf("Submit after Stop = %v, want ErrClosed", err)
			}
			if err := d.svc.Stop(); err != nil {
				t.Errorf("second Stop = %v", err)
			}
		}},
		// Hammers the read path while the writer ingests; under -race
		// this verifies the locking discipline.
		{"concurrent queries during ingest", func(t *testing.T, open openFunc) {
			d := open(t, fsx.NewMem(), pipeline.Options{Buffer: 64, CheckpointEvery: 1000})
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
						s.SearchBundles("game win", 5)
						s.SearchMessages("game", 5)
						s.Trending(5)
						s.Snapshot()
						s.Ingested()
						s.Checkpoints()
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
		}},
		{"checkpoint cadence and resume", func(t *testing.T, open openFunc) {
			mem := fsx.NewMem()
			d := open(t, mem, pipeline.Options{CheckpointEvery: 500})
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
			d2 := open(t, mem, pipeline.Options{})
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
		{"no checkpoint before cadence after restart", func(t *testing.T, open openFunc) {
			mem := fsx.NewMem()
			g := smallGen(6)
			d := open(t, mem, pipeline.Options{CheckpointEvery: 1000})
			d.svc.Start()
			submitAll(t, d.svc, g.Next, 1500)
			if err := d.svc.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := d.close(); err != nil {
				t.Fatal(err)
			}

			d2 := open(t, mem, pipeline.Options{CheckpointEvery: 1000})
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
		{"checkpoint failure surfaced", func(t *testing.T, open openFunc) {
			ff := fsx.NewFault(fsx.NewMem())
			d := open(t, ff, pipeline.Options{CheckpointEvery: 100})
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
		// A tiny buffer with a slow consumer must not lose messages.
		{"backpressure bounds queue", func(t *testing.T, open openFunc) {
			d := open(t, fsx.NewMem(), pipeline.Options{Buffer: 2})
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
		{"partial round visible when idle", func(t *testing.T, open openFunc) {
			d := open(t, fsx.NewMem(), pipeline.Options{})
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
		// A quiet feed's tail must be on disk, not in a batch buffer
		// waiting for more traffic: ten messages, silence, power loss.
		{"quiet tail survives a crash", func(t *testing.T, open openFunc) {
			mem := fsx.NewMem()
			ff := fsx.NewFault(mem)
			d := open(t, ff, pipeline.Options{})
			d.svc.Start()
			submitAll(t, d.svc, smallGen(7).Next, 10)
			waitFor(t, "10 messages applied", func() bool { return d.svc.Ingested() == 10 })
			// Freeze the disk before stopping, so Stop's final checkpoint
			// cannot land what the ingest path had left volatile.
			ff.Arm(1, fsx.Fault{Freeze: true})
			_ = d.svc.Stop()
			_ = d.close()
			mem.Crash()
			d2 := open(t, mem, pipeline.Options{})
			defer d2.close()
			if got := d2.svc.Snapshot().Messages; got != 10 {
				t.Errorf("recovered %d messages, want the 10 that were visible before the crash", got)
			}
		}},
	}
	for _, be := range contractBackends {
		for _, c := range cases {
			t.Run(be.name+"/"+c.name, func(t *testing.T) { c.run(t, be.open) })
		}
	}
}

// TestServiceOneShardMatchesSerial: at Shards=1, Batch=1 the sharded
// engine is the serial apply loop, so the Service over it must answer
// exactly as the Service over the serial backend does.
func TestServiceOneShardMatchesSerial(t *testing.T) {
	const n = 4000
	cfg := core.PartialIndexConfig(500)
	q := query.DefaultOptions()

	serial := pipeline.New(query.New(core.New(cfg, nil, nil), q), pipeline.Options{})
	eng, err := New(cfg, Options{Shards: 1, Batch: 1, Query: &q}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewService(eng, nil, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Service{serial, sharded} {
		s.Start()
		submitAll(t, s, smallGen(9).Next, n)
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
	}

	msgs := genMessages(9, n)
	for _, term := range []string{"game", "game win", msgs[100].Text, msgs[3000].Text} {
		if a, b := serial.SearchBundles(term, 10), sharded.SearchBundles(term, 10); !reflect.DeepEqual(a, b) || len(a) == 0 {
			t.Errorf("SearchBundles(%q) differs (or is empty):\nserial  %v\nsharded %v", term, a, b)
		}
		if a, b := serial.SearchMessages(term, 10), sharded.SearchMessages(term, 10); !reflect.DeepEqual(a, b) || len(a) == 0 {
			t.Errorf("SearchMessages(%q) differs (or is empty):\nserial  %v\nsharded %v", term, a, b)
		}
	}
	if a, b := serial.Trending(10), sharded.Trending(10); !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Errorf("Trending differs (or is empty):\nserial  %v\nsharded %v", a, b)
	}
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
