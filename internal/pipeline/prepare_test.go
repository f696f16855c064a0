package pipeline

import (
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/query"
	"provex/internal/stream"
	"provex/internal/tweet"
)

// comparable strips the stage timers (wall-clock, legitimately
// different across runs) from a Stats for equality checks.
func comparable(s core.Stats) core.Stats {
	s.PrepareTime, s.MatchTime, s.PlaceTime, s.RefineTime = 0, 0, 0, 0
	return s
}

// TestParallelIngestDeterminism is the core guarantee of the parallel
// pipeline: with prepare fanned out over 4 workers, every InsertResult
// — bundle assignment, creation flag, connection type — must be
// identical to the serial engine on the same 10k-message stream.
func TestParallelIngestDeterminism(t *testing.T) {
	// Two identically-seeded generators, one per engine: engines retain
	// and annotate messages, so the streams must not share pointers.
	const n = 10000
	gSerial, gPar := smallGen(11), smallGen(11)
	msgs := make([]*tweet.Message, n)
	for i := range msgs {
		msgs[i] = gPar.Next()
	}

	serial := core.New(core.PartialIndexConfig(500), nil, nil)
	serialRes := make([]core.InsertResult, 0, n)
	for i := 0; i < n; i++ {
		serialRes = append(serialRes, serial.Insert(gSerial.Next()))
	}

	cfg := core.PartialIndexConfig(500)
	cfg.Parallel = core.ParallelOptions{Workers: 4}
	par := core.New(cfg, nil, nil)
	src := NewPreparedSource(stream.NewSliceSource(msgs), cfg.Parallel.Workers, 0)
	parRes := make([]core.InsertResult, 0, n)
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		parRes = append(parRes, par.InsertPrepared(p))
	}

	if len(parRes) != n {
		t.Fatalf("parallel ingested %d messages, want %d", len(parRes), n)
	}
	for i := range serialRes {
		if serialRes[i] != parRes[i] {
			t.Fatalf("InsertResult diverges at message %d:\nserial:   %+v\nparallel: %+v",
				i, serialRes[i], parRes[i])
		}
	}
	got := comparable(par.Snapshot())
	want := comparable(serial.Snapshot())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot diverges:\nserial:   %+v\nparallel: %+v", want, got)
	}
}

// TestIngestAll covers both paths of the convenience wrapper: the
// serial fallback and the worker-pool path must ingest every message.
func TestIngestAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := smallGen(12)
		msgs := make([]*tweet.Message, 2000)
		for i := range msgs {
			msgs[i] = g.Next()
		}
		cfg := core.PartialIndexConfig(300)
		cfg.Parallel.Workers = workers
		e := core.New(cfg, nil, nil)
		n, err := IngestAll(e, stream.NewSliceSource(msgs))
		if err != nil || n != len(msgs) {
			t.Fatalf("workers=%d: IngestAll = (%d, %v), want (%d, nil)", workers, n, err, len(msgs))
		}
		if got := e.Snapshot().Messages; got != int64(len(msgs)) {
			t.Errorf("workers=%d: engine saw %d messages", workers, got)
		}
	}
}

// TestPreparedSourceSurfacesError: a non-EOF source error must come out
// of Next after the messages dispatched before it.
func TestPreparedSourceSurfacesError(t *testing.T) {
	boom := errors.New("boom")
	g := smallGen(13)
	sent := 0
	src := stream.FuncSource(func() *tweet.Message { return g.Next() })
	wrapped := failAfter{src: src, n: 100, err: boom, sent: &sent}
	ps := NewPreparedSource(&wrapped, 3, 0)
	got := 0
	for {
		_, err := ps.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			break
		}
		got++
	}
	if got != 100 {
		t.Errorf("yielded %d messages before error, want 100", got)
	}
}

type failAfter struct {
	src  stream.Source
	n    int
	err  error
	sent *int
}

func (f *failAfter) Next() (*tweet.Message, error) {
	if *f.sent >= f.n {
		return nil, f.err
	}
	*f.sent++
	return f.src.Next()
}

// TestServiceParallelMatchesSerial: the Service's two-stage loop must
// end in the same engine state as a plain serial insert loop, whether
// the stages hand over a message at a time or full batches.
func TestServiceParallelMatchesSerial(t *testing.T) {
	const n = 5000
	ref := core.New(core.PartialIndexConfig(500), nil, nil)
	g := smallGen(14)
	for i := 0; i < n; i++ {
		ref.Insert(g.Next())
	}
	want := comparable(ref.Snapshot())
	for _, buffer := range []int{1, 0} {
		s := newService(Options{Buffer: buffer})
		s.Start()
		g := smallGen(14)
		for i := 0; i < n; i++ {
			if err := s.Submit(g.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		if got := comparable(s.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("Buffer %d: service state diverges:\nserial:  %+v\nservice: %+v", buffer, want, got)
		}
	}
}

// TestConcurrentQueriesDuringParallelIngest is the -race companion of
// the Service contract's concurrent-queries case for multi-message
// batches: readers run while the log stage group-commits 16 records at
// a time and the writer crosses checkpoint barriers.
func TestConcurrentQueriesDuringParallelIngest(t *testing.T) {
	opts := durableOpts(fsx.NewMem())
	opts.WALSyncEvery = 16
	d, err := OpenDurable(core.PartialIndexConfig(500), nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(query.New(d.Engine(), query.DefaultOptions()), Options{Buffer: 64, Durable: d, CheckpointEvery: 700})
	s.Start()
	g := smallGen(15)

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
				s.Snapshot()
				s.Ingested()
				s.Checkpoints()
				d.WALSyncedSeq()
			}
		}()
	}
	for i := 0; i < 3000; i++ {
		if err := s.Submit(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if s.Ingested() != 3000 {
		t.Errorf("Ingested = %d", s.Ingested())
	}
	if got := s.Checkpoints(); got != 5 {
		t.Errorf("Checkpoints = %d, want 4 on cadence + 1 final", got)
	}
}
