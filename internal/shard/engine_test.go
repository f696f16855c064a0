package shard

// Sharded-vs-serial equivalence and determinism: at Batch=1 with no
// candidate caps the sharded engine must partition messages into
// bundles EXACTLY like the serial engine (same bundles, same node
// order, same provenance edges); at any batch size the result must be
// a pure function of (stream, shard count, batch size) — repeated runs
// and the sequential phase mode all agree bit-for-bit.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/trace"
	"provex/internal/tweet"
)

func smallGen(seed int64) *gen.Generator {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	cfg.MsgsPerDay = 20000
	cfg.Users = 800
	cfg.VocabSize = 900
	cfg.EventsPerDay = 400
	return gen.New(cfg)
}

func genMessages(seed int64, n int) []*tweet.Message {
	g := smallGen(seed)
	msgs := make([]*tweet.Message, n)
	for i := range msgs {
		msgs[i] = g.Next()
	}
	return msgs
}

// uncappedConfig is the exact-equivalence configuration: no fanout
// cut, no pool limits — every relaxation documented in DESIGN.md §2i
// switched off.
func uncappedConfig() core.Config {
	cfg := core.FullIndexConfig()
	cfg.MaxFanout = 0
	return cfg
}

type edge struct {
	parent, child tweet.ID
	conn          score.ConnectionType
}

// edgeCollector is a concurrency-safe EdgeFunc (sharded commit runs
// one goroutine per shard).
type edgeCollector struct {
	mu    sync.Mutex
	edges []edge
}

func (c *edgeCollector) fn(parent, child tweet.ID, conn score.ConnectionType) {
	c.mu.Lock()
	c.edges = append(c.edges, edge{parent, child, conn})
	c.mu.Unlock()
}

func (c *edgeCollector) sorted() []edge {
	sort.Slice(c.edges, func(i, j int) bool {
		a, b := c.edges[i], c.edges[j]
		if a.child != b.child {
			return a.child < b.child
		}
		return a.parent < b.parent
	})
	return c.edges
}

// livePartition maps each live bundle (keyed by the ID of its first
// message — a shard-independent name) to its message IDs in node
// order.
func livePartition(engines ...*core.Engine) map[tweet.ID][]tweet.ID {
	part := make(map[tweet.ID][]tweet.ID)
	for _, e := range engines {
		e.Pool().All(func(b *bundle.Bundle) {
			nodes := b.Nodes()
			ids := make([]tweet.ID, len(nodes))
			for i, n := range nodes {
				ids[i] = n.Doc.Msg.ID
			}
			part[ids[0]] = ids
		})
	}
	return part
}

func assertPartitionsEqual(t *testing.T, want, got map[tweet.ID][]tweet.ID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("bundle counts differ: got %d, want %d", len(got), len(want))
	}
	for first, w := range want {
		g, ok := got[first]
		if !ok {
			t.Fatalf("bundle opened by msg %d missing", first)
		}
		if len(g) != len(w) {
			t.Fatalf("bundle opened by msg %d: %d messages, want %d", first, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("bundle opened by msg %d: node %d is msg %d, want %d", first, i, g[i], w[i])
			}
		}
	}
}

func shardEngines(e *Engine) []*core.Engine {
	engs := make([]*core.Engine, e.Shards())
	for i := range engs {
		engs[i] = e.ShardEngine(i)
	}
	return engs
}

func TestShardedEquivalenceWithSerial(t *testing.T) {
	const total = 6000
	msgs := genMessages(11, total)
	cfg := uncappedConfig()

	var refEdges edgeCollector
	ref := core.New(cfg, nil, refEdges.fn)
	for _, m := range msgs {
		ref.Insert(m)
	}
	refPart := livePartition(ref)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var edges edgeCollector
			e, err := New(cfg, Options{Shards: n, Batch: 1}, nil, edges.fn)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				if err := e.Ingest(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			st := e.Snapshot()
			rs := ref.Snapshot()
			if st.Messages != rs.Messages || st.BundlesCreated != rs.BundlesCreated ||
				st.EdgesCreated != rs.EdgesCreated || st.BundlesLive != rs.BundlesLive {
				t.Fatalf("aggregate stats differ:\n got msgs=%d bundles=%d live=%d edges=%d\nwant msgs=%d bundles=%d live=%d edges=%d",
					st.Messages, st.BundlesCreated, st.BundlesLive, st.EdgesCreated,
					rs.Messages, rs.BundlesCreated, rs.BundlesLive, rs.EdgesCreated)
			}
			assertPartitionsEqual(t, refPart, livePartition(shardEngines(e)...))
			w, g := refEdges.sorted(), edges.sorted()
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("edge %d differs: got %+v, want %+v", i, g[i], w[i])
				}
			}
		})
	}
}

// TestShardedDeterminism pins the protocol's core promise: the result
// is a function of (stream, N, B) alone. Two concurrent runs and one
// sequential-phase run must agree exactly, per shard — including each
// shard's bundle ID watermark and clock.
func TestShardedDeterminism(t *testing.T) {
	const (
		total = 8000
		n     = 4
		batch = 64
	)
	msgs := genMessages(13, total)
	cfg := core.PartialIndexConfig(400)

	run := func(sequential bool) *Engine {
		e, err := New(cfg, Options{Shards: n, Batch: batch, Sequential: sequential}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := e.Ingest(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	a, b, seq := run(false), run(false), run(true)
	for _, other := range []*Engine{b, seq} {
		for i := 0; i < n; i++ {
			ae, oe := a.ShardEngine(i), other.ShardEngine(i)
			as, os := ae.Snapshot(), oe.Snapshot()
			if as.Messages != os.Messages || as.BundlesCreated != os.BundlesCreated ||
				as.EdgesCreated != os.EdgesCreated || as.Pool != os.Pool {
				t.Fatalf("shard %d stats differ:\n  %+v\nvs %+v", i, as, os)
			}
			if ae.Pool().NextID() != oe.Pool().NextID() {
				t.Fatalf("shard %d NextID %d vs %d", i, ae.Pool().NextID(), oe.Pool().NextID())
			}
			if !ae.Now().Equal(oe.Now()) {
				t.Fatalf("shard %d clock %v vs %v", i, ae.Now(), oe.Now())
			}
		}
		assertPartitionsEqual(t, livePartition(shardEngines(a)...), livePartition(shardEngines(other)...))
	}
}

// TestShardedTracing: one recorder behind four shards whose commit
// goroutines run side by side (the -race half of the claim). The
// sampler counts the stream as a whole — exactly every Nth message is
// recorded, none lost to a torn increment — and every sampled message
// ID resolves through the by-message lookup to a decision that names
// the shard-strided bundle the message landed in.
func TestShardedTracing(t *testing.T) {
	const (
		total = 4000
		n     = 4
	)
	for _, every := range []int{1, 3} {
		rec := trace.New(trace.Options{SampleEvery: every, Buffer: total})
		e, err := New(core.PartialIndexConfig(400), Options{Shards: n, Batch: 64}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.SetTracer(rec)
		msgs := genMessages(17, total)
		for _, m := range msgs {
			if err := e.Ingest(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}

		ds := rec.Recent(total)
		if len(ds) != total/every {
			t.Fatalf("sample 1/%d: %d decisions, want %d", every, len(ds), total/every)
		}
		for _, d := range ds {
			got, ok := rec.Explain(d.MsgID)
			if !ok || got != d {
				t.Fatalf("sample 1/%d: message %d does not resolve to its decision", every, d.MsgID)
			}
			if d.Bundle == 0 || (d.NewBundle && d.Winner != 0) {
				t.Fatalf("sample 1/%d: malformed decision %+v", every, d)
			}
		}
		if every == 1 {
			for _, m := range msgs {
				if _, ok := rec.Explain(uint64(m.ID)); !ok {
					t.Fatalf("message %d was ingested but not traced", m.ID)
				}
			}
		}
	}
}

// TestShardIDSpaces pins the stride allocation: every bundle a shard
// creates lies in its own residue class, so exactly its own pool
// Allocates it — the inverse the node's reads route a bundle ID by.
func TestShardIDSpaces(t *testing.T) {
	const n = 3
	msgs := genMessages(17, 3000)
	e, err := New(uncappedConfig(), Options{Shards: n, Batch: 32}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := e.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e.ShardEngine(i).Pool().All(func(b *bundle.Bundle) {
			for j := 0; j < n; j++ {
				if got := e.ShardEngine(j).Pool().Allocates(b.ID()); got != (j == i) {
					t.Fatalf("bundle %d lives on shard %d but shard %d's pool Allocates it: %v", b.ID(), i, j, got)
				}
			}
		})
	}
	if e.Snapshot().BundlesCreated == 0 {
		t.Fatal("no bundles created")
	}
}

// TestSplitConfigBounds: the per-shard pool limits must cover the
// global bound without undershooting it.
func TestSplitConfigBounds(t *testing.T) {
	cfg := core.PartialIndexConfig(10000)
	for _, n := range []int{1, 2, 3, 8} {
		sum := 0
		for i := 0; i < n; i++ {
			sc := splitConfig(cfg, i, n)
			sum += sc.Pool.MaxBundles
			if sc.Pool.IDStart != bundle.ID(i+1) || sc.Pool.IDStride != n {
				t.Fatalf("shard %d/%d: IDStart=%d IDStride=%d", i, n, sc.Pool.IDStart, sc.Pool.IDStride)
			}
		}
		if sum < cfg.Pool.MaxBundles {
			t.Fatalf("n=%d: split pools sum to %d < %d", n, sum, cfg.Pool.MaxBundles)
		}
	}
}
