package provex_test

// Integration tests exercising whole-system flows across module
// boundaries: dataset file -> engine -> pool/refinement -> disk store ->
// query -> HTTP API, plus determinism and recovery guarantees that only
// show up when the pieces run together.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/eval"
	"provex/internal/gen"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/storage"
	"provex/internal/stream"
)

// integrationConfig is a small but structurally rich stream.
func integrationConfig() gen.Config {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 40_000
	cfg.Users = 5_000
	cfg.VocabSize = 3_000
	cfg.EventsPerDay = 1_200
	cfg.Scripts = []gen.EventScript{{
		Name:     "samoa tsunami",
		Hashtags: []string{"tsunami", "samoa"},
		Topic:    []string{"tsunami", "samoa", "quake", "warning", "rescue"},
		URLs:     2,
		Start:    time.Hour,
		HalfLife: 6 * time.Hour,
		Weight:   45,
	}}
	return cfg
}

// TestDatasetFileToQueryPipeline drives the full production path: a
// JSONL dataset file is written, re-read, streamed through a bounded
// engine backed by a disk store, and finally queried — with evicted
// bundles still reachable through the engine facade.
func TestDatasetFileToQueryPipeline(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "stream.jsonl")

	// 1. Generate a dataset file.
	f, err := os.Create(dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(integrationConfig())
	const n = 15_000
	if _, err := stream.WriteJSONL(f, stream.Limit(stream.FuncSource(g.Next), n)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// 2. Replay it through a bounded engine with a disk back-end.
	st, err := storage.Open(filepath.Join(dir, "bundles"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	proc := query.New(core.New(core.PartialIndexConfig(400), st, nil), query.DefaultOptions())

	in, err := os.Open(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	src := stream.NewJSONLReader(in)
	count := 0
	for {
		m, err := src.Next()
		if err != nil {
			break
		}
		proc.Insert(m)
		count++
	}
	if count != n {
		t.Fatalf("replayed %d messages, want %d", count, n)
	}
	if err := proc.Engine().Err(); err != nil {
		t.Fatal(err)
	}

	// 3. The pool stayed bounded and evictions landed on disk.
	est := proc.Engine().Snapshot()
	if est.BundlesLive > 400+512 {
		t.Errorf("pool grew to %d despite limit 400", est.BundlesLive)
	}
	if st.Count() == 0 {
		t.Fatal("no bundles flushed to disk")
	}

	// 4. The scripted event is retrievable and its trail renders.
	hits := proc.SearchBundles("tsunami samoa", 3)
	if len(hits) == 0 {
		t.Fatal("scripted event not found via query")
	}
	trail, err := proc.Trail(hits[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trail, "bundle") {
		t.Errorf("trail malformed: %q", trail[:80])
	}

	// 5. Every disk-resident bundle loads through the engine facade and
	// validates.
	checked := 0
	for _, id := range st.IDs() {
		if checked >= 50 {
			break
		}
		b, err := proc.Engine().Bundle(id)
		if err != nil {
			t.Fatalf("Bundle(%d): %v", id, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("bundle %d invalid after flush: %v", id, err)
		}
		checked++
	}
}

// TestEngineDeterminism: identical seeds and configuration must produce
// identical provenance output, end to end.
func TestEngineDeterminism(t *testing.T) {
	run := func() (core.Stats, *eval.EdgeSet) {
		g := gen.New(integrationConfig())
		edges := eval.NewEdgeSet()
		e := core.New(core.PartialIndexConfig(300), nil, edges.Observe)
		for i := 0; i < 8_000; i++ {
			e.Insert(g.Next())
		}
		return e.Snapshot(), edges
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1.BundlesCreated != s2.BundlesCreated || s1.EdgesCreated != s2.EdgesCreated ||
		s1.BundlesLive != s2.BundlesLive || s1.MessagesInMemory != s2.MessagesInMemory {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(s1.ConnCounts, s2.ConnCounts) {
		t.Errorf("connection mixes differ: %v vs %v", s1.ConnCounts, s2.ConnCounts)
	}
	if e1.Len() != e2.Len() || e1.IntersectCount(e2) != e1.Len() {
		t.Errorf("edge sets differ: %d vs %d (overlap %d)", e1.Len(), e2.Len(), e1.IntersectCount(e2))
	}
}

// TestStoreRecoveryAfterEngineRun: bundles flushed during a run survive
// a store reopen byte-for-byte (codec + storage + engine interplay).
func TestStoreRecoveryAfterEngineRun(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.BundleLimitConfig(200, 100), st, nil)
	g := gen.New(integrationConfig())
	for i := 0; i < 10_000; i++ {
		e.Insert(g.Next())
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	ids := st.IDs()
	if len(ids) == 0 {
		t.Fatal("nothing flushed")
	}
	before := make(map[bundle.ID][]byte, len(ids))
	for _, id := range ids {
		b, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = b.AppendMarshal(nil)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Count() != len(ids) {
		t.Fatalf("recovered %d bundles, want %d", st2.Count(), len(ids))
	}
	for id, want := range before {
		b, err := st2.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", id, err)
		}
		if !bytes.Equal(b.AppendMarshal(nil), want) {
			t.Fatalf("bundle %d bytes differ after reopen", id)
		}
	}
}

// TestHTTPDemoOverGeneratedStream: the demo server answers both search
// modes over a generated stream, end to end over real HTTP.
func TestHTTPDemoOverGeneratedStream(t *testing.T) {
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	g := gen.New(integrationConfig())
	for i := 0; i < 12_000; i++ {
		proc.Insert(g.Next())
	}
	srv := httptest.NewServer(server.New(proc))
	defer srv.Close()

	get := func(path string) map[string]interface{} {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	prov := get("/prov?q=tsunami+samoa&k=3")
	bundles := prov["bundles"].([]interface{})
	if len(bundles) == 0 {
		t.Fatal("no bundles over HTTP")
	}
	top := bundles[0].(map[string]interface{})
	if top["size"].(float64) < 5 {
		t.Errorf("event bundle suspiciously small: %v", top["size"])
	}

	search := get("/search?q=tsunami&k=5")
	if len(search["hits"].([]interface{})) == 0 {
		t.Error("no message hits over HTTP")
	}

	stats := get("/stats")
	if stats["messages"].(float64) != 12_000 {
		t.Errorf("stats messages = %v", stats["messages"])
	}
}

// TestAccuracySanity: at moderate scale the partial index must stay
// reasonably faithful to the ground truth — the paper's core claim.
func TestAccuracySanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := gen.New(integrationConfig())
	truth := eval.NewEdgeSet()
	full := core.New(core.FullIndexConfig(), nil, truth.Observe)
	partialEdges := eval.NewEdgeSet()
	partial := core.New(core.PartialIndexConfig(600), nil, partialEdges.Observe)
	for i := 0; i < 20_000; i++ {
		m := g.Next()
		full.Insert(m)
		partial.Insert(m)
	}
	m := eval.Compare(partialEdges, truth)
	if m.Accuracy < 0.7 {
		t.Errorf("partial accuracy %.3f below sanity bound 0.7 (%s)", m.Accuracy, m)
	}
	if m.Return < 0.4 {
		t.Errorf("partial return %.3f below sanity bound 0.4 (%s)", m.Return, m)
	}
}
