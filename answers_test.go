package provex_test

// The answer corpus: every perf or refactor change must leave what a
// node answers untouched, and this test checks it against a pinned
// file instead of a by-hand comparison. It builds a durable node on
// the seed-1 20 000-message stream at -shards 1 and 2, asks a fixed
// set of /search, /prov, /trending and /bundle requests in three
// states — live, after a restart from the final checkpoint, and after
// a restart that replays the write-ahead log alone — and compares the
// SHA-256 of every response body with testdata/answers/seed1-20k.txt.
// The corpus also pins the SHA-256 of each checkpoint file the live
// node's final checkpoint wrote: checkpoint bytes are a function of the
// stream.
//
// Re-pin after a change that means to move an answer with
//
//	go test . -run TestAnswerCorpus -update
//
// and name every changed line in CHANGES.md.

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/shard"
	"provex/internal/tweet"
)

var update = flag.Bool("update", false, "re-pin testdata/answers/seed1-20k.txt and testdata/figures/ from this build")

const answersPath = "testdata/answers/seed1-20k.txt"

// answerQueries are the /search and /prov queries: frequent keywords,
// the scripted-event words and the most frequent hashtags of the
// stream, one to three terms each.
var answerQueries = []string{
	"game", "stadium crowd", "breaking news", "tsunami rescue", "quake warning",
	"conference keynote", "storm relief", "lekile162", "pakeca162 vagupa162", "zoro",
}

// largestBundles is how many of the node's biggest bundles /bundle
// asks for, besides the top /prov hit of every query: a big bundle's
// body carries every Eq. 5 edge score of its trail.
const largestBundles = 8

func answerStream(t *testing.T) []*tweet.Message {
	g := gen.New(gen.DefaultConfig())
	msgs := make([]*tweet.Message, 20_000)
	for i := range msgs {
		msgs[i] = g.Next()
	}
	return msgs
}

// answerNode is one opened durable node: its reads, the engines behind
// them, and how to release its files.
type answerNode struct {
	reads query.Reader
	engs  []*core.Engine
	close func() error
}

// openSerialNode opens a durable serial node over dir as provserve
// -ckpt does.
func openSerialNode(t *testing.T, dir string) (answerNode, *pipeline.Durable, *pipeline.Service) {
	t.Helper()
	d, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, pipeline.DurableOptions{
		CheckpointPath: filepath.Join(dir, "e.ckpt"),
		WALDir:         filepath.Join(dir, "e.ckpt.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	proc := query.New(d.Engine(), query.DefaultOptions())
	proc.Reindex()
	svc := pipeline.New(proc, pipeline.Options{CheckpointEvery: 50_000, Durable: d})
	return answerNode{reads: svc, engs: []*core.Engine{d.Engine()}, close: d.Close}, d, svc
}

// openShardedNode opens a durable two-shard node over dir as provserve
// -shards 2 -ckpt does. Its Service is never started: the test drives
// the engine's rounds itself, so that every run cuts them alike.
func openShardedNode(t *testing.T, dir string) (answerNode, *shard.Durable) {
	t.Helper()
	q := query.DefaultOptions()
	d, err := shard.OpenDurable(core.FullIndexConfig(), shard.Options{Shards: 2, Query: &q}, shard.DurableOptions{
		Dir:          filepath.Join(dir, "e.ckpt.wal"),
		ManifestPath: filepath.Join(dir, "e.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Engine.Reindex()
	svc, err := shard.NewService(d.Engine, d, shard.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*core.Engine, d.Engine.Shards())
	for i := range engs {
		engs[i] = d.Engine.ShardEngine(i)
	}
	return answerNode{reads: svc, engs: engs, close: d.Close}, d
}

// answerRequests is the request set of one node: the queries on
// /search and /prov, /trending, and /bundle for every query's top
// bundle plus the largest bundles (ties to the lower ID).
func answerRequests(nd answerNode) []string {
	var reqs []string
	ids := map[bundle.ID]bool{}
	for _, q := range answerQueries {
		esc := url.QueryEscape(q)
		reqs = append(reqs, "/search?q="+esc+"&k=10", "/prov?q="+esc+"&k=10")
		if hits := nd.reads.SearchBundles(q, 1); len(hits) > 0 {
			ids[hits[0].ID] = true
		}
	}
	reqs = append(reqs, "/trending?k=10")
	var all []bundle.Ref
	for _, e := range nd.engs {
		e.Pool().All(func(b bundle.Ref) { all = append(all, b) })
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Size() != all[j].Size() {
			return all[i].Size() > all[j].Size()
		}
		return all[i].ID() < all[j].ID()
	})
	for _, b := range all[:min(largestBundles, len(all))] {
		ids[b.ID()] = true
	}
	sorted := make([]bundle.ID, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		reqs = append(reqs, fmt.Sprintf("/bundle?id=%d", id))
	}
	return reqs
}

// answerLines asks every request of reqs and returns one corpus line
// each: state, request, status and the SHA-256 of the body.
func answerLines(t *testing.T, state string, nd answerNode, reqs []string) []string {
	t.Helper()
	h := server.New(nd.reads)
	out := make([]string, 0, len(reqs))
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", r, nil))
		out = append(out, fmt.Sprintf("%s %s %d %x", state, r, rec.Code, sha256.Sum256(rec.Body.Bytes())))
	}
	return out
}

// checkpointLines returns one corpus line for every engine checkpoint
// file under dir: its path and the SHA-256 of its bytes.
func checkpointLines(t *testing.T, state, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out = append(out, fmt.Sprintf("%s %s %d %x", state, filepath.ToSlash(rel), len(data), sha256.Sum256(data)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no checkpoint file under %s", state, dir)
	}
	return out
}

// snapshotDir copies dir to a fresh directory: the node's files as a
// crash right now would leave them, every acknowledged record synced.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}

// serialAnswers runs the -shards 1 node through its three states.
func serialAnswers(t *testing.T, msgs []*tweet.Message) []string {
	dir := t.TempDir()
	nd, _, svc := openSerialNode(t, dir)
	svc.Start()
	for _, m := range msgs {
		if err := svc.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	for svc.Ingested() < len(msgs) {
		if err := svc.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	walOnly := snapshotDir(t, dir) // no checkpoint yet: the WAL holds the stream
	if err := svc.Stop(); err != nil {
		t.Fatal(err)
	}
	reqs := answerRequests(nd)
	lines := append(checkpointLines(t, "shards1/checkpoint-file", dir), answerLines(t, "shards1/live", nd, reqs)...)
	if err := nd.close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ state, dir string }{{"shards1/checkpoint", dir}, {"shards1/wal", walOnly}} {
		nd, d, _ := openSerialNode(t, s.dir)
		if got := nd.engs[0].Snapshot().Messages; got != int64(len(msgs)) {
			t.Fatalf("%s: recovered %d messages, want %d", s.state, got, len(msgs))
		}
		if s.state == "shards1/wal" && d.Replayed() != len(msgs) {
			t.Fatalf("%s: replayed %d messages, want all %d", s.state, d.Replayed(), len(msgs))
		}
		lines = append(lines, answerLines(t, s.state, nd, reqs)...)
		if err := nd.close(); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// shardedAnswers runs the -shards 2 node through its three states.
func shardedAnswers(t *testing.T, msgs []*tweet.Message) []string {
	dir := t.TempDir()
	nd, d := openShardedNode(t, dir)
	for _, m := range msgs {
		if err := d.Engine.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Engine.Flush(); err != nil {
		t.Fatal(err)
	}
	walOnly := snapshotDir(t, dir)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reqs := answerRequests(nd)
	lines := append(checkpointLines(t, "shards2/checkpoint-file", dir), answerLines(t, "shards2/live", nd, reqs)...)
	if err := nd.close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ state, dir string }{{"shards2/checkpoint", dir}, {"shards2/wal", walOnly}} {
		nd, d := openShardedNode(t, s.dir)
		if got := d.Engine.Snapshot().Messages; got != int64(len(msgs)) {
			t.Fatalf("%s: recovered %d messages, want %d", s.state, got, len(msgs))
		}
		if s.state == "shards2/wal" && d.Replayed() != len(msgs) {
			t.Fatalf("%s: replayed %d messages, want all %d", s.state, d.Replayed(), len(msgs))
		}
		lines = append(lines, answerLines(t, s.state, nd, reqs)...)
		if err := nd.close(); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// TestAnswerCorpus rebuilds the answer corpus and compares it with the
// pinned one line by line.
func TestAnswerCorpus(t *testing.T) {
	msgs := answerStream(t)
	got := append(serialAnswers(t, msgs), shardedAnswers(t, msgs)...)
	if *update {
		if err := os.MkdirAll(filepath.Dir(answersPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d answers in %s", len(got), answersPath)
		return
	}
	f, err := os.Open(answersPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("answer not in the corpus: %s", l)
		}
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("corpus answer not given: %s", l)
		}
	}
}
