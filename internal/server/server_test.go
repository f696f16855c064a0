package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

func newTestServer(t *testing.T) (*httptest.Server, *query.Processor) {
	t.Helper()
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	base := time.Date(2009, 9, 17, 2, 0, 0, 0, time.UTC)
	msgs := []struct {
		user, text string
	}{
		{"wharman", "Lester down #redsox"},
		{"amaliebenjamin", "Lester getting an ovation from the #yankee crowd #redsox"},
		{"abcdude", "Classy RT @amaliebenjamin: Lester getting an ovation from the #yankee crowd #redsox"},
	}
	for i, m := range msgs {
		proc.Insert(tweet.Parse(tweet.ID(i+1), m.user, base.Add(time.Duration(i)*time.Minute), m.text))
	}
	srv := httptest.NewServer(New(proc))
	t.Cleanup(srv.Close)
	return srv, proc
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out
}

func TestIndexPage(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("index: status=%d type=%s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if _, err := http.Get(srv.URL + "/nope"); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/search?q=lester+redsox", 200)
	hits := out["hits"].([]interface{})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	first := hits[0].(map[string]interface{})
	if !strings.Contains(strings.ToLower(first["text"].(string)), "lester") {
		t.Errorf("top hit: %v", first)
	}
}

func TestProvEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/prov?q=yankee+redsox&k=5", 200)
	bundles := out["bundles"].([]interface{})
	if len(bundles) == 0 {
		t.Fatal("no bundles")
	}
	top := bundles[0].(map[string]interface{})
	if top["size"].(float64) != 3 {
		t.Errorf("top bundle size = %v, want 3", top["size"])
	}
	if len(top["summary"].([]interface{})) == 0 {
		t.Error("empty summary")
	}
}

func TestBundleEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	prov := getJSON(t, srv.URL+"/prov?q=redsox", 200)
	id := prov["bundles"].([]interface{})[0].(map[string]interface{})["id"].(float64)

	out := getJSON(t, srv.URL+"/bundle?id="+jsonNum(id), 200)
	nodes := out["nodes"].([]interface{})
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(nodes))
	}
	// The RT node carries conn metadata.
	foundRT := false
	for _, n := range nodes {
		nm := n.(map[string]interface{})
		if nm["conn"] == "rt" {
			foundRT = true
			if nm["parent"].(float64) < 0 {
				t.Error("rt node has no parent")
			}
		}
	}
	if !foundRT {
		t.Error("no rt edge in bundle JSON")
	}
}

// TestBundleGolden pins the two renderings of one query.BundleDetail —
// the /bundle body and the trail text — to the bytes the fixture
// produced when both were drawn from the live *bundle.Bundle.
func TestBundleGolden(t *testing.T) {
	srv, proc := newTestServer(t)
	_, body := get(t, srv.URL+"/bundle?id=1")
	trail, err := proc.Trail(1)
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{"fixture_bundle.json": body, "fixture_trail.txt": trail} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: got\n%s\nwant\n%s", file, got, want)
		}
	}
}

func jsonNum(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/stats", 200)
	if out["messages"].(float64) != 3 {
		t.Errorf("messages = %v", out["messages"])
	}
	if out["edges"].(float64) < 1 {
		t.Errorf("edges = %v", out["edges"])
	}
}

func TestErrorResponses(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		path   string
		status int
	}{
		{"/search", 400},
		{"/prov", 400},
		{"/search?q=x&k=bogus", 400},
		{"/search?q=x&k=-1", 400},
		{"/bundle?id=abc", 400},
		{"/bundle?id=99999", 404},
	}
	for _, tc := range cases {
		out := getJSON(t, srv.URL+tc.path, tc.status)
		if out["error"] == "" {
			t.Errorf("%s: missing error body", tc.path)
		}
	}
}

func TestKClamped(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/search?q=redsox&k=5000", 200)
	if hits := out["hits"].([]interface{}); len(hits) > 100 {
		t.Errorf("k clamp failed: %d hits", len(hits))
	}
}

func TestTrendingEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	out := getJSON(t, srv.URL+"/trending?k=5", 200)
	topics := out["trending"].([]interface{})
	if len(topics) == 0 {
		t.Fatal("no trending topics (3 fresh messages should trend)")
	}
	top := topics[0].(map[string]interface{})
	if top["recent"].(float64) < 3 {
		t.Errorf("recent = %v", top["recent"])
	}
	if _, err := http.Get(srv.URL + "/trending?k=bogus"); err != nil {
		t.Fatal(err)
	}
	outBad := getJSON(t, srv.URL+"/trending?k=bogus", 400)
	if outBad["error"] == "" {
		t.Error("missing error body")
	}
}

// TestBundleWhileIngesting polls the trail of a bundle the writer is
// still appending to. Every message shares #samoa and one URL, so
// bundle 1 absorbs the whole stream and is past PruneMinNodes — its
// summary hash maps, its node slice reallocating — almost at once.
// /bundle draws a copy taken under the Service's read lock; a handler
// that walks the live bundle instead dies here with "concurrent map
// iteration and map write" (a process exit, not a failed assertion)
// and is reported under -race.
func TestBundleWhileIngesting(t *testing.T) {
	const n = 20000
	svc := pipeline.New(query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions()), pipeline.Options{})
	svc.Start()
	srv := httptest.NewServer(New(svc))
	defer srv.Close()

	base := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC)
	fed := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			text := "tsunami warning update " + strconv.Itoa(i) + " #samoa http://bit.ly/samoa"
			if err := svc.Submit(tweet.Parse(tweet.ID(i), "user"+strconv.Itoa(i%50), base.Add(time.Duration(i)*time.Second), text)); err != nil {
				fed <- err
				return
			}
		}
		fed <- svc.Stop()
	}()

	size := func() int {
		resp, err := http.Get(srv.URL + "/bundle?id=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return 0 // the first message is not applied yet
		}
		var out struct {
			Size    int
			Summary []string
			Nodes   []struct{ Index, Parent int }
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /bundle?id=1 = %d, decode: %v", resp.StatusCode, err)
		}
		if out.Size != len(out.Nodes) || len(out.Summary) == 0 {
			t.Fatalf("/bundle: size %d with %d nodes, summary %v", out.Size, len(out.Nodes), out.Summary)
		}
		for i, nd := range out.Nodes {
			if nd.Index != i || nd.Parent >= i {
				t.Fatalf("/bundle: node %d = %+v", i, nd)
			}
		}
		return out.Size
	}
	last, grew := 0, 0
	for feeding := true; feeding; {
		select {
		case err := <-fed:
			if err != nil {
				t.Fatal(err)
			}
			feeding = false
		default:
		}
		got := size()
		if got < last {
			t.Fatalf("/bundle shrank from %d to %d nodes", last, got)
		}
		if got > last && last >= bundle.PruneMinNodes {
			grew++
		}
		last = got
	}
	if last != n {
		t.Fatalf("bundle 1 holds %d of %d messages", last, n)
	}
	if grew == 0 {
		t.Fatal("no poll saw bundle 1 between PruneMinNodes and full: the test did not overlap ingest")
	}
}

// TestQueriesDoNotGrowDictionary: /search and /prov resolve their words
// through the term dictionary without adding to it — 10 000 queries of
// random words, in random case and with and without '#', leave every
// class's term count where ingest left it, while words the stream
// carries still match.
func TestQueriesDoNotGrowDictionary(t *testing.T) {
	srv, _ := newTestServer(t)
	var held [termdict.NumClasses]int
	for c := range held {
		held[c] = termdict.Len(termdict.Class(c))
	}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, 3+rng.Intn(8))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
			if rng.Intn(4) == 0 {
				b[i] -= 'a' - 'A'
			}
		}
		if rng.Intn(3) == 0 {
			return "%23" + string(b) // "#word"
		}
		return string(b)
	}
	for i := 0; i < 10000; i++ {
		q := word() + "+" + word() + "+lester"
		path := "/search"
		if i%2 == 1 {
			path = "/prov"
		}
		resp, err := http.Get(srv.URL + path + "?q=" + q + "&k=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s?q=%s: status %d", path, q, resp.StatusCode)
		}
	}
	for c := range held {
		if n := termdict.Len(termdict.Class(c)); n != held[c] {
			t.Errorf("%d queries added %d %s terms to the dictionary", 10000, n-held[c], termdict.Class(c))
		}
	}
	if b, _ := getJSON(t, srv.URL+"/prov?q=Xqzvw+lester&k=3", http.StatusOK)["bundles"].([]interface{}); len(b) == 0 {
		t.Error("a query mixing an unknown word with a known one matched nothing")
	}
}
