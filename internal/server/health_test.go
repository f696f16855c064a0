package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/query"
)

// healthServer builds a server whose readiness is test-controlled.
func healthServer(t *testing.T, st *atomic.Pointer[HealthStatus]) *httptest.Server {
	t.Helper()
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	srv := httptest.NewServer(New(proc, WithHealth(func() HealthStatus { return *st.Load() })))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthzAlwaysAlive(t *testing.T) {
	var st atomic.Pointer[HealthStatus]
	st.Store(&HealthStatus{Ready: false, Reason: "bootstrapping", GateReads: true})
	srv := healthServer(t, &st)
	body := getJSON(t, srv.URL+"/healthz", http.StatusOK)
	if body["alive"] != true {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestReadyzWithoutHealthFunc(t *testing.T) {
	srv, _ := newTestServer(t)
	body := getJSON(t, srv.URL+"/readyz", http.StatusOK)
	if body["ready"] != true {
		t.Fatalf("readyz body: %v", body)
	}
}

func TestReadyzFlipsWithHealth(t *testing.T) {
	var st atomic.Pointer[HealthStatus]
	st.Store(&HealthStatus{
		Ready:      false,
		Reason:     "replica lag 1234 messages exceeds 500",
		RetryAfter: 3 * time.Second,
		GateReads:  true,
		Detail:     map[string]interface{}{"lag": 1234},
	})
	srv := healthServer(t, &st)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while lagging = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q", got)
	}
	body := getJSON(t, srv.URL+"/readyz", http.StatusServiceUnavailable)
	if body["ready"] != false || body["lag"] != float64(1234) {
		t.Fatalf("readyz body: %v", body)
	}

	st.Store(&HealthStatus{Ready: true})
	body = getJSON(t, srv.URL+"/readyz", http.StatusOK)
	if body["ready"] != true {
		t.Fatalf("readyz after recovery: %v", body)
	}
}

func TestGateReadsRefusesDataEndpointsOnly(t *testing.T) {
	var st atomic.Pointer[HealthStatus]
	st.Store(&HealthStatus{Ready: false, Reason: "stale", RetryAfter: 2 * time.Second, GateReads: true})
	srv := healthServer(t, &st)

	for _, path := range []string{"/search?q=x", "/prov?q=x", "/bundle?id=1", "/trending"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s while gated = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") != "2" {
			t.Fatalf("GET %s: 503 without usable Retry-After (%q)", path, resp.Header.Get("Retry-After"))
		}
	}
	// The operational surface stays up for operators and probes.
	for _, path := range []string{"/stats", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while gated = %d, want 200", path, resp.StatusCode)
		}
	}

	// Not-ready without GateReads (a leader still warming caches, say)
	// keeps serving data.
	st.Store(&HealthStatus{Ready: false, Reason: "warming"})
	resp, err := http.Get(srv.URL + "/trending")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ungated not-ready trending = %d", resp.StatusCode)
	}
}

// TestWithReplicationMount: the replication handler serves under
// /repl/ behind the shared middleware — non-GET refused with 405 before
// it runs, every request counted under path="/repl/" — and is never
// gated, however unready the node.
func TestWithReplicationMount(t *testing.T) {
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	calls := 0
	marker := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("X-Repl", r.URL.Path)
	})
	reg := metrics.NewRegistry()
	gated := func() HealthStatus { return HealthStatus{Reason: "bootstrapping", GateReads: true} }
	srv := httptest.NewServer(New(proc, WithRegistry(reg), WithHealth(gated), WithReplication(marker)))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/repl/wal", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || calls != 0 {
		t.Fatalf("POST /repl/wal = %d after %d handler calls, want 405 and none", resp.StatusCode, calls)
	}
	resp, err = http.Get(srv.URL + "/repl/wal?after=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repl") != "/repl/wal" {
		t.Fatalf("GET /repl/wal = %d, X-Repl %q: replication handler not mounted under /repl/", resp.StatusCode, resp.Header.Get("X-Repl"))
	}
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`provex_http_requests_total{code="2xx",path="/repl/"} 1`,
		`provex_http_requests_total{code="4xx",path="/repl/"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %s", want)
		}
	}
}
