package repl

// Follower integration suite: every test runs a real leader (Durable +
// Source behind an httptest server) and a real follower (Replica over
// its own MemFS) and drives them through the faults the design claims
// to survive — torn streams, flaky transports, stale cursor hints,
// leader restarts, truncation horizons, outright divergence. The
// convergence bar is byte-identical /search and /prov responses, which
// double-applied or skipped records cannot pass.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/storage"
	"provex/internal/stream"
	"provex/internal/tweet"
	"provex/internal/wal"
)

func testMsg(i int) *tweet.Message {
	date := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	return tweet.Parse(tweet.ID(i+1), fmt.Sprintf("user%d", i%7),
		date, fmt.Sprintf("message %d about #tsunami near samoa http://x.io/%d", i, i%11))
}

// testLeader is a live leader: durable node, shipper, HTTP surface.
type testLeader struct {
	t   *testing.T
	mem *fsx.MemFS
	dur *pipeline.Durable
	src *Source
	srv *httptest.Server
	n   int // messages ingested so far
}

func leaderDurable(t *testing.T, mem *fsx.MemFS) *pipeline.Durable {
	t.Helper()
	dur, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, pipeline.DurableOptions{
		FS:             mem,
		CheckpointPath: "leader/ckpt",
		WALDir:         "leader/wal",
		WALSyncEvery:   1, // acknowledged == durable == shippable
	})
	if err != nil {
		t.Fatal(err)
	}
	return dur
}

func newTestLeader(t *testing.T) *testLeader {
	t.Helper()
	mem := fsx.NewMem()
	dur := leaderDurable(t, mem)
	l := &testLeader{t: t, mem: mem, dur: dur, src: NewSource(dur)}
	l.srv = httptest.NewServer(l.handler())
	t.Cleanup(l.srv.Close)
	return l
}

func (l *testLeader) handler() http.Handler {
	proc := query.New(l.dur.Engine(), query.DefaultOptions())
	proc.Reindex()
	return server.New(proc, server.WithReplication(l.src))
}

// queryServer builds a server whose message index covers everything
// ingested SO FAR (the long-lived l.srv indexed at construction time
// and is only used for replication endpoints, which read files).
func (l *testLeader) queryServer() *httptest.Server {
	srv := httptest.NewServer(l.handler())
	l.t.Cleanup(srv.Close)
	return srv
}

func (l *testLeader) ingest(count int) {
	l.t.Helper()
	for i := 0; i < count; i++ {
		m := testMsg(l.n)
		if err := l.dur.Log(m); err != nil {
			l.t.Fatalf("leader ingest %d: %v", l.n, err)
		}
		l.dur.Engine().Insert(m)
		l.n++
	}
}

func (l *testLeader) checkpoint() {
	l.t.Helper()
	if err := l.dur.Checkpoint(); err != nil {
		l.t.Fatal(err)
	}
}

// restart simulates a leader SIGKILL + recovery: the durable node is
// abandoned (no Close, no final sync beyond what already happened),
// the disk reverts to its synced image, and a fresh node recovers.
func (l *testLeader) restart() {
	l.t.Helper()
	l.mem.Crash()
	l.dur = leaderDurable(l.t, l.mem)
	l.src = NewSource(l.dur)
}

// follower state shared by the helpers below.
func followerOpts(mem *fsx.MemFS, client *http.Client) ReplicaOptions {
	return ReplicaOptions{
		FS:             mem,
		CheckpointPath: "follower/ckpt",
		WALDir:         "follower/wal",
		Client:         client,
		PollInterval:   3 * time.Millisecond,
		StaleAfter:     2 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffCap:     20 * time.Millisecond,
	}
}

func newFollower(t *testing.T, leaderURL string, mem *fsx.MemFS, client *http.Client, tune func(*ReplicaOptions)) *Replica {
	t.Helper()
	opts := followerOpts(mem, client)
	if tune != nil {
		tune(&opts)
	}
	r, err := NewReplica(leaderURL, core.FullIndexConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fetchRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// assertParity requires byte-identical responses from both servers:
// the strongest convergence check — a double-applied, skipped or
// reordered record shifts scores, sizes or ordering somewhere.
func assertParity(t *testing.T, leaderURL, followerURL string, paths ...string) {
	t.Helper()
	for _, p := range paths {
		ls, lb := fetchRaw(t, leaderURL+p)
		fs, fb := fetchRaw(t, followerURL+p)
		if ls != fs {
			t.Fatalf("%s: leader %d vs follower %d", p, ls, fs)
		}
		if string(lb) != string(fb) {
			t.Fatalf("%s: bodies differ\nleader:   %s\nfollower: %s", p, lb, fb)
		}
	}
}

var parityPaths = []string{
	"/search?q=tsunami&k=25",
	"/search?q=samoa+message&k=10",
	"/prov?q=tsunami&k=10",
	"/trending?k=10",
}

func TestFollowerBootstrapTailConvergesWithFaults(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(120)
	leader.checkpoint() // bootstrap payload
	leader.ingest(60)   // plus a WAL tail to stream

	ft := NewFaultTransport(nil)
	client := &http.Client{Transport: ft, Timeout: 2 * time.Second}
	mem := fsx.NewMem()
	r := newFollower(t, leader.srv.URL, mem, client, nil)

	// First request is the checkpoint download: tear it. The validated
	// install must reject the torn file and retry from scratch.
	ft.Arm(1, TransportFault{TornBytes: 64})
	r.Start()
	waitFor(t, 5*time.Second, "initial catch-up", func() bool {
		return r.Applied() == uint64(leader.n)
	})
	if ft.Trips() == 0 {
		t.Fatal("torn checkpoint download never tripped — the fault is not faulting")
	}

	// Live tail under a mid-stream fault.
	ft.Arm(2, TransportFault{TornBytes: 30})
	leader.ingest(40)
	waitFor(t, 5*time.Second, "live tail catch-up", func() bool {
		return r.Applied() == uint64(leader.n)
	})

	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	waitFor(t, 2*time.Second, "follower ready", func() bool { return r.Health().Ready })
	if st, _ := fetchRaw(t, fsrv.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("converged follower readyz = %d", st)
	}
	assertParity(t, leader.queryServer().URL, fsrv.URL, parityPaths...)

	if err := r.Stop(); err != nil {
		t.Fatalf("follower stop: %v", err)
	}

	// A restarted follower is a crash recovery: it must come back from
	// its own durable state and stay converged, without re-bootstrap.
	r2 := newFollower(t, leader.srv.URL, mem, client, nil)
	r2.Start()
	defer r2.Stop()
	waitFor(t, 5*time.Second, "restarted follower ready", func() bool {
		return r2.Applied() == uint64(leader.n) && r2.Health().Ready
	})
	fsrv2 := httptest.NewServer(server.New(r2, server.WithHealth(r2.Health)))
	defer fsrv2.Close()
	assertParity(t, leader.queryServer().URL, fsrv2.URL, parityPaths...)
}

// TestFollowerExportsReadSideFamilies: a follower answers /search from
// its own message index, so its exposition carries the message-index
// families a leader's does — and the index covers the bootstrapped
// history, which the follower reindexed at open.
func TestFollowerExportsReadSideFamilies(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(120)
	leader.checkpoint()
	leader.ingest(30)

	r := newFollower(t, leader.srv.URL, fsx.NewMem(), http.DefaultClient, nil)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	r.Start()
	defer r.Stop()
	waitFor(t, 5*time.Second, "catch-up", func() bool { return r.Applied() == uint64(leader.n) })

	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, fam := range []string{
		"provex_query_index_docs", "provex_query_index_postings",
		"provex_query_index_bytes", "provex_query_duplicate_messages_total",
	} {
		if !strings.Contains(exposition, "# TYPE "+fam+" ") {
			t.Errorf("follower exposition lacks %s", fam)
		}
	}
	// The 120 bootstrapped messages are reindexed at open, the 30 tailed
	// ones indexed as they are applied.
	waitFor(t, 5*time.Second, "the tail indexed", func() bool {
		b.Reset()
		_ = reg.Expose(&b)
		return strings.Contains(b.String(), fmt.Sprintf("\nprovex_query_index_docs %d\n", leader.n))
	})
}

// swapHandler lets a single stable URL point at successive leader
// generations — an HTTP stand-in for a leader process restarting
// behind its address. holdWAL makes the moment of a swap exact: the
// k-th WAL fetch parks before it is served, and is answered by
// whatever handler is current once the test releases it.
type swapHandler struct {
	h atomic.Pointer[http.Handler]

	holdAt  int64 // which /repl/wal request parks; 0 = none
	fetches atomic.Int64
	held    chan struct{} // closed when that request has arrived
	release chan struct{} // closed by the test to let it through
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

// holdWAL arms the hold; call it before the follower starts.
func (s *swapHandler) holdWAL(k int64) {
	s.holdAt, s.held, s.release = k, make(chan struct{}), make(chan struct{})
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.holdAt > 0 && r.URL.Path == "/repl/wal" && s.fetches.Add(1) == s.holdAt {
		close(s.held)
		<-s.release
	}
	(*s.h.Load()).ServeHTTP(w, r)
}

// down answers every request 500 — the connection-refused window while
// a leader restarts.
var down = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "leader restarting", http.StatusInternalServerError)
})

func TestFollowerSurvivesLeaderRestartMidStream(t *testing.T) {
	leader := newTestLeader(t)
	sw := &swapHandler{}
	sw.set(leader.handler())
	srv := httptest.NewServer(sw)
	defer srv.Close()

	leader.ingest(80)
	leader.checkpoint()
	leader.ingest(200)

	client := &http.Client{Timeout: 2 * time.Second}
	r := newFollower(t, srv.URL, fsx.NewMem(), client, func(o *ReplicaOptions) {
		o.MaxBatchBytes = 1500 // many fetches, so the restart lands mid-stream
	})
	// The follower is genuinely mid-stream when its fourth WAL fetch
	// arrives — three small batches past the checkpoint, most of the log
	// still to come. Hold that fetch, kill the leader under it, and let
	// the fetch hit the dead leader.
	sw.holdWAL(4)
	r.Start()
	defer r.Stop()
	select {
	case <-sw.held:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the follower's fourth WAL fetch")
	}
	sw.set(down)
	close(sw.release)
	prev := r.Applied()
	if prev >= uint64(leader.n) {
		t.Fatalf("follower already applied %d of %d before its fourth fetch — test premise broken", prev, leader.n)
	}
	leader.restart()
	if b, _ := leader.dur.ReadWAL(math.MaxUint64, wal.Cursor{}, 0); b.Synced != uint64(leader.n) {
		t.Fatalf("leader recovered to %d, ingested %d — test premise broken", b.Synced, leader.n)
	}
	sw.set(leader.handler())

	// WAL sequence alignment means the follower resumes exactly after
	// its applied watermark: monotonic progress, no double replay.
	waitFor(t, 10*time.Second, "post-restart convergence", func() bool {
		a := r.Applied()
		if a < prev {
			t.Fatalf("applied regressed: %d -> %d", prev, a)
		}
		prev = a
		return a == uint64(leader.n)
	})
	if got := int(r.Snapshot().Messages); got != leader.n {
		t.Fatalf("follower engine has %d messages, leader ingested %d — replay not exactly-once", got, leader.n)
	}
	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	assertParity(t, leader.queryServer().URL, fsrv.URL, parityPaths...)
}

// TestFollowerDegradesGracefullyWhenStalled is the acceptance test for
// graceful degradation: a stalled transport (every request wedged past
// the client timeout) must flip the follower to not-ready within its
// staleness bound and gate reads with Retry-After — and recovery must
// be automatic once the transport heals.
func TestFollowerDegradesGracefullyWhenStalled(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(50)

	ft := NewFaultTransport(nil)
	client := &http.Client{Transport: ft, Timeout: 100 * time.Millisecond}
	r := newFollower(t, leader.srv.URL, fsx.NewMem(), client, func(o *ReplicaOptions) {
		o.StaleAfter = 150 * time.Millisecond
	})
	r.Start()
	defer r.Stop()
	waitFor(t, 5*time.Second, "initial convergence", func() bool {
		return r.Applied() == uint64(leader.n) && r.Health().Ready
	})

	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()

	// Wedge the transport: every request stalls past the client timeout.
	ft.Arm(1, TransportFault{Stall: 300 * time.Millisecond, Freeze: true})
	leader.ingest(25) // the follower is now stale and cannot know by how much

	waitFor(t, 5*time.Second, "staleness gate", func() bool {
		st := r.Health()
		return !st.Ready && strings.Contains(st.Reason, "unreachable")
	})
	resp, err := http.Get(fsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("stale readyz = %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(fsrv.URL + "/search?q=tsunami")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("stale search = %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Liveness is not readiness: /healthz stays 200.
	if st, _ := fetchRaw(t, fsrv.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz while stale = %d", st)
	}

	// Heal the transport: the follower recovers on its own.
	ft.Disarm()
	waitFor(t, 5*time.Second, "recovery after stall", func() bool {
		return r.Applied() == uint64(leader.n) && r.Health().Ready
	})
	if st, _ := fetchRaw(t, fsrv.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("recovered readyz = %d", st)
	}
}

// TestFollowerGatesWhileLagBeyondBound drives a slow catch-up and
// checks the explicit staleness bound: while lag exceeds MaxLag the
// follower reports not-ready (reads gated), flipping ready only when
// the lag drains below the bound.
func TestFollowerGatesWhileLagBeyondBound(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(500)

	ft := NewFaultTransport(nil)
	// Pure stall on every request: slow, not broken.
	ft.Arm(1, TransportFault{Stall: 2 * time.Millisecond, Freeze: true})
	client := &http.Client{Transport: ft, Timeout: 2 * time.Second}
	r := newFollower(t, leader.srv.URL, fsx.NewMem(), client, func(o *ReplicaOptions) {
		o.MaxBatchBytes = 600 // a handful of records per fetch
		o.MaxLag = 50
	})
	// No state generation yet: the read surface finds nothing — reads
	// are gated then, but a caller that gets through must not crash.
	if _, err := r.Bundle(1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Bundle while bootstrapping = %v, want storage.ErrNotFound", err)
	}
	if r.SearchBundles("tsunami", 5) != nil || r.SearchMessages("tsunami", 5) != nil ||
		r.Trending(5) != nil || r.Snapshot().Messages != 0 {
		t.Fatal("a bootstrapping follower's reads found something")
	}
	r.Start()
	defer r.Stop()

	// Every message shares #tsunami, so bundle 1 is the one the tailer's
	// writer keeps appending to; each poll walks all of what Bundle
	// returned for it, beside that writer.
	sawLagGate, partial, last := false, 0, 0
	waitFor(t, 15*time.Second, "slow catch-up", func() bool {
		st := r.Health()
		if !st.Ready && strings.Contains(st.Reason, "lag") {
			sawLagGate = true
		}
		if d, err := r.Bundle(1); err == nil {
			for i, n := range d.Nodes {
				if n.Msg.Text() == "" || int(n.Parent) >= i {
					t.Fatalf("Bundle(1) while tailing: node %d = %+v", i, n)
				}
			}
			if len(d.Nodes) < last || len(d.Summary) == 0 {
				t.Fatalf("Bundle(1) while tailing: %d nodes after %d, summary %v", len(d.Nodes), last, d.Summary)
			}
			if last = len(d.Nodes); last < leader.n {
				partial++
			}
		}
		return r.Applied() == uint64(leader.n)
	})
	if !sawLagGate {
		t.Fatal("follower never reported a lag gate during a 500-message catch-up with MaxLag=50")
	}
	if partial == 0 || last != leader.n {
		t.Fatalf("Bundle(1) answered %d times mid-tail and ended at %d of %d nodes", partial, last, leader.n)
	}
	waitFor(t, 2*time.Second, "ready after drain", func() bool { return r.Health().Ready })
	if lag := r.Lag(); lag != 0 {
		t.Fatalf("lag after convergence = %d", lag)
	}
}

// TestFollowerLatchesOnDivergence points a converged follower at a
// leader whose durable watermark is BELOW the follower's applied state
// (a reset/blank leader — the one regression WAL shipping cannot
// reconcile) and requires a latched, gated, non-destructive stop: no
// data applied, no data discarded, reads refused.
func TestFollowerLatchesOnDivergence(t *testing.T) {
	leaderA := newTestLeader(t)
	sw := &swapHandler{}
	sw.set(leaderA.handler())
	srv := httptest.NewServer(sw)
	defer srv.Close()
	leaderA.ingest(50)

	client := &http.Client{Timeout: 2 * time.Second}
	r := newFollower(t, srv.URL, fsx.NewMem(), client, nil)
	r.Start()
	defer r.Stop()
	waitFor(t, 5*time.Second, "convergence on leader A", func() bool {
		return r.Applied() == uint64(leaderA.n) && r.Health().Ready
	})

	// Swap in a blank leader behind the same address.
	leaderB := newTestLeader(t)
	leaderB.ingest(10) // different, shorter history
	sw.set(leaderB.handler())

	waitFor(t, 5*time.Second, "divergence latch", func() bool {
		st := r.Health()
		return !st.Ready && st.GateReads && strings.Contains(st.Reason, "diverged")
	})
	if got := r.Applied(); got != 50 {
		t.Fatalf("diverged follower changed state: applied %d, want 50", got)
	}
	if got := int(r.Snapshot().Messages); got != 50 {
		t.Fatalf("diverged follower engine at %d messages, want 50", got)
	}
}

// TestFollowerConvergesDespiteStaleOffsets freezes stale-cursor
// injection across every request: the leader must fall back from the
// poisoned hints to full scans and the follower must still converge.
func TestFollowerConvergesDespiteStaleOffsets(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(150)

	ft := NewFaultTransport(nil)
	ft.Arm(1, TransportFault{StaleOffset: true, Freeze: true})
	client := &http.Client{Transport: ft, Timeout: 2 * time.Second}
	r := newFollower(t, leader.srv.URL, fsx.NewMem(), client, func(o *ReplicaOptions) {
		o.MaxBatchBytes = 2000
	})
	r.Start()
	defer r.Stop()
	waitFor(t, 5*time.Second, "convergence under stale offsets", func() bool {
		return r.Applied() == uint64(leader.n)
	})
	if ft.Trips() == 0 {
		t.Fatal("stale-offset injection never fired")
	}
	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	waitFor(t, 2*time.Second, "ready", func() bool { return r.Health().Ready })
	assertParity(t, leader.queryServer().URL, fsrv.URL, parityPaths...)
}

// TestSourceShedsAtCapacity occupies all of the leader's shipping
// slots and requires the next request to be shed immediately — 503
// with Retry-After: 1 — rather than queued behind them.
func TestSourceShedsAtCapacity(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(10)
	src := NewSource(leader.dur)
	srv := httptest.NewServer(src)
	defer srv.Close()

	for i := 0; i < maxStreams; i++ {
		src.sem <- struct{}{}
	}
	resp, err := http.Get(srv.URL + "/repl/wal?after=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated shipper answered %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed Retry-After = %q, want 1", got)
	}
	if got := src.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	<-src.sem
	if st, _ := fetchRaw(t, srv.URL+"/repl/wal?after=0"); st != http.StatusOK {
		t.Fatalf("freed shipper answered %d", st)
	}
}

// tornWriter is a ResponseWriter whose connection dies after k bytes.
type tornWriter struct {
	*httptest.ResponseRecorder
	k int
}

func (w *tornWriter) Write(p []byte) (int, error) {
	if len(p) > w.k {
		n, _ := w.ResponseRecorder.Write(p[:w.k])
		w.k = 0
		return n, io.ErrClosedPipe
	}
	w.k -= len(p)
	return w.ResponseRecorder.Write(p)
}

// TestSourceCountsOnlyFinishedStreams: a WAL response torn mid-stream
// ships bytes but no batch and no records — the follower retries, and
// counting the torn attempt too would count them twice.
func TestSourceCountsOnlyFinishedStreams(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(10)
	src := NewSource(leader.dur)
	req := httptest.NewRequest(http.MethodGet, "/repl/wal?after=0", nil)

	whole := httptest.NewRecorder()
	src.ServeHTTP(whole, req)
	if b, r := src.shipBatches.Value(), src.shipRecords.Value(); b != 1 || r != 10 {
		t.Fatalf("a finished stream counted %d batches, %d records; want 1, 10", b, r)
	}
	for _, k := range []int{0, 20, whole.Body.Len() / 2, whole.Body.Len() - 1} {
		src.ServeHTTP(&tornWriter{httptest.NewRecorder(), k}, req)
	}
	if b, r := src.shipBatches.Value(), src.shipRecords.Value(); b != 1 || r != 10 {
		t.Fatalf("four torn streams moved the counts to %d batches, %d records", b, r)
	}
	if got, want := src.shipBytes.Value(), int64(whole.Body.Len()+20+whole.Body.Len()/2+whole.Body.Len()-1); got != want {
		t.Fatalf("shipped bytes = %d, want %d (every byte that left, torn or not)", got, want)
	}
}

// TestFollowerHonorsShedResponses injects a bare 503 (no Retry-After)
// into the tail path and checks the follower treats it as backpressure
// — bounded wait, then convergence — not as an error spiral.
func TestFollowerHonorsShedResponses(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(60)

	ft := NewFaultTransport(nil)
	client := &http.Client{Transport: ft, Timeout: 2 * time.Second}
	r := newFollower(t, leader.srv.URL, fsx.NewMem(), client, nil)
	ft.Arm(2, TransportFault{Status: http.StatusServiceUnavailable})
	r.Start()
	defer r.Stop()
	waitFor(t, 10*time.Second, "convergence after shed", func() bool {
		return r.Applied() == uint64(leader.n)
	})
	if ft.Trips() == 0 {
		t.Fatal("injected 503 never fired")
	}
}

// TestDatesRenderAlikeEverywhere: a date is unix nanoseconds once it is
// parsed, so the zone offset a feed spells it in is not kept, and every
// node renders it in UTC. A stream dated +02:00 reads the same, byte
// for byte, on /search, /prov and /bundle from the live leader, from a
// follower, and from the leader after a crash and recovery (checkpoint
// plus WAL replay) — while the live node kept the feed's offset, the
// recovered nodes, decoding the stored form, rendered Z.
func TestDatesRenderAlikeEverywhere(t *testing.T) {
	leader := newTestLeader(t)
	ingest := func(count int) {
		for end := leader.n + count; leader.n < end; leader.n++ {
			i := leader.n
			date := time.Date(2009, 9, 29, 20, 0, 0, 0, time.FixedZone("", 2*60*60)).Add(time.Duration(i) * time.Minute)
			line := fmt.Sprintf(`{"id":%d,"date":%q,"user":"user%d","text":"tsunami %d near #samoa http://x.io/%d"}`,
				i+1, date.Format(time.RFC3339), i%7, i, i%5)
			m, err := stream.NewJSONLReader(strings.NewReader(line)).Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := leader.dur.Log(m); err != nil {
				t.Fatal(err)
			}
			leader.dur.Engine().Insert(m)
		}
	}
	ingest(60)
	leader.checkpoint()
	ingest(30) // a WAL tail past the checkpoint

	live := leader.queryServer().URL
	_, prov := fetchRaw(t, live+"/prov?q=tsunami&k=10")
	var top struct{ Bundles []struct{ ID uint64 } }
	if err := json.Unmarshal(prov, &top); err != nil || len(top.Bundles) == 0 {
		t.Fatalf("/prov names no bundle (%v): %s", err, prov)
	}
	paths := []string{"/search?q=tsunami&k=25", "/prov?q=tsunami&k=10", fmt.Sprintf("/bundle?id=%d", top.Bundles[0].ID)}
	if _, b := fetchRaw(t, live+paths[2]); !strings.Contains(string(b), `"2009-09-29T18:00:00Z"`) {
		t.Fatalf("/bundle does not render the first date in UTC: %s", b)
	}

	r := newFollower(t, leader.srv.URL, fsx.NewMem(), http.DefaultClient, nil)
	r.Start()
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		return r.Applied() == uint64(leader.n) && r.Health().Ready
	})
	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	assertParity(t, live, fsrv.URL, paths...)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}

	leader.restart()
	assertParity(t, live, leader.queryServer().URL, paths...)
}

// TestTornBodyNeverEndsClean: a torn fault hands the reader a strict
// prefix of the body, at most TornBytes of it, and then
// io.ErrUnexpectedEOF — also when the whole body is shorter than
// TornBytes, so a counted trip is always a delivered fault.
func TestTornBodyNeverEndsClean(t *testing.T) {
	for _, c := range []struct{ size, torn, want int }{
		{size: 10, torn: 64, want: 9},
		{size: 100, torn: 64, want: 64},
		{size: 1, torn: 64, want: 0},
		{size: 0, torn: 1, want: 0},
	} {
		body := strings.Repeat("x", c.size)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		}))
		ft := NewFaultTransport(nil)
		ft.Arm(1, TransportFault{TornBytes: c.torn})
		resp, err := (&http.Client{Transport: ft}).Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if err != io.ErrUnexpectedEOF || len(got) != c.want || ft.Trips() != 1 {
			t.Errorf("%d-byte body torn at %d: read %d bytes, err %v, %d trips; want %d bytes, io.ErrUnexpectedEOF, 1 trip",
				c.size, c.torn, len(got), err, ft.Trips(), c.want)
		}
	}
}

// scriptedLeader is a leader reduced to its wire: /repl/checkpoint
// answers 404, as a fresh leader does, and the nth /repl/wal request
// gets the nth of bodies, the last one again once they run out. It
// keeps the query of every WAL request.
type scriptedLeader struct {
	bodies [][]byte

	mu    sync.Mutex
	asked []url.Values
}

func (s *scriptedLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/repl/wal" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	s.asked = append(s.asked, r.URL.Query())
	body := s.bodies[min(len(s.asked), len(s.bodies))-1]
	s.mu.Unlock()
	w.Write(body)
}

// ask returns the query of the nth (0-based) WAL request, waiting for it.
func (s *scriptedLeader) ask(t *testing.T, n int) url.Values {
	t.Helper()
	var q url.Values
	waitFor(t, 5*time.Second, fmt.Sprintf("WAL request %d", n+1), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.asked) > n {
			q = s.asked[n]
		}
		return q != nil
	})
	return q
}

// record is the WAL record of testMsg(seq-1) under seq.
func record(seq uint64) []byte { return wal.AppendRecord(nil, seq, testMsg(int(seq-1))) }

// walBody is one /repl/wal response: records behind a header that says
// synced and next.
func walBody(synced uint64, next wal.Cursor, records ...[]byte) []byte {
	return appendBatch(nil, wal.Batch{Synced: synced, Next: next, Records: records})
}

// tailScript starts a follower of ld on a fresh disk and waits for it
// to have asked for WAL len(want) times, each request's after, seg and
// off as want lists them; then for it to have applied applied messages.
func tailScript(t *testing.T, ld *scriptedLeader, applied uint64, want ...string) *Replica {
	t.Helper()
	srv := httptest.NewServer(ld)
	t.Cleanup(srv.Close)
	r := newFollower(t, srv.URL, fsx.NewMem(), http.DefaultClient, nil)
	r.Start()
	t.Cleanup(func() { r.Stop() })
	for i, w := range want {
		q := ld.ask(t, i)
		if got := fmt.Sprintf("after=%s seg=%s off=%s", q.Get("after"), q.Get("seg"), q.Get("off")); got != w {
			t.Fatalf("WAL request %d asked %s, want %s", i+1, got, w)
		}
	}
	waitFor(t, 5*time.Second, "the stream applied", func() bool { return r.Applied() == applied })
	if got := r.Snapshot().Messages; got != int64(applied) {
		t.Fatalf("follower engine holds %d messages, want %d", got, applied)
	}
	return r
}

// TestFollowerAppliesRepeatsOnce: a batch that repeats sequences the
// follower has applied (a leader resuming from a stale cursor sends
// them) applies the new ones only.
func TestFollowerAppliesRepeatsOnce(t *testing.T) {
	ld := &scriptedLeader{bodies: [][]byte{
		walBody(5, wal.Cursor{}, record(1), record(2), record(3)),
		walBody(5, wal.Cursor{}, record(2), record(3), record(4), record(5)),
		walBody(5, wal.Cursor{}),
	}}
	r := tailScript(t, ld, 5, "after=0 seg=0 off=0", "after=3 seg=0 off=0", "after=5 seg=0 off=0")
	if got := r.records.Value(); got != 5 {
		t.Fatalf("records applied = %d, want 5", got)
	}
}

// TestFollowerStopsAtASequenceGap: a batch that skips a sequence is
// applied up to the gap; the fetch is retried after the last applied
// record, from no cursor, since the batch's was not reached.
func TestFollowerStopsAtASequenceGap(t *testing.T) {
	ld := &scriptedLeader{bodies: [][]byte{
		walBody(5, wal.Cursor{Seg: 3, Off: 77}, record(1), record(2)),
		walBody(5, wal.Cursor{Seg: 3, Off: 99}, record(3), record(5)),
		walBody(5, wal.Cursor{Seg: 3, Off: 120}, record(4), record(5)),
		walBody(5, wal.Cursor{Seg: 3, Off: 120}),
	}}
	r := tailScript(t, ld, 5, "after=0 seg=0 off=0", "after=2 seg=3 off=77", "after=3 seg=0 off=0", "after=5 seg=3 off=120")
	if r.retries.Value() == 0 {
		t.Fatal("the gap was not counted as a retried fetch")
	}
}

// TestFollowerStopsAtAnUndecodableRecord: a record whose frame is whole
// but whose payload does not decode stops the batch before it, and the
// fetch is retried after the last applied record.
func TestFollowerStopsAtAnUndecodableRecord(t *testing.T) {
	ld := &scriptedLeader{bodies: [][]byte{
		walBody(3, wal.Cursor{}, record(1), record(2), binary.AppendUvarint(nil, 3), record(3)),
		walBody(3, wal.Cursor{}, record(3)),
		walBody(3, wal.Cursor{}),
	}}
	r := tailScript(t, ld, 3, "after=0 seg=0 off=0", "after=2 seg=0 off=0", "after=3 seg=0 off=0")
	if r.retries.Value() == 0 {
		t.Fatal("the undecodable record was not counted as a retried fetch")
	}
}

// memFiles reads every file under dir of mem, one level of
// subdirectories included, except a checkpoint download in progress.
func memFiles(t *testing.T, mem *fsx.MemFS, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	names, err := mem.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		p := dir + "/" + name
		if strings.HasSuffix(p, downloadSuffix) {
			continue
		}
		if b, err := mem.ReadFile(p); err == nil {
			files[p] = string(b)
			continue
		}
		for p, b := range memFiles(t, mem, p) {
			files[p] = b
		}
	}
	return files
}

// TestFollowerRefusesAFlippedCheckpoint: a resync whose download is
// complete but has one byte flipped fails validation; the follower
// installs nothing, keeps its checkpoint and WAL as they were and keeps
// serving the state it has, and tries again.
func TestFollowerRefusesAFlippedCheckpoint(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(60)
	leader.checkpoint()
	leader.ingest(20)
	sw := &swapHandler{}
	sw.set(leader.handler())
	srv := httptest.NewServer(sw)
	defer srv.Close()

	mem := fsx.NewMem()
	r := newFollower(t, srv.URL, mem, http.DefaultClient, nil)
	r.Start()
	waitFor(t, 5*time.Second, "catch-up", func() bool { return r.Applied() == uint64(leader.n) })
	before := memFiles(t, mem, "follower")
	if _, ok := before["follower/ckpt"]; !ok || len(before) < 2 {
		t.Fatalf("follower state before the resync = %d files, want its checkpoint and WAL", len(before))
	}

	f, err := leader.dur.OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ckpt[len(ckpt)/2] ^= 0x40
	var downloads atomic.Int64
	sw.set(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/repl/checkpoint" {
			downloads.Add(1)
			w.Write(ckpt)
			return
		}
		http.Error(w, "truncated", http.StatusGone)
	}))
	waitFor(t, 5*time.Second, "a second download", func() bool { return downloads.Load() >= 2 })
	after := memFiles(t, mem, "follower")
	if len(after) != len(before) {
		t.Fatalf("follower files %d after the refused resync, %d before", len(after), len(before))
	}
	for p, b := range before {
		if after[p] != b {
			t.Fatalf("%s changed under a refused resync", p)
		}
	}
	if got := r.bootstraps.Value(); got != 1 {
		t.Fatalf("checkpoints installed = %d, want the bootstrap's 1", got)
	}
	if got := r.Snapshot().Messages; got != int64(leader.n) {
		t.Fatalf("follower serves %d messages, want the %d it held", got, leader.n)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadFile("follower/ckpt" + downloadSuffix); err == nil {
		t.Fatal("a refused download was left beside the checkpoint")
	}
}

// TestFollowerResyncsBeforeTheLeaderCheckpoints: a follower whose local
// pipeline degraded resyncs, and a leader that has not checkpointed yet
// has no checkpoint to resync from — but it has truncated nothing
// either, so the follower reopens from its own checkpoint, drops its
// WAL, and tails the rest of the leader's log.
func TestFollowerResyncsBeforeTheLeaderCheckpoints(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(30)

	ff := fsx.NewFault(fsx.NewMem())
	r := newFollower(t, leader.srv.URL, nil, http.DefaultClient, func(o *ReplicaOptions) {
		o.FS = ff
		o.CheckpointEvery = 20
	})
	r.Start()
	defer r.Stop()
	waitFor(t, 5*time.Second, "catch-up", func() bool { return r.Applied() == uint64(leader.n) })

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpSync)
	leader.ingest(10)
	waitFor(t, 5*time.Second, "the failed sync to show", func() bool { return !r.Health().Ready })
	ff.Disarm()
	leader.ingest(10)
	waitFor(t, 5*time.Second, "the resynced follower to catch up", func() bool {
		return r.Applied() == uint64(leader.n) && r.Health().Ready
	})
	if got := r.Snapshot().Messages; got != int64(leader.n) {
		t.Fatalf("follower engine holds %d messages, want %d", got, leader.n)
	}
	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	assertParity(t, leader.queryServer().URL, fsrv.URL, parityPaths...)
}
