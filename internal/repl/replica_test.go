package repl

// Follower integration suite: every test runs a real leader (Durable +
// Source behind an httptest server) and a real follower (Replica over
// its own MemFS) and drives them through the faults the design claims
// to survive — torn streams, flaky transports, stale cursor hints,
// leader restarts, truncation horizons, outright divergence. The
// convergence bar is byte-identical /search and /prov responses, which
// double-applied or skipped records cannot pass.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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
	"provex/internal/tweet"
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
	l := &testLeader{t: t, mem: mem, dur: dur, src: NewSource(dur, SourceOptions{})}
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
	l.src = NewSource(l.dur, SourceOptions{})
}

// follower state shared by the helpers below.
func followerOpts(mem *fsx.MemFS, client *http.Client) ReplicaOptions {
	return ReplicaOptions{
		FS:             mem,
		CheckpointPath: "follower/ckpt",
		WALDir:         "follower/wal",
		WALSyncEvery:   1,
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

// TestFollowerCrashTorture SIGKILLs the follower at random points
// under randomized transport faults — including across a leader
// checkpoint that truncates history out from under it (410 resync) —
// and requires exact convergence at the end. Double replay, skipped
// records or a poisoned bootstrap all fail the byte parity check.
func TestFollowerCrashTorture(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(150)
	leader.checkpoint()
	leader.ingest(100)

	rng := rand.New(rand.NewSource(7))
	mem := fsx.NewMem() // the follower's disk, surviving every round

	const rounds = 8
	for round := 0; round < rounds; round++ {
		ft := NewFaultTransport(nil)
		client := &http.Client{Transport: ft, Timeout: 500 * time.Millisecond}
		r := newFollower(t, leader.srv.URL, mem, client, func(o *ReplicaOptions) {
			o.WALSyncEvery = 4 // let crashes actually lose recent applies
			o.MaxBatchBytes = 1 + rng.Intn(4000)
		})
		switch rng.Intn(4) {
		case 0:
			ft.Arm(1+rng.Int63n(5), TransportFault{})
		case 1:
			ft.Arm(1+rng.Int63n(5), TransportFault{TornBytes: 1 + rng.Intn(300)})
		case 2:
			ft.Arm(1+rng.Int63n(5), TransportFault{StaleOffset: true})
		case 3:
			ft.Arm(1+rng.Int63n(5), TransportFault{Status: http.StatusServiceUnavailable})
		}
		r.Start()
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
		r.kill()
		// Let the abandoned pipeline's queue settle so the simulated
		// power cut below is the only thing that loses data.
		if st := r.state.Load(); st != nil {
			last := st.svc.Ingested()
			waitFor(t, time.Second, "pipeline settle", func() bool {
				now := st.svc.Ingested()
				settled := now == last
				last = now
				return settled
			})
		}
		mem.Crash()

		// Keep the leader moving; mid-torture checkpoints truncate WAL
		// history and force lagging followers through the 410 path.
		if round%3 == 1 {
			leader.ingest(40)
		}
		if round == 4 {
			leader.checkpoint()
		}
	}

	// Final round: no faults, full convergence, graceful shutdown.
	client := &http.Client{Timeout: 2 * time.Second}
	r := newFollower(t, leader.srv.URL, mem, client, nil)
	r.Start()
	waitFor(t, 10*time.Second, "post-torture convergence", func() bool {
		return r.Applied() == uint64(leader.n) && r.Health().Ready
	})
	fsrv := httptest.NewServer(server.New(r, server.WithHealth(r.Health)))
	defer fsrv.Close()
	assertParity(t, leader.queryServer().URL, fsrv.URL, parityPaths...)
	if err := r.Stop(); err != nil {
		t.Fatalf("final stop: %v", err)
	}
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
	if got := leader.dur.WALSyncedSeq(); got != uint64(leader.n) {
		t.Fatalf("leader recovered to %d, ingested %d — test premise broken", got, leader.n)
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
				if n.Msg.Text == "" || int(n.Parent) >= i {
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

// TestSourceShedsAtCapacity occupies the leader's only shipping slot
// and requires the next request to be shed immediately — 503 with the
// configured Retry-After — rather than queued behind it.
func TestSourceShedsAtCapacity(t *testing.T) {
	leader := newTestLeader(t)
	leader.ingest(10)
	src := NewSource(leader.dur, SourceOptions{MaxStreams: 1, RetryAfter: 7 * time.Second})
	srv := httptest.NewServer(src)
	defer srv.Close()

	src.sem <- struct{}{} // occupy the only slot
	resp, err := http.Get(srv.URL + "/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated shipper answered %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("shed Retry-After = %q, want 7", got)
	}
	<-src.sem
	if st, _ := fetchRaw(t, srv.URL+"/repl/status"); st != http.StatusOK {
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
	src := NewSource(leader.dur, SourceOptions{})
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
