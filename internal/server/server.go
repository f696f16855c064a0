// Package server exposes the query module over HTTP — the analogue of
// the paper's demo site (t.pku.edu.cn/tweet): conventional message
// search, provenance bundle search, bundle trail visualisation and
// engine statistics, all as JSON plus a minimal HTML landing page and
// an optional Prometheus-format metrics endpoint.
//
// Endpoints (all GET-only; other methods get 405 with an Allow header):
//
//	GET /               — landing page with usage
//	GET /search?q=&k=   — Figure 1: ranked individual messages
//	GET /prov?q=&k=     — Figure 2(a): ranked provenance bundles
//	GET /bundle?id=     — Figure 2(b)/10: one bundle's trail as JSON
//	GET /trending?k=    — hot bundles right now
//	GET /stats          — engine snapshot as JSON
//	GET /healthz        — liveness: 200 whenever the process serves HTTP
//	GET /readyz         — readiness: 200 when recovery/catch-up is complete (WithHealth)
//	GET /metrics        — Prometheus text exposition (WithRegistry only)
//	GET /debug/pprof/*  — runtime profiles (WithPprof only)
//	GET /repl/*         — WAL-shipping replication surface (WithReplication only)
//	GET /explain?id=            — full decision trace of a sampled message (WithTrace only)
//	GET /trace/recent?n=        — newest sampled decisions, compact (WithTrace only)
//	GET /trace/refinements?n=   — Algorithm 3 eviction audit log (WithTrace only)
//
// Degradation contract: every 503 the package emits goes through
// Unavailable and therefore carries a Retry-After header. When a
// WithHealth status reports not-ready with GateReads set (a follower
// whose replica lag passed its bound, or one still bootstrapping), the
// data endpoints — /search, /prov, /bundle, /trending — answer 503
// while the operational surface (/stats, /metrics, /healthz, /readyz,
// /repl/*) stays up, so operators and the leader can still see and
// feed the node while clients are told to back off.
//
// Concurrency contract: a Server owns no state of its own beyond its
// metrics instruments, so the mux serves any number of requests
// concurrently. A handler makes one Backend call and then renders what
// it returned — and the rendering runs after whatever lock that call
// held is gone, beside a writer that is still ingesting. That is safe
// because the Backend is a query.Reader, whose contract is that every
// returned value is the caller's own copy (messages excepted: they are
// immutable once parsed); a handler never holds a live bundle, pool or
// index. *pipeline.Service (what provserve passes, over either engine)
// answers under its read lock while its single writer ingests; a bare
// *query.Processor takes no lock and is safe only once ingest has
// finished. The metrics middleware uses atomic instruments and
// internally locked histograms, adding no shared mutable state of its
// own.
//
// With WithRegistry the server also becomes the metrics aggregation
// point: per-endpoint request counters, an in-flight gauge and latency
// histograms are registered at construction (so every series exists
// from the first scrape, traffic or not), and a render-time collector
// snapshots Backend.Snapshot() once per scrape to publish the
// lock-guarded engine gauges (pool occupancy, memory estimates, flush
// parking) that the hot-path instruments cannot expose atomically.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/query"
	"provex/internal/storage"
	"provex/internal/trace"
)

// Backend is what the HTTP layer needs from the indexing side: the read
// surface, declared in internal/query. *pipeline.Service (concurrent
// ingest, serial or sharded engine), *repl.Replica and a bare
// *query.Processor (no concurrent ingest) satisfy it.
type Backend = query.Reader

// HealthStatus is one readiness verdict from a HealthFunc.
type HealthStatus struct {
	// Ready is the /readyz verdict: recovery and catch-up are complete
	// and the node is within its staleness bounds.
	Ready bool
	// Reason explains a false Ready (shown in /readyz and 503 bodies).
	Reason string
	// RetryAfter hints when the client should try again; 0 uses the
	// package default.
	RetryAfter time.Duration
	// GateReads additionally refuses the data endpoints (503) while not
	// ready — a replica past its staleness bound serves no unbounded-
	// stale results. Operational endpoints are never gated.
	GateReads bool
	// Detail is merged into the /readyz JSON body (lag, applied
	// sequence, ...).
	Detail map[string]interface{}
}

// HealthFunc reports the backend's current readiness. It is called on
// every /readyz probe and every gated data request, so it must be
// cheap and safe for concurrent use.
type HealthFunc func() HealthStatus

// Server wires HTTP handlers around a Backend.
// All Server fields are set during New (via Options) and immutable
// afterwards; handler goroutines only read them, so no field needs a
// lock. Mutable state lives behind the Backend and metrics types.
type Server struct {
	backend Backend
	mux     *http.ServeMux

	reg      *metrics.Registry
	pprof    bool
	inFlight *metrics.Gauge
	trace    *trace.Recorder
	health   HealthFunc
	repl     http.Handler
}

// Option customises a Server.
type Option func(*Server)

// WithRegistry instruments every endpoint (request counters by status
// class, latency histograms, an in-flight gauge), registers the
// backend's snapshot-derived gauges, and serves the whole registry at
// GET /metrics in Prometheus text exposition format.
func WithRegistry(reg *metrics.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithPprof mounts net/http/pprof's handlers under /debug/pprof/ on the
// server's own mux (the server never uses http.DefaultServeMux). Opt-in
// because profiles expose internals and cost CPU while sampling.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithTrace mounts the decision-tracing endpoints (/explain,
// /trace/recent, /trace/refinements) over rec. The recorder's own
// counters are the caller's to register (provserve registers them
// alongside the engine's).
func WithTrace(rec *trace.Recorder) Option {
	return func(s *Server) { s.trace = rec }
}

// WithHealth wires a readiness source into /readyz and, when a status
// asks for it, gates the data endpoints. Servers without it report
// always-ready (the pre-replication behaviour: by the time a serving
// mux exists, recovery has finished).
func WithHealth(fn HealthFunc) Option {
	return func(s *Server) { s.health = fn }
}

// WithReplication mounts a WAL-shipping handler (repl.NewSource) under
// /repl/. The handler is mounted raw — its responses are streamed
// binary with its own shed/retry semantics, so it bypasses the JSON
// middleware the data endpoints share.
func WithReplication(h http.Handler) Option {
	return func(s *Server) { s.repl = h }
}

// New builds a Server.
func New(backend Backend, opts ...Option) *Server {
	s := &Server{backend: backend, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg != nil {
		s.inFlight = s.reg.Gauge("provex_http_in_flight_requests",
			"Requests currently being handled.")
		metrics.RegisterProcess(s.reg)
		registerBackendMetrics(s.reg, backend)
	}
	s.handle("/", s.handleIndex)
	s.handleData("/search", s.handleSearch)
	s.handleData("/prov", s.handleProv)
	s.handleData("/bundle", s.handleBundle)
	s.handle("/stats", s.handleStats)
	s.handleData("/trending", s.handleTrending)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/readyz", s.handleReadyz)
	if s.reg != nil {
		s.handle("/metrics", s.handleMetrics)
	}
	if s.repl != nil {
		s.mux.Handle("/repl/", s.repl)
	}
	if s.trace != nil {
		s.handle("/explain", s.handleExplain)
		s.handle("/trace/recent", s.handleTraceRecent)
		s.handle("/trace/refinements", s.handleTraceRefinements)
	}
	if s.pprof {
		// pprof handlers stay uninstrumented: profile downloads run for
		// tens of seconds by design and would dominate every latency
		// histogram they land in.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// latencyBounds bucket endpoint latency from 100µs to 10s.
var latencyBounds = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// statusClasses are the response-class labels of the request counter.
// All four are registered eagerly so scrapes see a stable series set.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is the per-path instrument set of the middleware.
type endpointMetrics struct {
	classes  [4]*metrics.Counter
	duration *metrics.Histogram
}

func newEndpointMetrics(reg *metrics.Registry, path string) *endpointMetrics {
	em := &endpointMetrics{}
	for i, class := range statusClasses {
		em.classes[i] = reg.Counter("provex_http_requests_total",
			"HTTP requests by endpoint and status class.",
			"path", path, "code", class)
	}
	em.duration = reg.DurationHistogram("provex_http_request_duration_seconds",
		"HTTP request latency by endpoint.", latencyBounds, "path", path)
	return em
}

// observe records one finished request.
func (em *endpointMetrics) observe(code int, d time.Duration) {
	em.duration.Observe(int64(d))
	if i := code/100 - 2; i >= 0 && i < len(em.classes) {
		em.classes[i].Inc()
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handle mounts h at path behind the shared middleware: every endpoint
// uniformly rejects non-GET methods with 405 plus an Allow header, and
// when a registry is configured the request is counted, timed and
// tracked in-flight (405s included — probing with the wrong method is
// traffic too).
func (s *Server) handle(path string, h http.HandlerFunc) {
	checked := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
			return
		}
		h(w, r)
	}
	if s.reg == nil {
		s.mux.HandleFunc(path, checked)
		return
	}
	em := newEndpointMetrics(s.reg, path)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		checked(sw, r)
		em.observe(sw.code, time.Since(start))
	})
}

// handleData mounts h like handle, but refuses the request with a 503
// when the health source reports not-ready with GateReads — the
// graceful-degradation path for replicas past their staleness bound.
func (s *Server) handleData(path string, h http.HandlerFunc) {
	s.handle(path, func(w http.ResponseWriter, r *http.Request) {
		if s.health != nil {
			if st := s.health(); !st.Ready && st.GateReads {
				Unavailable(w, st.RetryAfter, "not ready: %s", st.Reason)
				return
			}
		}
		h(w, r)
	})
}

// handleHealthz is liveness: if the process can run this handler it is
// alive. Readiness is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{"alive": true})
}

// handleReadyz reports serving fitness: 200 once recovery/catch-up is
// complete and within bounds, 503 + Retry-After otherwise. Probes and
// load balancers key on the status code; the body carries the reason
// and any health detail (replica lag etc.) for humans.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.health == nil {
		writeJSON(w, map[string]interface{}{"ready": true})
		return
	}
	st := s.health()
	body := map[string]interface{}{"ready": st.Ready}
	if st.Reason != "" {
		body["reason"] = st.Reason
	}
	for k, v := range st.Detail {
		body[k] = v
	}
	if !st.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", retryAfterValue(st.RetryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
		return
	}
	writeJSON(w, body)
}

// defaultRetryAfter is the Retry-After attached to 503s whose source
// gave no hint.
const defaultRetryAfter = time.Second

// Unavailable is the package's single 503 emitter: every 503 carries a
// Retry-After header (whole seconds, minimum 1) so well-behaved
// clients back off instead of hammering a degraded node.
func Unavailable(w http.ResponseWriter, retryAfter time.Duration, format string, args ...interface{}) {
	w.Header().Set("Retry-After", retryAfterValue(retryAfter))
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

// retryAfterValue renders a Retry-After duration as whole seconds,
// minimum 1 (a zero duration takes the package default).
func retryAfterValue(d time.Duration) string {
	if d <= 0 {
		d = defaultRetryAfter
	}
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleMetrics renders the registry in text exposition format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Expose(w); err != nil {
		// Headers already sent; the scrape is torn and the client's
		// parser will reject it.
		_ = err
	}
}

// registerBackendMetrics publishes the lock-guarded half of the engine
// snapshot — the values the hot path cannot expose atomically. One
// collector snapshots the backend per scrape (Backend.Snapshot applies
// whatever locking the backend requires); the registered funcs then
// read the captured copy, all under the registry's render lock.
func registerBackendMetrics(reg *metrics.Registry, backend Backend) {
	var st core.Stats
	reg.AddCollector(func() { st = backend.Snapshot() })
	reg.RegisterGaugeFunc("provex_pool_bundles_live",
		"Bundles currently in the in-memory pool.",
		func() float64 { return float64(st.BundlesLive) })
	reg.RegisterGaugeFunc("provex_pool_messages_in_memory",
		"Messages held by pooled bundles (Figure 11(b)'s memory metric).",
		func() float64 { return float64(st.MessagesInMemory) })
	reg.RegisterCounterFunc("provex_pool_bundles_created_total",
		"Bundles ever created.",
		func() float64 { return float64(st.Pool.Created) })
	reg.RegisterCounterFunc("provex_pool_refines_total",
		"Refinement passes run (Algorithm 3).",
		func() float64 { return float64(st.Pool.Refines) })
	for _, ev := range []struct {
		reason string
		count  func() float64
	}{
		{"aging-tiny", func() float64 { return float64(st.Pool.DeletedTiny) }},
		{"closed", func() float64 { return float64(st.Pool.FlushedClosed) }},
		{"ranked", func() float64 { return float64(st.Pool.FlushedRanked) }},
	} {
		reg.RegisterCounterFunc("provex_pool_evictions_total",
			"Pool evictions by Algorithm 3 reason (aging-tiny deleted; closed and ranked flushed to disk).",
			ev.count, "reason", ev.reason)
	}
	reg.RegisterGaugeFunc("provex_mem_bundles_bytes",
		"Analytic memory estimate of the bundle pool (Figure 11(a)).",
		func() float64 { return float64(st.MemBundles) })
	reg.RegisterGaugeFunc("provex_mem_index_bytes",
		"Analytic memory estimate of the summary index (Figure 11(a)).",
		func() float64 { return float64(st.MemIndex) })
	reg.RegisterGaugeFunc("provex_flush_parked",
		"Bundles parked awaiting a storage flush retry (non-zero = degraded mode).",
		func() float64 { return float64(st.FlushParked) })
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><title>provex</title>
<h1>provex — provenance-based micro-blog indexing</h1>
<ul>
<li><code>/search?q=yankee+redsox</code> — message search (Fig. 1)</li>
<li><code>/prov?q=yankee+redsox</code> — provenance bundle search (Fig. 2)</li>
<li><code>/bundle?id=N</code> — bundle provenance trail</li>
<li><code>/trending?k=10</code> — hot bundles right now</li>
<li><code>/stats</code> — engine statistics</li>
<li><code>/healthz</code> / <code>/readyz</code> — liveness and readiness probes</li>
<li><code>/metrics</code> — Prometheus text exposition</li>
<li><code>/explain?id=N</code> — full ingest decision trace of a sampled message</li>
<li><code>/trace/recent?n=20</code> — newest sampled ingest decisions</li>
<li><code>/trace/refinements?n=20</code> — Algorithm 3 eviction audit log</li>
</ul>`)
}

// messageJSON is the wire form of one message hit.
type messageJSON struct {
	ID    uint64  `json:"id"`
	User  string  `json:"user"`
	Date  string  `json:"date"`
	Text  string  `json:"text"`
	Score float64 `json:"score"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, k, ok := s.queryParams(w, r)
	if !ok {
		return
	}
	hits := s.backend.SearchMessages(q, k)
	out := make([]messageJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, messageJSON{
			ID:    uint64(h.Msg.ID),
			User:  h.Msg.User,
			Date:  h.Msg.Date.Format(time.RFC3339),
			Text:  h.Msg.Text,
			Score: h.Score,
		})
	}
	writeJSON(w, map[string]interface{}{"query": q, "hits": out})
}

// bundleHitJSON is the wire form of one Figure 2(a) result row.
type bundleHitJSON struct {
	ID       uint64   `json:"id"`
	Score    float64  `json:"score"`
	Size     int      `json:"size"`
	LastPost string   `json:"last_post"`
	Summary  []string `json:"summary"`
}

func (s *Server) handleProv(w http.ResponseWriter, r *http.Request) {
	q, k, ok := s.queryParams(w, r)
	if !ok {
		return
	}
	hits := s.backend.SearchBundles(q, k)
	out := make([]bundleHitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, bundleHitJSON{
			ID:       uint64(h.ID),
			Score:    h.Score,
			Size:     h.Size,
			LastPost: h.LastPost.Format(time.RFC3339),
			Summary:  h.Summary,
		})
	}
	writeJSON(w, map[string]interface{}{"query": q, "bundles": out})
}

// nodeJSON is one provenance trail node.
type nodeJSON struct {
	Index  int     `json:"index"`
	Parent int     `json:"parent"` // -1 for roots
	User   string  `json:"user"`
	Date   string  `json:"date"`
	Text   string  `json:"text"`
	Conn   string  `json:"conn,omitempty"`
	Score  float64 `json:"score,omitempty"`
}

func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	idRaw := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idRaw, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid id %q", idRaw)
		return
	}
	d, err := s.backend.Bundle(bundle.ID(id))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, storage.ErrNotFound) {
			status = http.StatusNotFound
		}
		httpError(w, status, "%v", err)
		return
	}
	nodes := make([]nodeJSON, 0, len(d.Nodes))
	for i, n := range d.Nodes {
		nj := nodeJSON{
			Index:  i,
			Parent: int(n.Parent),
			User:   n.Msg.User,
			Date:   n.Msg.Date.Format(time.RFC3339),
			Text:   n.Msg.Text,
		}
		if n.Parent != bundle.NoParent {
			nj.Conn = n.Conn.String()
			nj.Score = n.Score
		}
		nodes = append(nodes, nj)
	}
	writeJSON(w, map[string]interface{}{
		"id":      d.ID,
		"size":    len(d.Nodes),
		"closed":  d.Closed,
		"start":   d.Start.Format(time.RFC3339),
		"end":     d.End.Format(time.RFC3339),
		"summary": d.Summary,
		"nodes":   nodes,
	})
}

// trendingJSON is the wire form of one hot-bundle row.
type trendingJSON struct {
	ID       uint64   `json:"id"`
	Score    float64  `json:"score"`
	Recent   int      `json:"recent"`
	Size     int      `json:"size"`
	LastPost string   `json:"last_post"`
	Summary  []string `json:"summary"`
}

func (s *Server) handleTrending(w http.ResponseWriter, r *http.Request) {
	k := 10
	if kRaw := r.URL.Query().Get("k"); kRaw != "" {
		v, err := strconv.Atoi(kRaw)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "invalid k %q", kRaw)
			return
		}
		k = v
	}
	if k > 100 {
		k = 100
	}
	topics := s.backend.Trending(k)
	out := make([]trendingJSON, 0, len(topics))
	for _, t := range topics {
		out = append(out, trendingJSON{
			ID:       uint64(t.ID),
			Score:    t.Score,
			Recent:   t.Recent,
			Size:     t.Size,
			LastPost: t.LastPost.Format(time.RFC3339),
			Summary:  t.Summary,
		})
	}
	writeJSON(w, map[string]interface{}{"trending": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Snapshot()
	writeJSON(w, map[string]interface{}{
		"messages":           st.Messages,
		"bundles_created":    st.BundlesCreated,
		"bundles_live":       st.BundlesLive,
		"edges":              st.EdgesCreated,
		"conn_counts":        st.ConnCounts,
		"mem_bundles_bytes":  st.MemBundles,
		"mem_index_bytes":    st.MemIndex,
		"messages_in_memory": st.MessagesInMemory,
		"match_ms":           st.MatchTime.Milliseconds(),
		"place_ms":           st.PlaceTime.Milliseconds(),
		"refine_ms":          st.RefineTime.Milliseconds(),
		"flush_retries":      st.FlushRetries,
		"flush_dropped":      st.FlushDropped,
		"flush_parked":       st.FlushParked,
		"degraded":           st.Degraded(),
	})
}

// handleExplain serves the full decision breakdown for one traced
// message. Unsampled (or rotated-out) IDs get a 404 whose hint
// explains how to widen sampling, since "not traced" is the expected
// case at any sampling rate above 1.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	idRaw := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idRaw, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid id %q", idRaw)
		return
	}
	d, ok := s.trace.Explain(id)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"error": fmt.Sprintf("message %d has no recorded decision", id),
			"hint": fmt.Sprintf("tracing samples 1 in %d inserts and retains the last %d decisions; "+
				"lower -trace-sample / raise -trace-buffer and re-ingest, or pick an id from /trace/recent",
				max(s.trace.SampleEvery(), 1), s.trace.Buffer()),
		})
		return
	}
	writeJSON(w, d)
}

// traceRecentJSON is the compact wire form of one decision in
// /trace/recent — enough to scan for interesting messages (and for
// provload's quality digest) without the full candidate lists.
type traceRecentJSON struct {
	Seq        uint64  `json:"seq"`
	MsgID      uint64  `json:"msg_id"`
	Bundle     uint64  `json:"bundle"`
	NewBundle  bool    `json:"new_bundle"`
	Candidates int     `json:"candidates"`
	BestScore  float64 `json:"best_score"`
	Margin     float64 `json:"margin"`
	Parent     int     `json:"parent"`
	Conn       string  `json:"conn"`
}

func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	n, ok := countParam(w, r, 20)
	if !ok {
		return
	}
	ds := s.trace.Recent(n)
	out := make([]traceRecentJSON, 0, len(ds))
	for _, d := range ds {
		out = append(out, traceRecentJSON{
			Seq:        d.Seq,
			MsgID:      d.MsgID,
			Bundle:     d.Bundle,
			NewBundle:  d.NewBundle,
			Candidates: len(d.Candidates),
			BestScore:  d.BestScore,
			Margin:     d.Margin,
			Parent:     d.Parent,
			Conn:       d.Conn,
		})
	}
	writeJSON(w, map[string]interface{}{
		"sample_every": s.trace.SampleEvery(),
		"buffer":       s.trace.Buffer(),
		"decisions":    out,
	})
}

func (s *Server) handleTraceRefinements(w http.ResponseWriter, r *http.Request) {
	n, ok := countParam(w, r, 20)
	if !ok {
		return
	}
	writeJSON(w, map[string]interface{}{
		"refinements": s.trace.Refinements(n),
	})
}

// countParam extracts n (bounded by the recorder's ring size, so the
// default cap grows with -trace-buffer) or writes a 400.
func countParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	n := def
	if nRaw := r.URL.Query().Get("n"); nRaw != "" {
		v, err := strconv.Atoi(nRaw)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "invalid n %q", nRaw)
			return 0, false
		}
		n = v
	}
	return n, true
}

// queryParams extracts q and k (default 10, max 100) or writes a 400.
func (s *Server) queryParams(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	q := r.URL.Query().Get("q")
	if q == "" {
		httpError(w, http.StatusBadRequest, "missing q parameter")
		return "", 0, false
	}
	k := 10
	if kRaw := r.URL.Query().Get("k"); kRaw != "" {
		v, err := strconv.Atoi(kRaw)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "invalid k %q", kRaw)
			return "", 0, false
		}
		k = v
	}
	if k > 100 {
		k = 100
	}
	return q, k, true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers already sent; nothing recoverable.
		_ = err
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
