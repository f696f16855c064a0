package repl

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/server"
	"provex/internal/wal"
)

// Shipping limits. Beyond maxStreams concurrent requests (checkpoint
// downloads + WAL batches) the leader sheds: 503 with a Retry-After of
// retryAfter, never a queue that could back-pressure into the ingest
// path. maxBatchBytes caps one WAL response body whatever the follower
// asks for.
const (
	maxStreams    = 4
	maxBatchBytes = 1 << 20
	retryAfter    = time.Second
)

// Source is the leader side of WAL-shipping replication: an HTTP
// surface over a pipeline.Durable that serves follower bootstrap and
// WAL tailing. It reads only the durable artifacts (checkpoint file,
// WAL segments, atomic watermark) through independent file handles and
// takes no engine or pipeline locks, so a slow or hostile follower can
// degrade other followers (shed with 503) but can never block ingest.
//
//	GET /repl/checkpoint                — newest checkpoint file (404 = none yet)
//	GET /repl/wal?after=N[&seg=S&off=O] — framed record batch, sequences (N, synced]
//
// The WAL endpoint answers 410 Gone when the records after N were
// truncated by a checkpoint — the follower must re-bootstrap — and
// 503 + Retry-After when shedding.
type Source struct {
	d   *pipeline.Durable
	sem chan struct{}
	mux *http.ServeMux

	shipBytes   metrics.Counter
	shipBatches metrics.Counter
	shipRecords metrics.Counter
	shed        metrics.Counter
	resyncs     metrics.Counter
}

// NewSource builds the shipper over d.
func NewSource(d *pipeline.Durable) *Source {
	s := &Source{d: d, sem: make(chan struct{}, maxStreams), mux: http.NewServeMux()}
	s.mux.HandleFunc("/repl/checkpoint", s.guard(s.handleCheckpoint))
	s.mux.HandleFunc("/repl/wal", s.guard(s.handleWAL))
	return s
}

// RegisterMetrics exposes the shipper's instruments under canonical
// provex_repl_ship_* names (documented in OBSERVABILITY.md).
func (s *Source) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("provex_repl_ship_bytes_total",
		"WAL stream bytes shipped to followers.", &s.shipBytes)
	reg.RegisterCounter("provex_repl_ship_batches_total",
		"WAL batches shipped to followers whole (every byte of the response written).", &s.shipBatches)
	reg.RegisterCounter("provex_repl_ship_records_total",
		"WAL records shipped to followers in whole batches.", &s.shipRecords)
	reg.RegisterCounter("provex_repl_ship_shed_total",
		"Shipping requests shed with 503 because all four shipping slots were in use.", &s.shed)
	reg.RegisterCounter("provex_repl_ship_resyncs_total",
		"WAL requests answered 410 Gone (follower behind the truncation horizon, must re-bootstrap).", &s.resyncs)
}

// ServeHTTP implements http.Handler for mounting under /repl/
// (server.WithReplication, behind the server's method check and
// request metrics).
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// guard holds one of maxStreams slots around h. Shedding is
// load-shedding by design: a full semaphore answers immediately with
// 503 + Retry-After instead of queueing, because queued shipping work
// holds HTTP goroutines and memory the ingest path may need.
func (s *Source) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			server.Unavailable(w, retryAfter, "shipping at capacity (%d streams)", maxStreams)
			return
		}
		h(w, r)
	}
}

func (s *Source) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	f, err := s.d.OpenCheckpoint()
	if errors.Is(err, fs.ErrNotExist) {
		server.Error(w, http.StatusNotFound, "no checkpoint taken yet")
		return
	}
	if err != nil {
		server.Error(w, http.StatusInternalServerError, "open checkpoint: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	// A copy error comes after the headers are gone; the follower's
	// checkpoint loader rejects the torn download by CRC.
	n, _ := io.Copy(w, f)
	s.shipBytes.Add(n)
}

func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil {
		server.Error(w, http.StatusBadRequest, "invalid after %q", q.Get("after"))
		return
	}
	var hint wal.Cursor
	if seg, err := strconv.Atoi(q.Get("seg")); err == nil {
		hint.Seg = seg
	}
	if off, err := strconv.ParseInt(q.Get("off"), 10, 64); err == nil {
		hint.Off = off
	}
	maxBytes := maxBatchBytes
	if mb, err := strconv.Atoi(q.Get("max")); err == nil && mb > 0 && mb < maxBytes {
		maxBytes = mb
	}
	batch, err := s.d.ReadWAL(after, hint, maxBytes)
	if errors.Is(err, wal.ErrGap) {
		s.resyncs.Inc()
		server.Error(w, http.StatusGone, "records after %d truncated by a checkpoint, re-bootstrap: %v", after, err)
		return
	}
	if err != nil {
		server.Error(w, http.StatusInternalServerError, "read wal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	n, err := w.Write(appendBatch(nil, batch))
	s.shipBytes.Add(int64(n))
	if err != nil {
		// A write error means the follower went away; it will retry (the
		// torn body falls short of the header's record count), and that
		// retry is what counts the batch.
		return
	}
	s.shipBatches.Inc()
	s.shipRecords.Add(int64(len(batch.Records)))
}
