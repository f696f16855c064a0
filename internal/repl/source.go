package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/wal"
)

// SourceOptions tune the leader-side shipper.
type SourceOptions struct {
	// MaxStreams caps concurrent shipping requests (checkpoint
	// downloads + WAL batches). Beyond it the leader sheds: 503 with a
	// Retry-After, never a queue that could back-pressure into the
	// ingest path. Default 4.
	MaxStreams int
	// MaxBatchBytes caps one WAL response body regardless of what the
	// follower asks for. Default 1 MiB.
	MaxBatchBytes int
	// RetryAfter is the backoff hint attached to shed responses.
	// Default 1s.
	RetryAfter time.Duration
}

// Source is the leader side of WAL-shipping replication: an HTTP
// surface over a pipeline.Durable that serves follower bootstrap and
// WAL tailing. It reads only the durable artifacts (checkpoint file,
// WAL segments, atomic watermark) through independent file handles and
// takes no engine or pipeline locks, so a slow or hostile follower can
// degrade other followers (shed with 503) but can never block ingest.
//
//	GET /repl/status                    — {"synced": N} durable watermark probe
//	GET /repl/checkpoint                — newest checkpoint file (404 = none yet)
//	GET /repl/wal?after=N[&seg=S&off=O] — framed record batch, sequences (N, synced]
//
// The WAL endpoint answers 410 Gone when the records after N were
// truncated by a checkpoint — the follower must re-bootstrap — and
// 503 + Retry-After when shedding.
type Source struct {
	d    *pipeline.Durable
	opts SourceOptions
	sem  chan struct{}
	mux  *http.ServeMux

	shipBytes   metrics.Counter
	shipBatches metrics.Counter
	shipRecords metrics.Counter
	shed        metrics.Counter
	resyncs     metrics.Counter
}

// NewSource builds the shipper over d.
func NewSource(d *pipeline.Durable, opts SourceOptions) *Source {
	if opts.MaxStreams <= 0 {
		opts.MaxStreams = 4
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 1 << 20
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	s := &Source{d: d, opts: opts, sem: make(chan struct{}, opts.MaxStreams), mux: http.NewServeMux()}
	s.mux.HandleFunc("/repl/status", s.guard(s.handleStatus))
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
		"WAL batches shipped to followers whole (trailer written).", &s.shipBatches)
	reg.RegisterCounter("provex_repl_ship_records_total",
		"WAL records shipped to followers in whole batches.", &s.shipRecords)
	reg.RegisterCounter("provex_repl_ship_shed_total",
		"Shipping requests shed with 503 because MaxStreams were already in flight.", &s.shed)
	reg.RegisterCounter("provex_repl_ship_resyncs_total",
		"WAL requests answered 410 Gone (follower behind the truncation horizon, must re-bootstrap).", &s.resyncs)
}

// ServeHTTP implements http.Handler for mounting under /repl/.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// guard enforces GET and the shed semaphore around h. Shedding is
// load-shedding by design: a full semaphore answers immediately with
// 503 + Retry-After instead of queueing, because queued shipping work
// holds HTTP goroutines and memory the ingest path may need.
func (s *Source) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			replError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
			replError(w, http.StatusServiceUnavailable, "shipping at capacity (%d streams)", s.opts.MaxStreams)
			return
		}
		h(w, r)
	}
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]uint64{"synced": s.d.WALSyncedSeq()})
}

func (s *Source) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	f, err := s.d.OpenCheckpoint()
	if errors.Is(err, fs.ErrNotExist) {
		replError(w, http.StatusNotFound, "no checkpoint taken yet")
		return
	}
	if err != nil {
		replError(w, http.StatusInternalServerError, "open checkpoint: %v", err)
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
		replError(w, http.StatusBadRequest, "invalid after %q", q.Get("after"))
		return
	}
	var hint wal.Cursor
	if seg, err := strconv.Atoi(q.Get("seg")); err == nil {
		hint.Seg = seg
	}
	if off, err := strconv.ParseInt(q.Get("off"), 10, 64); err == nil {
		hint.Off = off
	}
	maxBytes := s.opts.MaxBatchBytes
	if mb, err := strconv.Atoi(q.Get("max")); err == nil && mb > 0 && mb < maxBytes {
		maxBytes = mb
	}
	batch, err := s.d.ReadWAL(after, hint, maxBytes)
	if errors.Is(err, wal.ErrGap) {
		s.resyncs.Inc()
		replError(w, http.StatusGone, "records after %d truncated by a checkpoint, re-bootstrap: %v", after, err)
		return
	}
	if err != nil {
		replError(w, http.StatusInternalServerError, "read wal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	sw := NewStreamWriter(cw)
	werr := error(nil)
	for _, rec := range batch.Records {
		if werr = sw.Record(rec); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = sw.End(StreamEnd{Synced: batch.Synced, Next: batch.Next})
	}
	s.shipBytes.Add(cw.n)
	if werr != nil {
		// A mid-stream write error means the follower went away; it will
		// retry (the frame CRCs make the torn body undecodable), and that
		// retry is what counts the batch.
		return
	}
	s.shipBatches.Inc()
	s.shipRecords.Add(int64(len(batch.Records)))
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// retryAfterSeconds renders a duration as the whole-second Retry-After
// header value, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(d / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func replError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
