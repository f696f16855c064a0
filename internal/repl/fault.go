package repl

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"provex/internal/fsx"
)

// ErrInjectedTransport is the error injected transport faults fail with.
var ErrInjectedTransport = errors.New("repl: injected transport fault")

// TransportFault describes what happens when a FaultTransport trips —
// the HTTP mirror of fsx.Fault. Zero value = fail the request with
// ErrInjectedTransport.
type TransportFault struct {
	// Err fails the request outright with this error (default
	// ErrInjectedTransport) — a connection refused / reset stand-in.
	Err error
	// TornBytes > 0 cuts the response BODY after this many bytes, and
	// always short of its end, then fails the read with
	// io.ErrUnexpectedEOF — a connection cut mid-stream.
	TornBytes int
	// Stall delays the response this long before returning it — a slow
	// or wedged leader. Combine with Freeze to wedge every request.
	Stall time.Duration
	// StaleOffset rewrites the request's seg/off cursor hints to bogus
	// values before it reaches the leader, exercising the leader's
	// hint-fallback path end to end.
	StaleOffset bool
	// Status short-circuits the request with this HTTP status and an
	// empty body (e.g. 503 without Retry-After).
	Status int
	// Freeze latches the fault: every subsequent request trips too,
	// until Disarm or the next Arm. Without it the fault fires exactly
	// once.
	Freeze bool
}

// FaultTransport is an http.RoundTripper that injects one fault into
// the Nth request, on fsx.FaultFS's schedule (fsx.Trigger) for the
// replication transport: Nth-request errors, torn response bodies,
// stalls and stale offsets.
//
//	ft := NewFaultTransport(http.DefaultTransport)
//	client := &http.Client{Transport: ft}
//	ft.Arm(3, TransportFault{TornBytes: 64}) // 3rd request: body cut after 64 bytes
type FaultTransport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	trig  fsx.Trigger    // guarded by mu
	fault TransportFault // guarded by mu
	trips int            // guarded by mu
}

// NewFaultTransport wraps inner (nil = http.DefaultTransport).
func NewFaultTransport(inner http.RoundTripper) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner}
}

// Arm schedules f to fire on the nth request from now (1 = the next
// one). Re-arming replaces any pending fault and clears a Freeze latch.
func (t *FaultTransport) Arm(nth int64, f TransportFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trig.Arm(nth, f.Freeze)
	t.fault = f
}

// Disarm cancels any pending or latched fault.
func (t *FaultTransport) Disarm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trig = fsx.Trigger{}
}

// Trips reports how many requests have been faulted.
func (t *FaultTransport) Trips() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trips
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	trip, _ := t.trig.Fire()
	f := t.fault
	if trip {
		t.trips++
	}
	t.mu.Unlock()

	if !trip {
		return t.inner.RoundTrip(req)
	}
	if f.Stall > 0 {
		select {
		case <-time.After(f.Stall):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	switch {
	case f.StaleOffset:
		// Poison the cursor hints; the request itself goes through.
		q := req.URL.Query()
		q.Set("seg", "999999")
		q.Set("off", "123456789")
		req = req.Clone(req.Context())
		req.URL.RawQuery = q.Encode()
		return t.inner.RoundTrip(req)
	case f.Status != 0:
		return &http.Response{
			StatusCode:    f.Status,
			Status:        strconv.Itoa(f.Status) + " injected",
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          http.NoBody,
			ContentLength: 0,
			Request:       req,
		}, nil
	case f.TornBytes > 0:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = body[:min(f.TornBytes, max(len(body)-1, 0))]
		resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), cutConn{}))
		resp.ContentLength = -1
		return resp, nil
	case f.Err != nil:
		return nil, f.Err
	case f.Stall > 0:
		// A pure stall: the request is merely slow, not broken.
		return t.inner.RoundTrip(req)
	default:
		return nil, ErrInjectedTransport
	}
}

// cutConn fails every read like a connection cut mid-stream, never
// with a clean EOF.
type cutConn struct{}

func (cutConn) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
