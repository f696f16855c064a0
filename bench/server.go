package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"time"

	"provex/internal/promtext"
)

// server is one child server process and the pipe feeding it.
type server struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	execAt time.Time
}

// freePort asks the kernel for an unused loopback port. The listener
// is closed before the server binds it; nothing else on the benchmark
// host opens ports, and a lost race surfaces as a start-up failure.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the workload's binary on state under dir. Its
// stdin stays open until kill: EOF would stop ingest and trigger a
// final checkpoint, which no phase wants.
func startServer(env *environment, w workload, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", w.binary(), err)
	}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	s.cmd = exec.Command(env.binPath(w.binary()), w.args(dir, port)...)
	s.cmd.Stderr = &s.stderr
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("start %s: %w", w.binary(), err)
	}
	s.execAt = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", w.binary(), err)
	}
	return s, nil
}

// kill SIGKILLs the process and waits until it is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // the exit status of a killed process says nothing
	_ = s.stdin.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// fail decorates err with whatever the server wrote to stderr.
func (s *server) fail(err error) error {
	if msg := strings.TrimSpace(s.stderr.String()); msg != "" {
		return fmt.Errorf("%w; server stderr: %s", err, msg)
	}
	return err
}

// statsJSON is the part of GET /stats the benchmark reads.
type statsJSON struct {
	Messages       int64 `json:"messages"`
	BundlesCreated int64 `json:"bundles_created"`
	BundlesLive    int64 `json:"bundles_live"`
	Edges          int64 `json:"edges"`
	MemBundles     int64 `json:"mem_bundles_bytes"`
	MemIndex       int64 `json:"mem_index_bytes"`
}

// httpGet fetches base+path and returns status and body.
func httpGet(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func getStats(c *http.Client, base string) (statsJSON, error) {
	var st statsJSON
	code, body, err := httpGet(c, base+"/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// waitUntil polls probe every interval until it reports done or the
// deadline passes; probe errors (connection refused while the server
// boots) are retried.
func waitUntil(what string, interval, timeout time.Duration, probe func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		done, err := probe()
		if done {
			return nil
		}
		if err != nil {
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s waiting for %s (last error: %v)", timeout, what, last)
		}
		time.Sleep(interval)
	}
}

// waitMessages polls /stats until the server has applied exactly n
// messages — the phase-boundary correctness check and the phase
// stopwatch in one.
func waitMessages(c *http.Client, base string, n int, timeout time.Duration) (statsJSON, error) {
	var st statsJSON
	err := waitUntil(fmt.Sprintf("messages == %d", n), 10*time.Millisecond, timeout, func() (bool, error) {
		var err error
		st, err = getStats(c, base)
		return err == nil && st.Messages >= int64(n), err
	})
	if err == nil && st.Messages != int64(n) {
		err = fmt.Errorf("server reports %d messages, only %d were sent", st.Messages, n)
	}
	return st, err
}

// samples is one parsed /metrics scrape.
type samples map[string]float64

func scrape(c *http.Client, base string) (samples, error) {
	code, body, err := httpGet(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return promtext.Parse(bytes.NewReader(body))
}

// sum adds up every series of family name whose label block contains
// all of want (`path="/prov"`), so per-shard series roll up.
func (m samples) sum(name string, want ...string) float64 {
	var total float64
	m.each(name, want, func(v float64) { total += v })
	return total
}

// max is the largest series of the family.
func (m samples) max(name string, want ...string) float64 {
	var best float64
	m.each(name, want, func(v float64) { best = max(best, v) })
	return best
}

func (m samples) each(name string, want []string, fn func(float64)) {
series:
	for key, v := range m {
		labels, ok := strings.CutPrefix(key, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		for _, w := range want {
			if !strings.Contains(labels, w) {
				continue series
			}
		}
		fn(v)
	}
}
