package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"provex/internal/fsx"
	"provex/internal/storage"
)

// outDir is where binaries, per-run server state and trace dumps live:
// inside the benchmark's own directory, ignored by git.
var outDir = filepath.Join("bench", "out")

// phaseTimeout bounds every wait on the server. The slowest phase of
// the slowest workload takes about 15 s at the nominal run length.
const phaseTimeout = 100 * time.Second

// environment is the once-per-invocation set-up: the server binaries.
type environment struct {
	runs int // run directories handed out so far
}

// prepare builds provserve and the bounded shim from the checkout in
// the working directory.
func prepare() (*environment, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	bin := filepath.Join(outDir, "bin") + string(filepath.Separator)
	if err := (fsx.OS{}).MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/provserve", "./bench/boundedserve")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return &environment{}, nil
}

func (e *environment) binPath(name string) string {
	return filepath.Join(outDir, "bin", name)
}

// runDir makes a fresh state directory for one server lifetime pair.
func (e *environment) runDir(name string) (string, error) {
	e.runs++
	dir := filepath.Join(outDir, "run", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), e.runs))
	return dir, (fsx.OS{}).MkdirAll(dir, 0o755)
}

// removeAll deletes a run's state directory.
func removeAll(dir string) {
	//provlint:ignore fsxdiscipline scratch state of a killed benchmark server; nothing reads it again
	_ = os.RemoveAll(dir) // a leftover directory wastes disk but breaks nothing
}

// realRun is everything observed while one workload ran against real
// server processes.
type realRun struct {
	startupS, setupS          float64
	drainWallS, serveWallS    float64
	cpuDrainS, cpuServeS      float64
	restartS                  float64
	rssPreloadMB, peakRSSMB   float64
	latencyMs                 [numKinds][]float64
	backlogMax                int
	queueDepthMax             float64
	atSetup, atDrain, atServe samples // /metrics at the phase boundaries
	afterRestart              samples
	final                     statsJSON // /stats at the end of serve
	recovered                 int64     // messages after restart
	checkpointBytes           int64
	storeBundles              int
	storeLiveBytes, storeSize int64

	attempted, failed int
	problems          []string // correctness failures, empty when correct
}

func (r *realRun) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runReal drives one workload through setup, drain, serve and restart
// against child processes. sample turns on the queue-depth sampler,
// which scrapes /metrics during timed phases and so belongs to the
// traced run only.
func runReal(env *environment, w workload, pl plan, st *synthStream, queries []querySpec, sample bool) (*realRun, error) {
	dir, err := env.runDir(w.name)
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)

	// One connection each for the poller and the query client, so the
	// load generator never has more threads busy than the host has
	// cores beside the server.
	poll := &http.Client{Timeout: 10 * time.Second}
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	defer poll.CloseIdleConnections()
	defer client.CloseIdleConnections()
	r := &realRun{}

	srv, err := startServer(env, w, dir)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }() // srv is replaced at restart

	// Phase 1, setup: exec, readiness, preload.
	if err := waitReady(poll, srv.base, "/readyz", 2*time.Millisecond); err != nil {
		return nil, srv.fail(err)
	}
	r.startupS = time.Since(srv.execAt).Seconds()
	if _, err := srv.stdin.Write(st.lines(0, pl.setup)); err != nil {
		return nil, srv.fail(err)
	}
	if _, err := waitMessages(poll, srv.base, pl.setup, phaseTimeout); err != nil {
		return nil, srv.fail(err)
	}
	r.setupS = time.Since(srv.execAt).Seconds()
	if r.rssPreloadMB, err = memMB(srv.pid(), "VmRSS"); err != nil {
		return nil, err
	}
	if r.atSetup, err = scrape(poll, srv.base); err != nil {
		return nil, srv.fail(err)
	}

	var sampler *depthSampler
	if sample {
		sampler = startDepthSampler(srv.base)
		defer func() { sampler.stop() }()
	}

	// Phase 2, drain: as fast as the pipe accepts, no queries.
	cpu0, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := srv.stdin.Write(st.lines(pl.setup, pl.setup+pl.drain)); err != nil {
		return nil, srv.fail(err)
	}
	if _, err := waitMessages(poll, srv.base, pl.setup+pl.drain, phaseTimeout); err != nil {
		return nil, srv.fail(err)
	}
	r.drainWallS = time.Since(t0).Seconds()
	cpu1, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	r.cpuDrainS = cpu1 - cpu0
	if r.atDrain, err = scrape(poll, srv.base); err != nil {
		return nil, srv.fail(err)
	}

	// Untimed warm-up: opens the query connection and harvests bundle
	// ids that exist in this deployment shape.
	ids, err := harvestBundleIDs(queries, pl.warmup, func(q querySpec) ([]bundleRef, error) {
		return getProv(client, srv.base, q)
	})
	if err != nil {
		return nil, srv.fail(err)
	}

	// Phase 3, serve: paced feed and one closed-loop client.
	cpu1, err = cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	var feedErr error
	var feeding sync.WaitGroup
	feeding.Add(1)
	go func() {
		defer feeding.Done()
		p := pacer{rate: pl.rate, tick: pl.tick, total: pl.serve}
		r.backlogMax, feedErr = p.feed(srv.stdin, st, pl.setup+pl.drain)
	}()
	for _, q := range queries {
		time.Sleep(pl.think)
		start := time.Now()
		code, _, err := httpGet(client, srv.base+q.path(ids))
		ms := millis(time.Since(start))
		r.attempted++
		if err != nil || code != http.StatusOK {
			r.failed++
			r.problem("query %s: status %d, error %v", q.path(ids), code, err)
			continue
		}
		r.latencyMs[q.kind] = append(r.latencyMs[q.kind], ms)
	}
	feeding.Wait()
	if feedErr != nil {
		return nil, srv.fail(feedErr)
	}
	if r.final, err = waitMessages(poll, srv.base, pl.total(), phaseTimeout); err != nil {
		return nil, srv.fail(err)
	}
	r.serveWallS = time.Since(t0).Seconds()
	cpu2, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	r.cpuServeS = cpu2 - cpu1
	if sampler != nil {
		r.queueDepthMax = sampler.stop()
	}
	if r.atServe, err = scrape(poll, srv.base); err != nil {
		return nil, srv.fail(err)
	}

	// Phase 4, restart: crash, recover from checkpoint + WAL tail.
	topBefore, err := topBundle(client, srv.base, queries)
	if err != nil {
		return nil, srv.fail(err)
	}
	if r.peakRSSMB, err = memMB(srv.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	srv.kill()
	restarted, err := startServer(env, w, dir)
	if err != nil {
		return nil, err
	}
	srv = restarted
	if err := waitReady(poll, srv.base, "/stats", 2*time.Millisecond); err != nil {
		return nil, srv.fail(err)
	}
	r.restartS = time.Since(srv.execAt).Seconds()
	after, err := getStats(poll, srv.base)
	if err != nil {
		return nil, srv.fail(err)
	}
	r.recovered = after.Messages
	r.attempted += pl.total()
	if missing := pl.total() - w.lossWindow - int(after.Messages); missing > 0 {
		r.failed += missing
		r.problem("restart recovered %d of %d messages, %d beyond the %d-message fsync window",
			after.Messages, pl.total(), missing, w.lossWindow)
	}
	if after.Messages > int64(pl.total()) {
		r.problem("restart recovered %d messages, only %d were sent", after.Messages, pl.total())
	}
	topAfter, err := topBundle(client, srv.base, queries)
	if err != nil {
		return nil, srv.fail(err)
	}
	if topAfter != topBefore {
		r.problem("fixed /prov query: top bundle %d before the kill, %d after the restart", topBefore, topAfter)
	}
	if r.afterRestart, err = scrape(poll, srv.base); err != nil {
		return nil, srv.fail(err)
	}
	srv.kill()

	return r, r.measureDisk(w, dir)
}

// waitReady polls path until it answers 200.
func waitReady(c *http.Client, base, path string, every time.Duration) error {
	return waitUntil(path, every, phaseTimeout, func() (bool, error) {
		code, _, err := httpGet(c, base+path)
		return err == nil && code == http.StatusOK, err
	})
}

// getProv asks one /prov query and returns the bundles of the answer,
// best first.
func getProv(c *http.Client, base string, q querySpec) ([]bundleRef, error) {
	code, body, err := httpGet(c, base+q.path(nil))
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", q.path(nil), code)
	}
	var answer struct {
		Bundles []bundleRef `json:"bundles"`
	}
	if err := json.Unmarshal(body, &answer); err != nil {
		return nil, fmt.Errorf("%s: %w", q.path(nil), err)
	}
	return answer.Bundles, nil
}

// harvestMinSize keeps /bundle ids to bundles the bounded pool's
// refinement never deletes outright (aging-tiny means fewer than three
// messages); flushed bundles stay reachable through the store.
const harvestMinSize = 3

// bundleRef is what a /prov answer says about one bundle.
type bundleRef struct {
	ID   uint64 `json:"id"`
	Size int    `json:"size"`
}

// firstProv returns the sequence's first n /prov queries.
func firstProv(queries []querySpec, n int) []querySpec {
	var out []querySpec
	for _, q := range queries {
		if len(out) == n {
			break
		}
		if q.kind == kindProv {
			out = append(out, q)
		}
	}
	return out
}

// harvestBundleIDs asks the sequence's first n /prov queries, untimed,
// and collects the ids of the bundles they return, so /bundle queries
// name bundles that exist in this deployment shape.
func harvestBundleIDs(queries []querySpec, n int, ask func(querySpec) ([]bundleRef, error)) ([]uint64, error) {
	var ids []uint64
	seen := map[uint64]bool{}
	for _, q := range firstProv(queries, n) {
		refs, err := ask(q)
		if err != nil {
			return nil, err
		}
		for _, b := range refs {
			if b.Size >= harvestMinSize && !seen[b.ID] {
				seen[b.ID] = true
				ids = append(ids, b.ID)
			}
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("warm-up /prov queries returned no bundle of %d or more messages", harvestMinSize)
	}
	return ids, nil
}

// topBundle answers the fixed query — the sequence's first /prov —
// with the id of its best bundle.
func topBundle(c *http.Client, base string, queries []querySpec) (uint64, error) {
	fixed := firstProv(queries, 1)
	if len(fixed) == 0 {
		return 0, fmt.Errorf("query sequence has no /prov query")
	}
	refs, err := getProv(c, base, fixed[0])
	if err != nil {
		return 0, err
	}
	if len(refs) == 0 {
		return 0, fmt.Errorf("%s returned no bundle", fixed[0].path(nil))
	}
	return refs[0].ID, nil
}

// depthSampler scrapes the ingest queue depth four times a second.
type depthSampler struct {
	quit    chan struct{}
	done    chan float64
	once    sync.Once
	deepest float64
}

func startDepthSampler(base string) *depthSampler {
	s := &depthSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		c := &http.Client{Timeout: 5 * time.Second}
		var deepest float64
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- deepest
				return
			case <-tick.C:
				if m, err := scrape(c, base); err == nil {
					deepest = max(deepest, m.sum("provex_pipeline_queue_depth"))
				}
			}
		}
	}()
	return s
}

// stop ends the sampler and returns the deepest queue it saw; later
// calls return the same figure.
func (s *depthSampler) stop() float64 {
	s.once.Do(func() {
		close(s.quit)
		s.deepest = <-s.done
	})
	return s.deepest
}

// measureDisk sizes what the run left on disk: checkpoints, and for the
// bounded workload the bundle store.
func (r *realRun) measureDisk(w workload, dir string) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".ckpt") {
			r.checkpointBytes += info.Size()
		}
		if strings.HasPrefix(path, filepath.Join(dir, "store")+string(filepath.Separator)) {
			r.storeSize += info.Size()
		}
		return nil
	})
	if err != nil || !w.bounded() {
		return err
	}
	store, err := storage.Open(filepath.Join(dir, "store"), storage.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	r.storeBundles = store.Count()
	r.storeLiveBytes = store.LiveBytes()
	return nil
}
