package metrics

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry wires one instrument of every kind with fixed
// observations, so the exposition output is fully deterministic.
func buildTestRegistry() *Registry {
	r := NewRegistry()

	c := r.Counter("test_requests_total", "Requests served.", "path", "/search", "code", "2xx")
	c.Add(42)
	r.Counter("test_requests_total", "Requests served.", "path", "/search", "code", "5xx").Inc()

	g := r.Gauge("test_in_flight", "In-flight requests.")
	g.Add(3)

	r.RegisterGaugeFunc("test_pool_bundles_live", "Live bundles.", func() float64 { return 10000 })
	r.RegisterCounterFunc("test_evictions_total", "Evictions.", func() float64 { return 7 }, "reason", "ranked")

	var t StageTimer
	t.Observe(1500 * time.Millisecond)
	t.Observe(500 * time.Millisecond)
	r.RegisterTimer("test_stage_seconds", "Stage time.", &t, "stage", "match")

	h := r.DurationHistogram("test_latency_seconds", "Request latency.",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	h.Observe(int64(500 * time.Microsecond))
	h.Observe(int64(5 * time.Millisecond))
	h.Observe(int64(5 * time.Millisecond))
	h.Observe(int64(2 * time.Second)) // overflow
	return r
}

const goldenExposition = `# HELP test_evictions_total Evictions.
# TYPE test_evictions_total counter
test_evictions_total{reason="ranked"} 7
# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight 3
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 3
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 2.0105
test_latency_seconds_count 4
# HELP test_pool_bundles_live Live bundles.
# TYPE test_pool_bundles_live gauge
test_pool_bundles_live 10000
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{code="2xx",path="/search"} 42
test_requests_total{code="5xx",path="/search"} 1
# HELP test_stage_seconds Stage time.
# TYPE test_stage_seconds summary
test_stage_seconds_sum{stage="match"} 2
test_stage_seconds_count{stage="match"} 2
`

// TestExpositionGolden locks the exact output format: families in name
// order, series in label order, histogram buckets cumulative with a
// closing +Inf, summaries as _sum/_count in seconds.
func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().Expose(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenExposition {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), goldenExposition)
	}
}

// TestExpositionStable renders twice and requires identical bytes —
// ordering must not depend on map iteration.
func TestExpositionStable(t *testing.T) {
	r := buildTestRegistry()
	var a, b strings.Builder
	if err := r.Expose(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of the same registry differ")
	}
}

// TestExpositionParses walks every line and checks it is either a
// well-formed comment or a "name{labels} value" sample with a parseable
// float value, and that histogram buckets are monotonically
// non-decreasing in le order with count equal to the +Inf bucket.
func TestExpositionParses(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().Expose(&b); err != nil {
		t.Fatal(err)
	}
	var lastBucket int64 = -1
	var infBucket, histCount int64
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("malformed comment line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		name, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		if !validMetricName(name) {
			t.Fatalf("invalid sample name in %q", line)
		}
		if strings.HasPrefix(line, "test_latency_seconds_bucket") {
			n, _ := strconv.ParseInt(value, 10, 64)
			if n < lastBucket {
				t.Fatalf("bucket counts not monotonic at %q", line)
			}
			lastBucket = n
			if strings.Contains(line, `le="+Inf"`) {
				infBucket = n
			}
		}
		if strings.HasPrefix(line, "test_latency_seconds_count") {
			histCount, _ = strconv.ParseInt(value, 10, 64)
		}
	}
	if infBucket != histCount {
		t.Errorf("+Inf bucket %d != histogram count %d", infBucket, histCount)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	cases := map[string]func(r *Registry){
		"bad name":      func(r *Registry) { r.Counter("9bad", "h") },
		"bad label":     func(r *Registry) { r.Counter("ok_total", "h", "9bad", "v") },
		"odd labels":    func(r *Registry) { r.Counter("ok_total", "h", "k") },
		"dup series":    func(r *Registry) { r.Counter("a_total", "h"); r.Counter("a_total", "h") },
		"kind conflict": func(r *Registry) { r.Counter("a_total", "h"); r.Gauge("a_total", "h") },
		"zero scale":    func(r *Registry) { r.RegisterHistogram("h", "h", NewHistogram(1), 0) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

// TestCollectorRunsPerRender proves collectors execute before series
// values are read, once per Expose.
func TestCollectorRunsPerRender(t *testing.T) {
	r := NewRegistry()
	runs := 0
	var snapshot float64
	r.AddCollector(func() { runs++; snapshot = float64(runs * 100) })
	r.RegisterGaugeFunc("collected_value", "From collector.", func() float64 { return snapshot })
	for want := 1; want <= 2; want++ {
		var b strings.Builder
		if err := r.Expose(&b); err != nil {
			t.Fatal(err)
		}
		if runs != want {
			t.Fatalf("collector ran %d times, want %d", runs, want)
		}
		if !strings.Contains(b.String(), "collected_value "+strconv.Itoa(want*100)) {
			t.Errorf("render %d did not see collector value: %s", want, b.String())
		}
	}
}

// TestHotPathZeroAlloc is the acceptance gate: registered counters and
// gauges must add zero allocations per operation — registration hands
// back the bare instrument, so the hot path never touches the registry.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "h")
	g := r.Gauge("hot_gauge", "h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Add(7)
		g.Add(-1)
	}); n != 0 {
		t.Errorf("hot path allocates %.1f per op, want 0", n)
	}
}

func BenchmarkRegisteredCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRegisteredGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkExpose(b *testing.B) {
	r := buildTestRegistry()
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := r.Expose(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
