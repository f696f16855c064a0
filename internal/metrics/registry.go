// Registry: named registration of the package's instruments and
// Prometheus text exposition rendering — the operational face of the
// metrics that were originally built for the paper's figures.
//
// Design constraints (see DESIGN.md §2e):
//
//   - Stdlib only. The text exposition format (version 0.0.4) is a
//     trivial line protocol; depending on a client library for it would
//     be the repository's first external dependency.
//   - Zero overhead on the hot path. Registration hands the caller (or
//     accepts from the caller) a plain *Counter/*Gauge/*StageTimer/
//     *Histogram; the registry is consulted only at registration and
//     render time, so Counter.Inc in the ingest loop stays a single
//     atomic add with no map lookup and no allocation.
//   - Deterministic output. Families render in lexicographic name
//     order, series within a family in label order, histogram buckets
//     ascending and cumulative — so scrapes diff cleanly and the golden
//     test can assert the exact byte stream.
//
// Instruments owned by state that is not atomically readable (the pool
// map, the flush retry queue) are exported through collectors: callbacks
// run once per render, under the registry lock, that snapshot that state
// through whatever lock its owner requires and publish it via
// closure-captured values read by Register*Func series.

package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindSummary   metricKind = "summary"
	kindHistogram metricKind = "histogram"
)

// series is one labelled instance inside a family. Exactly one of the
// instrument fields is set, matching the family kind.
type series struct {
	labels string // canonical rendered label set: `{a="b",c="d"}` or ""

	c     *Counter
	g     *Gauge
	fn    func() float64 // counter/gauge func variant
	t     *StageTimer
	h     *Histogram
	scale float64 // histogram value divisor at render (1e9: ns → s)
}

// family groups every series sharing one metric name, HELP and TYPE.
type family struct {
	name string
	help string
	kind metricKind

	keys   []string // registration order; sorted at render
	series map[string]*series
}

// Registry maps metric names to instruments and renders them in the
// Prometheus text exposition format. Registration methods panic on
// misuse (invalid names, duplicate series, kind conflicts) — these are
// programmer errors, caught by the first scrape in any test.
//
// A Registry is safe for concurrent use; rendering and registration
// serialize on an internal lock, while instrument updates never touch
// the registry at all.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family // guarded by mu
	collectors []func()           // guarded by mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// AddCollector registers fn to run at the start of every render, before
// any series value is read. Use it to snapshot state that cannot be
// read atomically (e.g. engine stats guarded by the pipeline lock) into
// values that registered *Func series then report.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// RegisterCounter exposes c as a counter series. labels are key/value
// pairs baked into the series at registration.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	r.register(name, help, kindCounter, &series{c: c}, labels)
}

// RegisterCounterFunc exposes fn as a counter series. fn runs at render
// time (after collectors) and must be safe to call then — either
// reading collector-published values or taking its own locks.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, &series{fn: fn}, labels)
}

// RegisterGaugeFunc exposes fn as a gauge series, with the same
// render-time contract as RegisterCounterFunc.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{fn: fn}, labels)
}

// RegisterTimer exposes t as a summary: <name>_sum is the accumulated
// stage time in seconds, <name>_count the number of observations. Name
// the family with a _seconds suffix by convention.
func (r *Registry) RegisterTimer(name, help string, t *StageTimer, labels ...string) {
	r.register(name, help, kindSummary, &series{t: t}, labels)
}

// RegisterHistogram exposes h as a cumulative-bucket histogram. scale
// divides the stored int64 observations into the exposed unit — 1e9
// turns nanosecond observations into seconds; use 1 for dimensionless
// histograms. scale must be positive.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, scale float64, labels ...string) {
	if scale <= 0 {
		panic("metrics: RegisterHistogram scale must be positive")
	}
	r.register(name, help, kindHistogram, &series{h: h, scale: scale}, labels)
}

// Counter creates and registers a counter in one step.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c, labels...)
	return c
}

// Gauge creates and registers a gauge in one step.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{g: g}, labels)
	return g
}

// DurationHistogram creates a histogram whose observations are
// time.Duration nanoseconds (pass int64(d) to Observe) and registers it
// with second-scaled buckets.
func (r *Registry) DurationHistogram(name, help string, bounds []time.Duration, labels ...string) *Histogram {
	ib := make([]int64, len(bounds))
	for i, b := range bounds {
		ib[i] = int64(b)
	}
	h := NewHistogram(ib...)
	r.RegisterHistogram(name, help, h, 1e9, labels...)
	return h
}

func (r *Registry) register(name, help string, kind metricKind, s *series, labels []string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	s.labels = canonicalLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, kind))
	}
	if _, dup := f.series[s.labels]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
	}
	f.series[s.labels] = s
	f.keys = append(f.keys, s.labels)
}

// validMetricName checks the Prometheus metric name charset.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// canonicalLabels renders key/value pairs as a deterministic label set.
func canonicalLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validMetricName(labels[i]) || strings.ContainsRune(labels[i], ':') {
			panic(fmt.Sprintf("metrics: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, escapeLabelValue(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition format's escapes; %q adds the
// surrounding quotes and backslash/quote escapes, so only newlines need
// pre-treatment.
func escapeLabelValue(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Expose renders every registered family in the Prometheus text
// exposition format (version 0.0.4): collectors run first, then
// families in name order, series in label order, histogram buckets
// cumulative and ascending with a closing +Inf bucket.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.collectors {
		fn()
	}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(f.help), name, f.kind)
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		for _, key := range keys {
			renderSeries(&b, f, f.series[key])
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func renderSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.c != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.c.Value())
	case s.g != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.g.Value())
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
	case s.t != nil:
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.t.Total().Seconds()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, s.t.Count())
	case s.h != nil:
		renderHistogram(b, f.name, s)
	}
}

// renderHistogram writes the cumulative _bucket/_sum/_count triplet.
// The instrument's inclusive int64 upper bounds match Prometheus's
// le (less-or-equal) semantics directly; the overflow bucket becomes
// le="+Inf".
func renderHistogram(b *strings.Builder, name string, s *series) {
	buckets, total, mean, _ := s.h.Snapshot()
	var cum int64
	for _, bk := range buckets {
		cum += bk.Count
		le := "+Inf"
		if bk.UpperBound >= 0 {
			le = formatFloat(float64(bk.UpperBound) / s.scale)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", le), cum)
	}
	sum := mean * float64(total) / s.scale
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, total)
}

// withLabel splices one more label pair into an already-rendered label
// set. The le label sorts into place lexicographically often enough not
// to matter: the exposition format does not require sorted label names,
// only consistent ones, and ours are consistent per series.
func withLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, escapeLabelValue(v))
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders v in the shortest exact form the exposition
// format accepts.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
