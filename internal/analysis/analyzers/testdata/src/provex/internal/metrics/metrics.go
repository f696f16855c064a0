// Package metrics is a hermetic stub of provex/internal/metrics for
// the analyzer fixtures: same instrument type names, write methods and
// Registry surface as the real package.
package metrics

type Counter struct{ v int64 }

func (c *Counter) Inc()         { c.v++ }
func (c *Counter) Add(d int64)  { c.v += d }
func (c *Counter) Value() int64 { return c.v }

type Gauge struct{ v int64 }

func (g *Gauge) Set(v int64)  { g.v = v }
func (g *Gauge) Add(d int64)  { g.v += d }
func (g *Gauge) Value() int64 { return g.v }

type StageTimer struct{ total int64 }

func (t *StageTimer) Observe(d int64) { t.total += d }
func (t *StageTimer) Time(fn func())  { fn() }
func (t *StageTimer) Total() int64    { return t.total }

type Histogram struct{ n int64 }

func NewHistogram(bounds ...int64) *Histogram { return &Histogram{} }
func NewPow2Histogram(n int) *Histogram       { return &Histogram{} }

func (h *Histogram) Observe(v int64)          { h.n++ }
func (h *Histogram) Quantile(q float64) int64 { return 0 }
func (h *Histogram) String() string           { return "" }

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) RegisterCounter(name, help string, c *Counter)     {}
func (r *Registry) RegisterTimer(name, help string, t *StageTimer)    {}
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {}
func (r *Registry) Counter(name, help string) *Counter                { return &Counter{} }
func (r *Registry) Gauge(name, help string) *Gauge                    { return &Gauge{} }
