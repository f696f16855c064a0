package main

import (
	"encoding/json"
	"path/filepath"
	"time"

	"provex/internal/fsx"
)

// layer names one kind of span: a call from the replay loop into a
// module, or the enclosing phase.
type layer int

const (
	lyPhase layer = iota // one of the four phases; its self time is the unaccounted residual
	lyDecode
	lyPrepare
	lyWALAppend
	lyInsert
	lyShardIngest
	lyShardFlush
	lyCheckpoint
	lyOpenDurable
	lyNewProcessor
	lyReindex
	lySearchBundles
	lySearchMessages
	lyTrail
	lyTrending
	numLayers
)

var layerNames = [numLayers]string{
	"phase",
	"stream.decode", "core.prepare", "wal.append", "query.insert",
	"shard.ingest", "shard.flush", "pipeline.checkpoint",
	"pipeline.open_durable", "archive.open", "query.reindex",
	"query.search_bundles", "query.search_messages", "query.trail", "trending.detect",
}

// spanSampleEvery keeps full spans for every n-th message; sums are
// kept for every call.
const spanSampleEvery = 64

// span is one recorded interval. Spans of one message share Msg.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a phase
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Msg     int    `json:"msg,omitempty"` // 1-based stream ordinal
}

// layerSums is the per-phase account of one layer.
type layerSums struct {
	total time.Duration // Σ span durations
	child time.Duration // Σ durations of spans opened inside it
	calls int
}

func (s layerSums) self() time.Duration { return s.total - s.child }

// phaseTrace is one phase's wall clock and per-layer sums.
type phaseTrace struct {
	name   string
	wall   time.Duration
	layers [numLayers]layerSums
}

// unaccounted is the phase's wall clock no layer span covers: loop
// overhead, allocation, GC assists — the row that makes the table sum.
func (p *phaseTrace) unaccounted() time.Duration { return p.layers[lyPhase].self() }

type openSpan struct {
	ly    layer
	start time.Time
	idx   int // position in tracer.spans, -1 when the span is only summed
}

// tracer is the benchmark's own span recorder. It wraps calls into the
// layers from outside; nothing inside provex knows about it. A nil
// tracer records nothing, which is how the untraced replay runs the
// same code.
type tracer struct {
	t0     time.Time
	phases []*phaseTrace
	stack  []openSpan
	spans  []span // a span's ID is its position plus one
	msg    int    // ordinal of the message being ingested
	keep   bool   // record full spans (sampled message, or outside ingest)
}

func newTracer() *tracer { return &tracer{t0: time.Now(), keep: true} }

// beginPhase opens a phase; every later span lands in its sums.
func (t *tracer) beginPhase(name string) {
	if t == nil {
		return
	}
	t.phases = append(t.phases, &phaseTrace{name: name})
	t.keep = true
	t.begin(lyPhase)
	t.spans[len(t.spans)-1].Name = name
}

func (t *tracer) endPhase() {
	if t == nil {
		return
	}
	p := t.phases[len(t.phases)-1]
	t.keep = true
	t.end()
	p.wall = p.layers[lyPhase].total
}

// message scopes the spans of stream message ordinal n (1-based) and
// decides whether they are kept in full.
func (t *tracer) message(n int) {
	if t == nil {
		return
	}
	t.msg = n
	t.keep = n%spanSampleEvery == 0
}

// noMessage returns to spans that belong to no message (queries,
// checkpoints), which are always kept in full.
func (t *tracer) noMessage() {
	if t == nil {
		return
	}
	t.msg = 0
	t.keep = true
}

func (t *tracer) begin(ly layer) {
	if t == nil {
		return
	}
	o := openSpan{ly: ly, start: time.Now(), idx: -1}
	if t.keep {
		o.idx = len(t.spans)
		parent := 0
		for i := len(t.stack) - 1; i >= 0 && parent == 0; i-- {
			parent = t.stack[i].idx + 1
		}
		t.spans = append(t.spans, span{
			ID: o.idx + 1, Parent: parent, Name: layerNames[ly],
			StartNs: o.start.Sub(t.t0).Nanoseconds(), Msg: t.msg,
		})
	}
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(o.start)
	sums := &t.phases[len(t.phases)-1].layers
	sums[o.ly].total += d
	sums[o.ly].calls++
	if len(t.stack) > 0 {
		sums[t.stack[len(t.stack)-1].ly].child += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].EndNs = now.Sub(t.t0).Nanoseconds()
	}
}

// phase returns the named phase's account, nil if it never ran.
func (t *tracer) phase(name string) *phaseTrace {
	for _, p := range t.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Phases   []tracePhaseJSON `json:"phases"`
	Spans    []span           `json:"spans"`
}

type tracePhaseJSON struct {
	Name         string           `json:"name"`
	WallS        float64          `json:"wall_s"`
	UnaccountedS float64          `json:"unaccounted_s"`
	Layers       []traceLayerJSON `json:"layers"`
}

type traceLayerJSON struct {
	Name   string  `json:"name"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Calls  int     `json:"calls"`
}

// write dumps the trace, kept in memory until now, to dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	out := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	for _, p := range t.phases {
		pj := tracePhaseJSON{Name: p.name, WallS: p.wall.Seconds(), UnaccountedS: p.unaccounted().Seconds()}
		for ly := lyPhase + 1; ly < numLayers; ly++ {
			if s := p.layers[ly]; s.calls > 0 {
				pj.Layers = append(pj.Layers, traceLayerJSON{
					Name: layerNames[ly], TotalS: s.total.Seconds(), SelfS: s.self().Seconds(), Calls: s.calls,
				})
			}
		}
		out.Phases = append(out.Phases, pj)
	}
	if err := (fsx.OS{}).MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := (fsx.OS{}).Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
