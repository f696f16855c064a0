package experiments

import (
	"provex/internal/core"
	"provex/internal/eval"
	"provex/internal/gen"
)

// pass is the paper's Section VI-A simulation: one replay of the seed
// stream through Full Index — the ground truth, with its edge set —
// beside only the variants the requested figures read. Each figure
// adds a group: its variants ingest the stream up to the group's own
// length and are read at its own checkpoints, where the truth stands at
// the same stream position. The stream runs as long as the longest
// group; figs holds each figure's tables, by figure name, once run
// returns.
type pass struct {
	s      Scale
	groups []group
	truth  *variant // built by run, so a pass of no group builds no engine
	figs   map[string][]*Table
}

// group is one figure's share of the pass: read is called after the
// message that ends each stride of every and after message until, and
// the variants ingest no message past until.
type group struct {
	until, every int
	variants     []*variant
	read         func(i int)
}

// variant is one engine of the pass with the edges it found.
type variant struct {
	name  string
	eng   *core.Engine
	edges *eval.EdgeSet
}

func newVariant(name string, cfg core.Config) *variant {
	es := eval.NewEdgeSet()
	return &variant{name: name, eng: core.New(cfg, nil, es.Observe), edges: es}
}

// add registers a group of variants fed up to until and read at every
// stride and at until.
func (p *pass) add(until, every int, variants []*variant, read func(i int)) {
	p.groups = append(p.groups, group{until: until, every: every, variants: variants, read: read})
}

// run replays the stream: each message goes to the truth and then to
// every variant whose group still runs — the message is immutable once
// generated, so all engines share it.
func (p *pass) run() {
	n := 0
	for _, g := range p.groups {
		n = max(n, g.until)
	}
	if n == 0 {
		return
	}
	p.truth = newVariant(MethodFull, core.FullIndexConfig())
	stream := gen.New(p.s.genConfig())
	for i := 1; i <= n; i++ {
		m := stream.Next()
		p.truth.eng.Insert(m)
		for _, g := range p.groups {
			if i > g.until {
				continue
			}
			for _, v := range g.variants {
				v.eng.Insert(m)
			}
			if i%g.every == 0 || i == g.until {
				g.read(i)
			}
		}
	}
}
