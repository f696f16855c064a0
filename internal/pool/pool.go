// Package pool implements the in-memory bundle pool of the paper's
// framework and its maintenance policy (Section V-B, Algorithm 3): a
// periodic refinement that directly deletes aging tiny bundles, flushes
// aging closed bundles to the disk back-end, and ranks the remainder by
// the Equation 6 eviction score G(B) = age + 1/|B|, eliminating from
// the top until the pool is back under its bound.
//
// The paper deletes second-stage victims outright (Algorithm 3 lines
// 15–19) while its prose says "median bundles are backup onto disk";
// we follow the prose — second-stage victims are flushed, not dropped —
// since that strictly preserves more provenance at identical pool size.
// DESIGN.md records this reading.
package pool

import (
	"fmt"
	"sort"
	"time"

	"provex/internal/bundle"
	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/tweet"
)

// Config is the maintenance policy. The zero value disables every
// limit — the Full Index baseline.
type Config struct {
	// MaxBundles is the bundle pool limitation M; 0 = unlimited.
	// Refinement triggers when the pool exceeds it.
	MaxBundles int
	// RefineSize R: bundles smaller than this AND older than RefineAge
	// are deleted directly as "aging tiny".
	RefineSize int
	// RefineAge T: the age beyond which a quiet bundle is a
	// refinement victim candidate.
	RefineAge time.Duration
	// LowerLimit is the minimum number of bundles each refinement pass
	// must remove (the paper's refine_lower_limit); it stops the pool
	// from hovering at the boundary and re-scanning every insert.
	LowerLimit int
	// MaxBundleSize closes bundles that reach this many messages
	// (Section V-B's bundle size constraint); 0 = unlimited.
	MaxBundleSize int
	// CheckEvery throttles the pool-status check to every n inserts;
	// 0 defaults to 1024.
	CheckEvery int

	// IDStart/IDStride partition the bundle ID space when several pools
	// coexist (the sharded engine, DESIGN.md §2i): this pool allocates
	// the arithmetic progression IDStart, IDStart+IDStride, ... so shard
	// i of N (IDStart=i+1, IDStride=N) can never collide with its
	// siblings. The zero values mean 1/1 — the serial sequence 1,2,3,...
	IDStart  bundle.ID
	IDStride int
}

// DefaultConfig mirrors the paper's experimental setting: pool limit
// 10k, refinement drops at least 1/4 of the limit, tiny means < 3
// messages, aging means quiet for 24 simulated hours.
func DefaultConfig() Config {
	return Config{
		MaxBundles: 10000,
		RefineSize: 3,
		RefineAge:  24 * time.Hour,
		LowerLimit: 2500,
		CheckEvery: 1024,
	}
}

// EvictReason classifies why a bundle left the pool.
type EvictReason uint8

// Eviction reasons.
const (
	EvictAgingTiny EvictReason = iota // deleted: old and below RefineSize
	EvictClosed                       // flushed: old and closed
	EvictRanked                       // flushed: top of the G(B) ranking
)

// String names the reason.
func (r EvictReason) String() string {
	switch r {
	case EvictAgingTiny:
		return "aging-tiny"
	case EvictClosed:
		return "closed"
	case EvictRanked:
		return "ranked"
	default:
		return fmt.Sprintf("reason%d", uint8(r))
	}
}

// EvictFunc receives each evicted bundle, in the form the pool held it.
// flush reports whether the bundle should be persisted to the disk
// back-end (true) or dropped (false). The engine hooks summary-index
// cleanup and storage here.
type EvictFunc func(r bundle.Ref, reason EvictReason, flush bool)

// Stats counts pool activity.
type Stats struct {
	Created       int64
	Refines       int64
	DeletedTiny   int64
	FlushedClosed int64
	FlushedRanked int64
}

// Pool holds the live bundles, each in the form its size calls for
// (bundle.Ref): an open bundle of one message as that message's record,
// any other as a Bundle. Create opens a bundle in the record form and
// Promote builds its Bundle when a second message joins. Not safe for
// concurrent use.
type Pool struct {
	cfg     Config
	bundles table
	nextID  bundle.ID
	onEvict EvictFunc
	inserts int
	stats   Stats
	gHist   *metrics.Histogram // optional: Eq. 6 scores of ranked evictions

	// Running totals over the live bundles, so a stats snapshot does not
	// walk the pool: moved wherever a bundle enters, grows, is promoted
	// or leaves.
	memBytes int64
	messages int64

	onRefine RefineObserver // optional: per-victim refinement audit
}

// RefineObserver receives every Algorithm 3 eviction verdict: the
// victim, the reason, its quiet age in hours, its Eq. 6 score G(B),
// and — for ranked (second-stage) evictions — its 1-based position in
// the G ranking (0 for stage-one verdicts, which are categorical, not
// ranked). The decision tracer subscribes here.
type RefineObserver func(r bundle.Ref, reason EvictReason, ageHours, g float64, rank int)

// SetRefineObserver registers fn (nil unregisters). Called from the
// single ingest goroutine during refinement, before the EvictFunc for
// the same victim.
func (p *Pool) SetRefineObserver(fn RefineObserver) { p.onRefine = fn }

// SetGScoreHistogram registers a histogram that observes the Equation 6
// eviction score of every second-stage (ranked) eviction victim, in
// milli-G units (G × 1000, G measured in hours + 1/|B|). The
// distribution shows how aggressively refinement digs into the pool: a
// mass near zero means fresh, large bundles are being flushed — the
// pool limit is too tight for the stream. The histogram carries its own
// lock, so a metrics scrape may read it while refinement writes.
func (p *Pool) SetGScoreHistogram(h *metrics.Histogram) { p.gHist = h }

// New creates a pool with the given policy and eviction hook (which may
// be nil when the caller does not track evictions).
func New(cfg Config, onEvict EvictFunc) *Pool {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1024
	}
	if cfg.IDStart == 0 {
		cfg.IDStart = 1
	}
	if cfg.IDStride <= 0 {
		cfg.IDStride = 1
	}
	if onEvict == nil {
		onEvict = func(bundle.Ref, EvictReason, bool) {}
	}
	return &Pool{
		cfg:     cfg,
		nextID:  cfg.IDStart,
		onEvict: onEvict,
	}
}

// slot is id's position on the pool's (IDStart, IDStride) progression:
// its index in the bundle table. id must lie on it (Allocates).
func (p *Pool) slot(id bundle.ID) int {
	return int(uint64(id-p.cfg.IDStart) / uint64(p.cfg.IDStride))
}

// Create opens a fresh bundle holding doc, its first message, in the
// record form — or as a Bundle when the size constraint closes a bundle
// at its first message (MaxBundleSize 1), since the record has no closed
// flag. The memory total takes the bundle's estimate; the caller then
// reports the message through NoteInsert with no growth.
func (p *Pool) Create(doc score.Doc) bundle.Ref {
	r := bundle.Single(p.nextID, doc)
	if p.cfg.MaxBundleSize == 1 {
		r = r.Expand().Ref()
	}
	p.put(r)
	p.nextID += bundle.ID(p.cfg.IDStride)
	p.stats.Created++
	return r
}

// put stores r in its slot, which must be empty, and adds its estimate
// to the memory total.
func (p *Pool) put(r bundle.Ref) {
	var doc score.Doc
	if r.Bundle() == nil {
		doc = r.First()
	}
	p.bundles.put(p.slot(r.ID()), r.Bundle(), doc)
	p.memBytes += r.MemBytes()
}

// Promote returns the Bundle of the live bundle r, building it from the
// record when r is in the record form: a second message is about to
// join it, and the pool holds the Bundle from then on. The Bundle is the
// one bundle.New and AddScratch of the record's message would have built.
func (p *Pool) Promote(r bundle.Ref) *bundle.Bundle {
	if b := r.Bundle(); b != nil {
		return b
	}
	b := r.Expand()
	p.bundles.promote(p.slot(r.ID()), b)
	p.memBytes += b.MemBytes() - r.MemBytes()
	return b
}

// alignID returns the smallest value >= id that lies on this pool's
// (IDStart, IDStride) arithmetic progression — the only values the
// allocator may hand out.
func (p *Pool) alignID(id bundle.ID) bundle.ID {
	if id <= p.cfg.IDStart {
		return p.cfg.IDStart
	}
	stride := uint64(p.cfg.IDStride)
	d := uint64(id - p.cfg.IDStart)
	if r := d % stride; r != 0 {
		d += stride - r
	}
	return p.cfg.IDStart + bundle.ID(d)
}

// Allocates reports whether id lies on this pool's (IDStart, IDStride)
// progression: whether this pool, and none of its siblings, would have
// created it. A sharded node's reads route a bundle ID to its engine
// with it.
func (p *Pool) Allocates(id bundle.ID) bool {
	return id >= p.cfg.IDStart && uint64(id-p.cfg.IDStart)%uint64(p.cfg.IDStride) == 0
}

// Get returns the live bundle with id, the zero Ref when absent.
//
//provex:hotpath Eq. 1 resolves every candidate the upper bound did not prune
func (p *Pool) Get(id bundle.ID) bundle.Ref {
	if !p.Allocates(id) {
		return bundle.Ref{}
	}
	slot := p.slot(id)
	b, doc := p.bundles.get(slot)
	return p.ref(slot, b, doc)
}

// ref is the reference of the bundle in slot, given what the slot holds.
func (p *Pool) ref(slot int, b *bundle.Bundle, doc score.Doc) bundle.Ref {
	switch {
	case b != nil:
		return b.Ref()
	case doc.Msg != nil:
		return bundle.Single(p.cfg.IDStart+bundle.ID(slot*p.cfg.IDStride), doc)
	default:
		return bundle.Ref{}
	}
}

// Adopt inserts an existing bundle (checkpoint restore) in the form the
// pool holds it (bundle.Ref.Compact): a restored pool has the form the
// saved one had. The ID allocator advances past it so future Create
// calls never collide. An ID this pool would not allocate, or one
// already in the pool, is an error and leaves the pool as it was.
func (p *Pool) Adopt(r bundle.Ref) error {
	if !p.Allocates(r.ID()) {
		return fmt.Errorf("pool: Adopt of bundle %d, off the pool's IDs %d, %d+%d, ...",
			r.ID(), p.cfg.IDStart, p.cfg.IDStart, p.cfg.IDStride)
	}
	if !p.Get(r.ID()).IsZero() {
		return fmt.Errorf("pool: Adopt of bundle %d, already in the pool", r.ID())
	}
	p.put(r.Compact())
	p.messages += int64(r.Size())
	if next := p.alignID(r.ID() + 1); next > p.nextID {
		p.nextID = next
	}
	return nil
}

// SetStats overwrites the activity counters (checkpoint restore).
func (p *Pool) SetStats(s Stats) { p.stats = s }

// Inserts returns the NoteInsert counter — the phase of the periodic
// pool check. Checkpoints persist it so a restored engine refines at
// exactly the stream positions an uninterrupted run would.
func (p *Pool) Inserts() int { return p.inserts }

// SetInserts overwrites the NoteInsert counter (checkpoint restore).
func (p *Pool) SetInserts(n int) { p.inserts = n }

// NextID exposes the next bundle ID the pool would allocate — saved in
// checkpoints so restored engines continue the same ID sequence even
// when the newest bundles were evicted before the snapshot.
func (p *Pool) NextID() bundle.ID { return p.nextID }

// SetNextID raises the ID allocator (checkpoint restore); lower values
// are ignored so Adopt-derived floors stay safe, and the value is
// aligned onto the pool's (IDStart, IDStride) progression.
func (p *Pool) SetNextID(id bundle.ID) {
	if v := p.alignID(id); v > p.nextID {
		p.nextID = v
	}
}

// Len is the number of live bundles.
func (p *Pool) Len() int { return p.bundles.n }

// Stats returns activity counters.
func (p *Pool) Stats() Stats { return p.stats }

// All iterates the live bundles, in either form, in ascending ID order.
// fn must not add to the pool; refinement, the one caller that deletes,
// deletes only the bundle it is given.
func (p *Pool) All(fn func(bundle.Ref)) {
	p.bundles.each(func(slot int, b *bundle.Bundle, doc score.Doc) { fn(p.ref(slot, b, doc)) })
}

// Bundles iterates the live bundles held as Bundles, in ascending ID
// order, skipping the open bundles of one message: a walk that needs
// more than one message of a bundle (trending) reads only these.
func (p *Pool) Bundles(fn func(*bundle.Bundle)) { p.bundles.eachBundle(fn) }

// MemBytes is the analytic memory estimate summed over live bundles: a
// Bundle's estimate, or a record's (bundle.Ref.MemBytes).
func (p *Pool) MemBytes() int64 { return p.memBytes }

// TableBytes is the heap of the table that holds the live bundles: its
// pages, 16 bytes a slot, and its page directory.
func (p *Pool) TableBytes() int64 { return p.bundles.bytes() }

// MessageCount is the number of messages held in memory — Figure
// 11(b)'s hardware-independent memory metric.
func (p *Pool) MessageCount() int64 { return p.messages }

// NoteInsert must be called after every message insertion into r, with
// the growth of its MemBytes the insertion caused (none for a bundle
// Create opened): it keeps the running totals, applies the bundle size
// constraint and advances the periodic check counter. It returns true
// when the caller should run MaybeRefine.
func (p *Pool) NoteInsert(r bundle.Ref, grew int64) bool {
	p.memBytes += grew
	p.messages++
	if b := r.Bundle(); b != nil && p.cfg.MaxBundleSize > 0 && !b.Closed() && b.Size() >= p.cfg.MaxBundleSize {
		b.Close()
	}
	p.inserts++
	return p.inserts%p.cfg.CheckEvery == 0
}

// MaybeRefine runs the refinement pass if the pool exceeds its bound.
// It reports whether a pass ran.
// now is the stream's current date in unix nanoseconds.
func (p *Pool) MaybeRefine(now int64) bool {
	if p.cfg.MaxBundles <= 0 || p.Len() <= p.cfg.MaxBundles {
		return false
	}
	p.refine(now)
	return true
}

// remove takes r out of the pool and out of the running totals.
func (p *Pool) remove(r bundle.Ref) {
	p.bundles.del(p.slot(r.ID()))
	p.memBytes -= r.MemBytes()
	p.messages -= int64(r.Size())
}

// rankedBundle pairs a bundle with its Equation 6 score for the
// second-stage ranking.
type rankedBundle struct {
	r bundle.Ref
	g float64
}

// refine is Algorithm 3. Stage one deletes aging tiny bundles and
// flushes aging closed ones; stage two ranks the rest by G(B)
// descending and flushes from the top until both the lower limit is met
// and the pool is back under MaxBundles.
func (p *Pool) refine(now int64) {
	p.stats.Refines++
	count := 0
	waiting := make([]rankedBundle, 0, p.Len())
	p.All(func(r bundle.Ref) {
		age := tweet.Sub(now, r.LastDate())
		switch {
		case age > p.cfg.RefineAge && r.Size() < p.cfg.RefineSize:
			p.remove(r)
			if p.onRefine != nil {
				p.onRefine(r, EvictAgingTiny, age.Hours(), score.EvictionRank(now, r.LastDate(), r.Size()), 0)
			}
			p.onEvict(r, EvictAgingTiny, false)
			p.stats.DeletedTiny++
			count++
		case age > p.cfg.RefineAge && r.Closed():
			p.remove(r)
			if p.onRefine != nil {
				p.onRefine(r, EvictClosed, age.Hours(), score.EvictionRank(now, r.LastDate(), r.Size()), 0)
			}
			p.onEvict(r, EvictClosed, true)
			p.stats.FlushedClosed++
			count++
		default:
			waiting = append(waiting, rankedBundle{r: r, g: score.EvictionRank(now, r.LastDate(), r.Size())})
		}
	})
	sort.Slice(waiting, func(i, j int) bool {
		if waiting[i].g != waiting[j].g {
			return waiting[i].g > waiting[j].g
		}
		return waiting[i].r.ID() < waiting[j].r.ID()
	})
	for rank, rb := range waiting {
		if count >= p.cfg.LowerLimit && p.Len() <= p.cfg.MaxBundles {
			break
		}
		p.remove(rb.r)
		if p.onRefine != nil {
			p.onRefine(rb.r, EvictRanked, tweet.Sub(now, rb.r.LastDate()).Hours(), rb.g, rank+1)
		}
		p.onEvict(rb.r, EvictRanked, true)
		p.stats.FlushedRanked++
		count++
		if p.gHist != nil {
			p.gHist.Observe(int64(rb.g * 1000))
		}
	}
}
