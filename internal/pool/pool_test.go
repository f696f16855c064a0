package pool

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/bundle"
	"provex/internal/score"
	"provex/internal/tweet"
)

var (
	base    = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	weights = score.DefaultMessageWeights()
)

// fill adds n messages dated at to b, each carrying a bundle-unique tag.
func fill(b *bundle.Bundle, n int, at time.Time) {
	for i := b.Size(); n > 0; i, n = i+1, n-1 {
		text := fmt.Sprintf("message %d of bundle %d #b%d", i, b.ID(), b.ID())
		m := tweet.Parse(tweet.ID(uint64(b.ID())*1000+uint64(i)), "u", at, text)
		b.Add(weights, score.NewDoc(m))
	}
}

// insert adds n messages to b the way the engine does: Add, then
// NoteInsert with the growth of the bundle's estimate.
func insert(p *Pool, b *bundle.Bundle, n int, at time.Time) {
	for i := 0; i < n; i++ {
		before := b.MemBytes()
		fill(b, 1, at)
		p.NoteInsert(b, b.MemBytes()-before)
	}
}

type evictLog struct {
	events []struct {
		id     bundle.ID
		reason EvictReason
		flush  bool
	}
}

func (l *evictLog) hook(b *bundle.Bundle, r EvictReason, flush bool) {
	l.events = append(l.events, struct {
		id     bundle.ID
		reason EvictReason
		flush  bool
	}{b.ID(), r, flush})
}

func TestCreateAndGet(t *testing.T) {
	p := New(Config{}, nil)
	b1 := p.Create()
	b2 := p.Create()
	if b1.ID() == b2.ID() {
		t.Fatal("Create reused an ID")
	}
	if p.Get(b1.ID()) != b1 || p.Get(999) != nil {
		t.Error("Get wrong")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.Stats().Created != 2 {
		t.Errorf("Created = %d", p.Stats().Created)
	}
}

func TestUnlimitedPoolNeverRefines(t *testing.T) {
	p := New(Config{}, nil) // zero config = Full Index
	for i := 0; i < 500; i++ {
		fill(p.Create(), 1, base)
	}
	if p.MaybeRefine(base.Add(100 * time.Hour).UnixNano()) {
		t.Error("unlimited pool ran refinement")
	}
	if p.Len() != 500 {
		t.Errorf("Len = %d, want 500", p.Len())
	}
}

func TestNoteInsertClosesAtSizeCap(t *testing.T) {
	p := New(Config{MaxBundleSize: 3}, nil)
	b := p.Create()
	insert(p, b, 2, base)
	if b.Closed() {
		t.Fatal("closed below cap")
	}
	insert(p, b, 1, base)
	if !b.Closed() {
		t.Fatal("not closed at cap")
	}
}

func TestNoteInsertCheckCadence(t *testing.T) {
	p := New(Config{CheckEvery: 4}, nil)
	b := p.Create()
	checks := 0
	for i := 0; i < 12; i++ {
		if p.NoteInsert(b, 0) {
			checks++
		}
	}
	if checks != 3 {
		t.Errorf("checks = %d, want 3 (every 4th insert)", checks)
	}
}

func TestRefineDeletesAgingTiny(t *testing.T) {
	cfg := Config{MaxBundles: 2, RefineSize: 3, RefineAge: time.Hour, LowerLimit: 1}
	var log evictLog
	p := New(cfg, log.hook)

	old := p.Create()
	fill(old, 1, base) // tiny, will age

	fresh := p.Create()
	fill(fresh, 5, base.Add(2*time.Hour))
	big := p.Create()
	fill(big, 10, base.Add(2*time.Hour))

	now := base.Add(90 * time.Minute) // old aged 90m > 1h; others fresh
	if !p.MaybeRefine(now.Add(time.Hour).UnixNano()) {
		t.Fatal("refinement did not run over limit")
	}
	if p.Get(old.ID()) != nil {
		t.Error("aging tiny bundle survived")
	}
	found := false
	for _, e := range log.events {
		if e.id == old.ID() {
			found = true
			if e.reason != EvictAgingTiny || e.flush {
				t.Errorf("aging tiny evicted as %v flush=%v", e.reason, e.flush)
			}
		}
	}
	if !found {
		t.Error("eviction hook not called for aging tiny bundle")
	}
	if p.Stats().DeletedTiny != 1 {
		t.Errorf("DeletedTiny = %d", p.Stats().DeletedTiny)
	}
}

func TestRefineFlushesAgingClosed(t *testing.T) {
	cfg := Config{MaxBundles: 1, RefineSize: 2, RefineAge: time.Hour, LowerLimit: 1}
	var log evictLog
	p := New(cfg, log.hook)

	closed := p.Create()
	fill(closed, 6, base)
	closed.Close()

	fresh := p.Create()
	fill(fresh, 3, base.Add(3*time.Hour))

	p.MaybeRefine(base.Add(4 * time.Hour).UnixNano())
	if p.Get(closed.ID()) != nil {
		t.Fatal("aging closed bundle survived")
	}
	for _, e := range log.events {
		if e.id == closed.ID() && (e.reason != EvictClosed || !e.flush) {
			t.Errorf("closed bundle evicted as %v flush=%v, want closed/flush", e.reason, e.flush)
		}
	}
	if p.Stats().FlushedClosed != 1 {
		t.Errorf("FlushedClosed = %d", p.Stats().FlushedClosed)
	}
}

func TestRefineRankedEviction(t *testing.T) {
	// No bundle is aging; the pass must fall through to G(B) ranking
	// and evict the stalest/smallest first, flushing them.
	cfg := Config{MaxBundles: 2, RefineSize: 2, RefineAge: 100 * time.Hour, LowerLimit: 2}
	var log evictLog
	p := New(cfg, log.hook)

	staleSmall := p.Create()
	fill(staleSmall, 1, base)
	staleBig := p.Create()
	fill(staleBig, 50, base)
	freshBig := p.Create()
	fill(freshBig, 50, base.Add(10*time.Hour))
	freshSmall := p.Create()
	fill(freshSmall, 2, base.Add(10*time.Hour))

	p.MaybeRefine(base.Add(11 * time.Hour).UnixNano())

	if len(log.events) != 2 {
		t.Fatalf("evictions = %v, want 2", log.events)
	}
	if log.events[0].id != staleSmall.ID() {
		t.Errorf("first eviction = bundle %d, want stale small %d", log.events[0].id, staleSmall.ID())
	}
	if log.events[1].id != staleBig.ID() {
		t.Errorf("second eviction = bundle %d, want stale big %d", log.events[1].id, staleBig.ID())
	}
	for _, e := range log.events {
		if e.reason != EvictRanked || !e.flush {
			t.Errorf("ranked eviction %v flush=%v, want ranked/flush", e.reason, e.flush)
		}
	}
	if p.Len() != 2 {
		t.Errorf("Len after refine = %d, want 2", p.Len())
	}
}

func TestRefineRespectsLowerLimit(t *testing.T) {
	// Pool barely over the cap, but LowerLimit forces extra evictions.
	cfg := Config{MaxBundles: 4, RefineSize: 1, RefineAge: 100 * time.Hour, LowerLimit: 3}
	var log evictLog
	p := New(cfg, log.hook)
	for i := 0; i < 5; i++ {
		fill(p.Create(), 2, base.Add(time.Duration(i)*time.Hour))
	}
	p.MaybeRefine(base.Add(10 * time.Hour).UnixNano())
	if len(log.events) != 3 {
		t.Errorf("evictions = %d, want LowerLimit 3", len(log.events))
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestRefineNotTriggeredUnderLimit(t *testing.T) {
	cfg := Config{MaxBundles: 10, RefineAge: time.Hour, RefineSize: 2, LowerLimit: 1}
	p := New(cfg, nil)
	for i := 0; i < 10; i++ {
		fill(p.Create(), 1, base)
	}
	if p.MaybeRefine(base.Add(100 * time.Hour).UnixNano()) {
		t.Error("refinement ran at exactly the limit (trigger is 'exceeds')")
	}
}

func TestMemAndMessageCounts(t *testing.T) {
	p := New(Config{}, nil)
	b1 := p.Create()
	insert(p, b1, 3, base)
	b2 := p.Create()
	insert(p, b2, 4, base)
	if got := p.MessageCount(); got != 7 {
		t.Errorf("MessageCount = %d, want 7", got)
	}
	if p.MemBytes() != b1.MemBytes()+b2.MemBytes() {
		t.Error("MemBytes not additive")
	}
}

func TestAllVisitsEverything(t *testing.T) {
	p := New(Config{}, nil)
	want := map[bundle.ID]bool{}
	for i := 0; i < 5; i++ {
		want[p.Create().ID()] = true
	}
	p.All(func(b *bundle.Bundle) { delete(want, b.ID()) })
	if len(want) != 0 {
		t.Errorf("All missed bundles: %v", want)
	}
}

func TestEvictReasonString(t *testing.T) {
	for r, want := range map[EvictReason]string{
		EvictAgingTiny: "aging-tiny", EvictClosed: "closed", EvictRanked: "ranked",
	} {
		if r.String() != want {
			t.Errorf("String = %q, want %q", r.String(), want)
		}
	}
}

// Property: after any refinement pass, the pool size is at most
// MaxBundles, and every evicted bundle is gone from the pool.
func TestRefineInvariantProperty(t *testing.T) {
	f := func(sizes []uint8, maxRaw, lowerRaw uint8) bool {
		if len(sizes) == 0 || len(sizes) > 60 {
			return true
		}
		max := int(maxRaw%20) + 1
		cfg := Config{
			MaxBundles: max,
			RefineSize: 3,
			RefineAge:  time.Hour,
			LowerLimit: int(lowerRaw % 10),
		}
		var log evictLog
		p := New(cfg, log.hook)
		for i, s := range sizes {
			b := p.Create()
			fill(b, int(s%9)+1, base.Add(time.Duration(i)*time.Minute))
		}
		p.MaybeRefine(base.Add(48 * time.Hour).UnixNano())
		if p.Len() > max {
			return false
		}
		for _, e := range log.events {
			if p.Get(e.id) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: stats counters always sum to the number of eviction events.
func TestStatsConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		cfg := Config{MaxBundles: 5, RefineSize: 3, RefineAge: time.Hour, LowerLimit: 2, MaxBundleSize: 6}
		var log evictLog
		p := New(cfg, log.hook)
		for i, s := range sizes {
			b := p.Create()
			fill(b, int(s%9)+1, base.Add(time.Duration(i)*time.Minute))
			p.NoteInsert(b, 0)
			p.MaybeRefine(base.Add(time.Duration(i)*time.Minute + 30*time.Hour).UnixNano())
		}
		st := p.Stats()
		return st.DeletedTiny+st.FlushedClosed+st.FlushedRanked == int64(len(log.events))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdoptAndNextID(t *testing.T) {
	p := New(Config{}, nil)
	b := bundle.New(50)
	if err := p.Adopt(b); err != nil {
		t.Fatal(err)
	}
	if p.Get(50) != b {
		t.Fatal("adopted bundle not retrievable")
	}
	if p.NextID() != 51 {
		t.Errorf("NextID = %d, want 51", p.NextID())
	}
	// Create after Adopt must not collide.
	if c := p.Create(); c.ID() != 51 {
		t.Errorf("Create after Adopt = %d, want 51", c.ID())
	}
	// SetNextID only moves forward.
	p.SetNextID(10)
	if p.NextID() != 52 {
		t.Errorf("SetNextID lowered the allocator to %d", p.NextID())
	}
	p.SetNextID(100)
	if p.NextID() != 100 {
		t.Errorf("SetNextID = %d, want 100", p.NextID())
	}
	if err := p.Adopt(bundle.New(50)); err == nil || p.Get(50) != b {
		t.Errorf("duplicate Adopt: err = %v, and the pool holds %p, not the first bundle %p", err, p.Get(50), b)
	}
}

// TestAdoptOffTheProgression: a pool allocates IDStart, IDStart +
// IDStride, ... and has a slot for those IDs only; Adopt refuses any
// other and leaves the pool as it was.
func TestAdoptOffTheProgression(t *testing.T) {
	p := New(Config{IDStart: 2, IDStride: 3}, nil)
	for _, id := range []bundle.ID{1, 3, 4, 6, 1_000_000} {
		if err := p.Adopt(bundle.New(id)); err == nil {
			t.Errorf("Adopt(%d) on the progression 2, 5, 8, ...: no error", id)
		}
	}
	if p.Len() != 0 || p.NextID() != 2 {
		t.Fatalf("refused adopts left %d bundles, next ID %d", p.Len(), p.NextID())
	}
	for _, id := range []bundle.ID{3002, 5, 2} { // the later pages first
		if err := p.Adopt(bundle.New(id)); err != nil {
			t.Errorf("Adopt(%d): %v", id, err)
		}
	}
	var got []bundle.ID
	p.All(func(b *bundle.Bundle) { got = append(got, b.ID()) })
	if want := []bundle.ID{2, 5, 3002}; !slices.Equal(got, want) || p.NextID() != 3005 {
		t.Errorf("All walks %v with next ID %d, want %v and 3005", got, p.NextID(), want)
	}
}

func TestInsertsCounter(t *testing.T) {
	p := New(Config{CheckEvery: 100}, nil)
	b := p.Create()
	for i := 0; i < 7; i++ {
		p.NoteInsert(b, 0)
	}
	if p.Inserts() != 7 {
		t.Errorf("Inserts = %d", p.Inserts())
	}
	p.SetInserts(99)
	if !p.NoteInsert(b, 0) {
		t.Error("restored counter lost check phase: insert 100 should trigger")
	}
}

// TestRunningTotalsMatchWalk: MemBytes and MessageCount are kept as
// running totals; after any seeded mix of creates, inserts (some
// crossing the size at which a bundle's summary changes form), adopted
// bundles and refinement passes of all three eviction kinds they equal
// a fresh walk over the live bundles.
func TestRunningTotalsMatchWalk(t *testing.T) {
	check := func(p *Pool, when string) {
		t.Helper()
		var mem, msgs int64
		p.All(func(b *bundle.Bundle) {
			mem += b.MemBytes()
			msgs += int64(b.Size())
		})
		if p.MemBytes() != mem || p.MessageCount() != msgs {
			t.Fatalf("%s: totals %d B / %d messages, a walk finds %d B / %d",
				when, p.MemBytes(), p.MessageCount(), mem, msgs)
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MaxBundles: 12, RefineSize: 3, RefineAge: time.Hour, LowerLimit: 4, MaxBundleSize: 20, IDStride: 2}
		p := New(cfg, nil)
		var open []*bundle.Bundle
		now := base
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(20)) * time.Minute)
			switch r := rng.Intn(10); {
			case r < 2 || len(open) == 0:
				open = append(open, p.Create())
			case r < 3:
				// On the pool's odd IDs, above every one it has made.
				b := bundle.New(p.NextID() + bundle.ID(2*rng.Intn(200)))
				fill(b, 1+rng.Intn(25), now)
				if err := p.Adopt(b); err != nil {
					t.Fatal(err)
				}
			default:
				if b := open[rng.Intn(len(open))]; p.Get(b.ID()) == b {
					for n := 1 + rng.Intn(4); n > 0 && !b.Closed(); n-- {
						insert(p, b, 1, now)
					}
				}
			}
			if p.MaybeRefine(now.UnixNano()) {
				check(p, fmt.Sprintf("seed %d step %d, after refinement", seed, step))
			}
		}
		check(p, fmt.Sprintf("seed %d, at the end", seed))
		if st := p.Stats(); st.DeletedTiny == 0 || st.FlushedClosed == 0 || st.FlushedRanked == 0 {
			t.Errorf("seed %d: eviction kinds not all exercised: %+v", seed, st)
		}
	}
}

// TestTableStaysBounded: a pool with the Bundle Limit configuration
// (core.BundleLimitConfig(1000, 50)) creates 200 000 bundles, a third
// of its inserts going to a live bundle picked at random, so survivors
// of refinement sit scattered over old pages. The table must release
// pages as they empty: after every refinement its bytes — directory and
// pages — stay within tableBound of the 8-byte slot each live bundle
// needs, and TableBytes, which the engine's memory estimate charges,
// is those bytes. The run is seeded: it reads 4.32× at 128-slot pages
// (5.03× at 256), and the bound leaves a margin of 0.68×.
func TestTableStaysBounded(t *testing.T) {
	const (
		created    = 200_000
		tableBound = 5
	)
	cfg := DefaultConfig()
	cfg.MaxBundles, cfg.LowerLimit, cfg.CheckEvery, cfg.MaxBundleSize = 1000, 250, 125, 50
	p := New(cfg, nil)
	rng := rand.New(rand.NewSource(1))
	now := base
	var live []*bundle.Bundle
	worst := 0.0
	for p.Stats().Created < created {
		now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
		b := (*bundle.Bundle)(nil)
		if rng.Intn(3) == 0 && len(live) > 0 {
			if c := live[rng.Intn(len(live))]; p.Get(c.ID()) == c && !c.Closed() {
				b = c
			}
		}
		if b == nil {
			b = p.Create()
			live = append(live, b)
		}
		insert(p, b, 1, now)
		if p.inserts%cfg.CheckEvery == 0 && p.MaybeRefine(now.UnixNano()) {
			live = slices.DeleteFunc(live, func(b *bundle.Bundle) bool { return p.Get(b.ID()) != b })
			if got, want := p.TableBytes(), tableBytes(&p.bundles); got != want {
				t.Fatalf("TableBytes = %d, the table holds %d", got, want)
			}
			if r := float64(tableBytes(&p.bundles)) / float64(8*p.Len()); r > worst {
				worst = r
			}
		}
	}
	t.Logf("%d bundles created, %d live; table %d bytes, worst %.2f× the live bundles' slots", p.Stats().Created, p.Len(), tableBytes(&p.bundles), worst)
	if worst > tableBound {
		t.Errorf("the table held %.2f× the 8 bytes a live bundle needs, bound %d×", worst, tableBound)
	}
}

// tableBytes is the heap t holds: its directory and its pages.
func tableBytes(t *table) int64 {
	n := int64(cap(t.pages))*8 + int64(cap(t.used))*2
	for _, pg := range t.pages {
		if pg != nil {
			n += pageSize * 8
		}
	}
	return n
}
