package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"provex/internal/tweet"
)

// Config parameterises the synthetic stream. The zero value is unusable;
// start from DefaultConfig and override.
type Config struct {
	Seed  int64     // RNG seed; equal seeds give byte-identical streams
	Start time.Time // date of the first message

	MsgsPerDay int // mean message arrival rate (paper's crawl: ~70k/day)
	Users      int // user population; activity is Zipf-distributed
	VocabSize  int // background vocabulary size

	// NoiseRatio is the fraction of messages that are short topical-free
	// chatter ("ugh #redsox", "unbelievable!!") — Figure 1's noise.
	NoiseRatio float64

	// EventsPerDay controls how many fresh topical events spawn per
	// simulated day. Together with EventHalfLife it shapes the
	// bundle-size distribution (Figure 6a).
	EventsPerDay  float64
	EventHalfLife time.Duration // mean intensity half-life of an event

	RTProb  float64 // probability an event message re-shares a prior one
	URLProb float64 // probability an event message carries a short link

	// Scripts optionally pins named events (Figure 10 showcases).
	Scripts []EventScript
}

// DefaultConfig mirrors the paper's dataset shape at configurable scale:
// ~70k messages/day, heavy-tailed user activity, ~2.2k events/day which
// yields the ~30k bundles per 700k messages reported in Section V-A.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Start:         time.Date(2009, 8, 1, 0, 0, 0, 0, time.UTC),
		MsgsPerDay:    70000,
		Users:         50000,
		VocabSize:     8000,
		NoiseRatio:    0.35,
		EventsPerDay:  2200,
		EventHalfLife: 8 * time.Hour,
		RTProb:        0.25,
		URLProb:       0.30,
	}
}

// Generator produces a temporally ordered micro-blog message stream.
// It is an iterator: Next returns one message at a time so multi-million
// message streams never need to be resident at once. Not safe for
// concurrent use.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	vocab *vocab

	userZipf *rand.Zipf

	clock     time.Time
	nextID    tweet.ID
	eventSeq  uint64
	urlSeq    uint64
	active    []*event
	scripts   []*scripted // pending, sorted by start
	spawnDebt float64
	produced  uint64

	// tagSeq disambiguates hashtags across events so two unrelated
	// events do not collide on a tag.
	tagSeq uint64

	// cum caches cumulative event intensities so chooseEvent samples
	// by binary search instead of recomputing every event's decay
	// curve per message. Intensities drift on the scale of hours, so a
	// cache refreshed every few simulated minutes is indistinguishable
	// statistically and turns generation from O(active events) of
	// exp() per message into O(log active).
	cum   []float64
	cumAt time.Time
}

// New returns a Generator for cfg.
func New(cfg Config) *Generator {
	if cfg.MsgsPerDay <= 0 {
		cfg.MsgsPerDay = 1000
	}
	if cfg.Users <= 0 {
		cfg.Users = 100
	}
	if cfg.VocabSize <= 0 {
		cfg.VocabSize = 2000
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2009, 8, 1, 0, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		cfg:      cfg,
		rng:      rng,
		vocab:    newVocab(cfg.VocabSize, rng),
		userZipf: rand.NewZipf(rng, 1.2, 2.0, uint64(cfg.Users-1)),
		clock:    cfg.Start,
		nextID:   1,
	}
	for _, s := range cfg.Scripts {
		g.scripts = append(g.scripts, newScripted(s, cfg.Start, g))
	}
	return g
}

func (g *Generator) nextEventID() uint64 { g.eventSeq++; return g.eventSeq }
func (g *Generator) nextURL() uint64     { g.urlSeq++; return g.urlSeq }

// Next generates the next message in date order.
func (g *Generator) Next() *tweet.Message {
	// Advance the clock by an exponential inter-arrival gap.
	ratePerSec := float64(g.cfg.MsgsPerDay) / 86400.0
	gap := g.rng.ExpFloat64() / ratePerSec
	g.clock = g.clock.Add(time.Duration(gap * float64(time.Second)))

	g.admitScripted()
	g.spawnEvents(gap)
	if g.produced%512 == 0 {
		g.pruneEvents()
	}

	var m *tweet.Message
	ev := g.chooseEvent()
	if ev != nil && g.rng.Float64() >= g.cfg.NoiseRatio {
		m = g.eventMessage(ev)
	} else {
		m = g.noiseMessage(ev)
	}
	g.produced++
	return m
}

// Generate is a convenience that materialises n messages.
func (g *Generator) Generate(n int) []*tweet.Message {
	out := make([]*tweet.Message, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// admitScripted moves scripted events whose start time has arrived into
// the active set.
func (g *Generator) admitScripted() {
	for len(g.scripts) > 0 && !g.scripts[0].birth.After(g.clock) {
		g.active = append(g.active, &g.scripts[0].event)
		// Scripted events with a fixed message budget die via posted
		// count; wire that through the shared prune path by shrinking
		// half-life when exhausted (see pruneEvents).
		g.scripts = g.scripts[1:]
	}
}

// spawnEvents probabilistically creates new organic events for the
// elapsed wall-clock gap.
func (g *Generator) spawnEvents(gapSeconds float64) {
	g.spawnDebt += g.cfg.EventsPerDay * gapSeconds / 86400.0
	for g.spawnDebt >= 1 {
		g.spawnDebt--
		g.active = append(g.active, g.organicEvent())
	}
	if g.spawnDebt > 0 && g.rng.Float64() < g.spawnDebt {
		g.spawnDebt = 0
		g.active = append(g.active, g.organicEvent())
	}
}

// organicEvent mints a fresh event with its own hashtags, links and
// topical vocabulary. Event weight is heavy-tailed (Pareto-ish) so a few
// events become the huge bundles of Figure 6(a)'s tail.
func (g *Generator) organicEvent() *event {
	g.tagSeq++
	nTags := 1 + g.rng.Intn(3)
	tags := make([]string, 0, nTags)
	for _, w := range g.vocab.sampleTail(nTags, g.rng) {
		// Suffix a sequence mark on all but the first tag occurrence so
		// different events get distinct tag identities even when their
		// base word collides.
		tags = append(tags, fmt.Sprintf("%s%d", w, g.tagSeq%997))
	}
	halfLife := g.cfg.EventHalfLife
	if halfLife <= 0 {
		halfLife = 8 * time.Hour
	}
	// Jitter half-life ×[0.25, 2.5).
	halfLife = time.Duration(float64(halfLife) * (0.25 + 2.25*g.rng.Float64()))
	// Pareto weight: P(w > x) ~ x^-1.5, min 0.2.
	weight := 0.2 / math.Pow(math.Max(g.rng.Float64(), 1e-9), 1/1.5)
	if weight > 60 {
		weight = 60
	}
	ev := &event{
		id:       g.nextEventID(),
		hashtags: tags,
		topic:    g.vocab.sampleTail(4+g.rng.Intn(8), g.rng),
		birth:    g.clock,
		halfLife: halfLife,
		weight:   weight,
	}
	nURLs := g.rng.Intn(4)
	for i := 0; i < nURLs; i++ {
		ev.urls = append(ev.urls, shortURL(g.rng, g.nextURL()))
	}
	return ev
}

// intensityRefresh is the simulated-time staleness bound of the
// cumulative intensity cache.
const intensityRefresh = 5 * time.Minute

// refreshIntensity rebuilds the cumulative intensity cache at the
// current clock.
func (g *Generator) refreshIntensity() {
	g.cum = g.cum[:0]
	var total float64
	for _, ev := range g.active {
		total += ev.intensity(g.clock)
		g.cum = append(g.cum, total)
	}
	g.cumAt = g.clock
}

// chooseEvent samples an active event proportionally to (cached)
// intensity; nil when no event is live.
func (g *Generator) chooseEvent() *event {
	if len(g.active) == 0 {
		return nil
	}
	if len(g.cum) != len(g.active) || g.clock.Sub(g.cumAt) > intensityRefresh {
		g.refreshIntensity()
	}
	total := g.cum[len(g.cum)-1]
	if total <= 0 {
		return nil
	}
	r := g.rng.Float64() * total
	i := sort.SearchFloat64s(g.cum, r)
	if i >= len(g.active) {
		i = len(g.active) - 1
	}
	return g.active[i]
}

// pruneEvents drops dead events from the active set.
func (g *Generator) pruneEvents() {
	live := g.active[:0]
	for _, ev := range g.active {
		if !ev.dead(g.clock) {
			live = append(live, ev)
		}
	}
	// Zero the tail so dropped events are collectable.
	for i := len(live); i < len(g.active); i++ {
		g.active[i] = nil
	}
	g.active = live
	g.cum = g.cum[:0] // force a cache rebuild on next choose
}

// eventMessage composes one message for event ev: either a re-share of a
// reservoir message or an original post carrying the event's indicants.
func (g *Generator) eventMessage(ev *event) *tweet.Message {
	user := g.pickUser()
	var text string
	if prev := ev.pickRT(g.rng); prev != nil && g.rng.Float64() < g.cfg.RTProb {
		text = g.composeRT(prev)
	} else {
		text = g.composeOriginal(ev)
	}
	m := tweet.Parse(g.allocID(), user, g.clock, text)
	ev.posted++
	ev.remember(m, g.rng)
	return m
}

// composeOriginal builds event text: topical words, hashtags with high
// probability, occasionally a shared link.
func (g *Generator) composeOriginal(ev *event) string {
	var b strings.Builder
	nWords := 3 + g.rng.Intn(6)
	for i := 0; i < nWords; i++ {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if len(ev.topic) > 0 && g.rng.Float64() < 0.55 {
			b.WriteString(ev.topic[g.rng.Intn(len(ev.topic))])
		} else {
			b.WriteString(g.vocab.sample())
		}
	}
	for _, tag := range ev.hashtags {
		if g.rng.Float64() < 0.65 {
			b.WriteString(" #")
			b.WriteString(tag)
		}
	}
	// Guarantee at least one event indicant so the message is routable.
	if !strings.Contains(b.String(), "#") && len(ev.hashtags) > 0 {
		b.WriteString(" #")
		b.WriteString(ev.hashtags[g.rng.Intn(len(ev.hashtags))])
	}
	if len(ev.urls) > 0 && g.rng.Float64() < g.cfg.URLProb {
		b.WriteString(" http://")
		b.WriteString(ev.urls[g.rng.Intn(len(ev.urls))])
	}
	return clampText(b.String())
}

// composeRT re-shares prev, optionally prefixing a short comment —
// exactly the Table I "Classy. Way it should be RT @AmalieBenjamin: ..."
// shape.
func (g *Generator) composeRT(prev *tweet.Message) string {
	var b strings.Builder
	if g.rng.Float64() < 0.5 {
		b.WriteString(g.vocab.sample())
		if g.rng.Float64() < 0.4 {
			b.WriteByte(' ')
			b.WriteString(g.vocab.sample())
		}
		b.WriteByte(' ')
	}
	b.WriteString("RT @")
	b.WriteString(prev.User)
	b.WriteString(": ")
	b.WriteString(prev.Text)
	return clampText(b.String())
}

// noiseMessage emits short chatter: interjections, a couple of common
// words, and — like the "ugh #redsox" fragments of the paper's
// Figure 1 — a live event's hashtag about 40% of the time when an
// event is running.
func (g *Generator) noiseMessage(ev *event) *tweet.Message {
	interjections := []string{
		"ugh", "argh", "sigh", "wow", "unbelievable!!", "omg", "lol",
		"so tired", "great day", "can't believe it", "finally", "whew!!",
	}
	var b strings.Builder
	b.WriteString(interjections[g.rng.Intn(len(interjections))])
	n := g.rng.Intn(4)
	for i := 0; i < n; i++ {
		b.WriteByte(' ')
		b.WriteString(g.vocab.sample())
	}
	if ev != nil && len(ev.hashtags) > 0 && g.rng.Float64() < 0.4 {
		b.WriteString(" #")
		b.WriteString(ev.hashtags[g.rng.Intn(len(ev.hashtags))])
	}
	return tweet.Parse(g.allocID(), g.pickUser(), g.clock, clampText(b.String()))
}

func (g *Generator) allocID() tweet.ID {
	id := g.nextID
	g.nextID++
	return id
}

// pickUser samples a user name with Zipf-distributed activity —
// a small core of prolific accounts plus a long tail, like the
// paper's crawl.
func (g *Generator) pickUser() string {
	return fmt.Sprintf("user%d", g.userZipf.Uint64())
}

// clampText enforces the classic 140-character limit without splitting
// a trailing word.
func clampText(s string) string {
	if len(s) <= tweet.MaxTextLen {
		return s
	}
	s = s[:tweet.MaxTextLen]
	if i := strings.LastIndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	return s
}
