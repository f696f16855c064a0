package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"provex/internal/gen"
)

//go:embed recipes/*.json
var recipeFS embed.FS

// recipe is one named input stream: the gen.Config that synthesises it,
// the phase sizes every workload on it runs, and the Fig. 6 shape
// invariants each workload's final /stats must satisfy.
type recipe struct {
	Name   string    `json:"name"`
	Why    string    `json:"why"`
	Gen    genRecipe `json:"gen"`
	Phases phases    `json:"phases"`
	// PinnedSeed is the seed at which Expect's exact counts were taken.
	PinnedSeed int64 `json:"pinned_seed"`
	// Expect is keyed by workload name.
	Expect map[string]expect `json:"expect"`
}

// genRecipe is gen.Config in a JSON-friendly spelling (RFC 3339 time,
// Go duration strings). The seed is not part of a recipe: it comes from
// -seed.
type genRecipe struct {
	Start         string       `json:"start"`
	MsgsPerDay    int          `json:"msgs_per_day"`
	Users         int          `json:"users"`
	VocabSize     int          `json:"vocab_size"`
	NoiseRatio    float64      `json:"noise_ratio"`
	EventsPerDay  float64      `json:"events_per_day"`
	EventHalfLife string       `json:"event_half_life"`
	RTProb        float64      `json:"rt_prob"`
	URLProb       float64      `json:"url_prob"`
	Scripts       []scriptJSON `json:"scripts"`
}

type scriptJSON struct {
	Name     string   `json:"name"`
	Hashtags []string `json:"hashtags"`
	Topic    []string `json:"topic"`
	URLs     int      `json:"urls"`
	Start    string   `json:"start"`
	HalfLife string   `json:"half_life"`
	Weight   float64  `json:"weight"`
}

// phases sizes the four phases at the nominal run length. Every count
// scales linearly with -seconds / NominalSeconds; the pacing rate, tick
// and think time do not.
type phases struct {
	NominalSeconds int `json:"nominal_seconds"`
	SetupMsgs      int `json:"setup_msgs"`
	DrainMsgs      int `json:"drain_msgs"`
	ServeMsgs      int `json:"serve_msgs"`
	ServeRatePerS  int `json:"serve_rate_per_s"`
	ServeTickMs    int `json:"serve_tick_ms"`
	Queries        int `json:"queries"`
	ThinkMs        int `json:"think_ms"`
	WarmupProv     int `json:"warmup_prov"`
}

// expect is the shape a workload's final /stats must have. The band
// holds at every seed; BundlesCreated and Edges are exact at
// (PinnedSeed, nominal seconds) and 0 when not pinned.
type expect struct {
	BundlesPerMsgMin float64 `json:"bundles_per_msg_min"`
	BundlesPerMsgMax float64 `json:"bundles_per_msg_max"`
	BundlesCreated   int64   `json:"bundles_created"`
	Edges            int64   `json:"edges"`
}

func loadRecipe(name string) (*recipe, error) {
	raw, err := recipeFS.ReadFile("recipes/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("recipe %s: %w", name, err)
	}
	var r recipe
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("recipe %s: %w", name, err)
	}
	if r.Name != name {
		return nil, fmt.Errorf("recipe %s: file names itself %q", name, r.Name)
	}
	return &r, nil
}

// genConfig turns the recipe into the generator's config at seed.
func (r *recipe) genConfig(seed int64) (gen.Config, error) {
	g := r.Gen
	start, err := time.Parse(time.RFC3339, g.Start)
	if err != nil {
		return gen.Config{}, fmt.Errorf("recipe %s: start: %w", r.Name, err)
	}
	halfLife, err := time.ParseDuration(g.EventHalfLife)
	if err != nil {
		return gen.Config{}, fmt.Errorf("recipe %s: event_half_life: %w", r.Name, err)
	}
	cfg := gen.Config{
		Seed:          seed,
		Start:         start,
		MsgsPerDay:    g.MsgsPerDay,
		Users:         g.Users,
		VocabSize:     g.VocabSize,
		NoiseRatio:    g.NoiseRatio,
		EventsPerDay:  g.EventsPerDay,
		EventHalfLife: halfLife,
		RTProb:        g.RTProb,
		URLProb:       g.URLProb,
	}
	for _, s := range g.Scripts {
		at, err := time.ParseDuration(s.Start)
		if err != nil {
			return gen.Config{}, fmt.Errorf("recipe %s: script %q start: %w", r.Name, s.Name, err)
		}
		hl, err := time.ParseDuration(s.HalfLife)
		if err != nil {
			return gen.Config{}, fmt.Errorf("recipe %s: script %q half_life: %w", r.Name, s.Name, err)
		}
		cfg.Scripts = append(cfg.Scripts, gen.EventScript{
			Name: s.Name, Hashtags: s.Hashtags, Topic: s.Topic, URLs: s.URLs,
			Start: at, HalfLife: hl, Weight: s.Weight,
		})
	}
	return cfg, nil
}

// plan is a recipe's phases scaled to one run length.
type plan struct {
	setup, drain, serve int // messages per phase
	queries, warmup     int
	rate                int           // serve-phase feed rate, msgs/s
	tick                time.Duration // serve-phase feed granularity
	think               time.Duration // closed-loop client think time
	nominal             bool          // true at the calibrated run length
}

func (pl plan) total() int { return pl.setup + pl.drain + pl.serve }

// scaled sizes the phases for a run of the given length. Only the
// nominal length is calibrated (phase ≥ 4 s, checkpoints at 50k and
// 100k inside drain); shorter runs exist for the tests.
func (p phases) scaled(seconds int) plan {
	f := float64(seconds) / float64(p.NominalSeconds)
	n := func(v int) int { return max(1, int(math.Round(float64(v)*f))) }
	return plan{
		setup: n(p.SetupMsgs), drain: n(p.DrainMsgs), serve: n(p.ServeMsgs),
		queries: n(p.Queries), warmup: n(p.WarmupProv),
		rate:    p.ServeRatePerS,
		tick:    time.Duration(p.ServeTickMs) * time.Millisecond,
		think:   time.Duration(p.ThinkMs) * time.Millisecond,
		nominal: seconds == p.NominalSeconds,
	}
}
