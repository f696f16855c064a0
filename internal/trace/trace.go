// Package trace records the provenance of the provenance index: for a
// sampled subset of ingested messages it captures the full decision a
// single Algorithm 1 application made — the summary-index candidate
// bundles with their Eq. 1 S(t,B) scores split per component, the
// winning bundle (or the new-bundle verdict with the margin it lost
// by), the Algorithm 2 parent choice with per-node Eq. 2–5 component
// scores, and the Table II connection type — plus an audit log of
// every Algorithm 3 refinement verdict with its Eq. 6 score and rank.
//
// The recorder is built for the ingest hot path: when disabled (nil
// recorder or SampleEvery <= 0) Begin is a single branch and allocates
// nothing (pinned by TestHotPathZeroAlloc); when enabled but the
// message is not sampled, the cost is one atomic increment and a
// modulo. Only sampled messages pay for a Decision allocation.
//
// Concurrency contract: every method is safe from any goroutine, so
// one recorder serves all the engines of a sharded node, whose commit
// goroutines run side by side — the sampler counter is atomic, and the
// ring buffers and lookup map are mutex-guarded, for them as for the
// HTTP handlers that call Explain/Recent/Refinements while ingest
// commits new records. A Decision belongs to the goroutine that began
// it until Commit, and is immutable afterwards — readers receive the
// shared pointer and must not mutate it.
package trace

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"provex/internal/metrics"
)

// CandidateScore is one Eq. 1 evaluation from the match stage: a
// summary-index candidate bundle with the score split into its
// URL / hashtag / keyword / RT / freshness components
// (Total = URL+Hashtag+Keyword+RT+Freshness: the score.BundleSim result
// the engine compared against the threshold, not a recomputation).
type CandidateScore struct {
	Bundle    uint64  `json:"bundle"`
	Hits      int     `json:"hits"` // summary-index indicant hits (fetch rank)
	URL       float64 `json:"url"`
	Hashtag   float64 `json:"hashtag"`
	Keyword   float64 `json:"keyword"`
	RT        float64 `json:"rt"`
	Freshness float64 `json:"freshness"`
	Total     float64 `json:"total"`
	// Skipped is non-empty when the candidate was fetched but never
	// scored: "evicted" (no longer in the pool), "closed", or "pruned"
	// (its Eq. 1 upper bound could not beat the running best, so the
	// match stage skipped the full scoring — DESIGN.md §2g).
	Skipped string `json:"skipped,omitempty"`
}

// ParentScore is one Algorithm 2 evaluation: an existing bundle node
// considered as the parent of the new message, with the Eq. 5 score
// split into its Eq. 2 (U), Eq. 3 (H), Eq. 4 (T), keyword and RT
// components and the Table II connection type of the would-be edge.
type ParentScore struct {
	Node    int     `json:"node"`
	MsgID   uint64  `json:"msg_id"`
	Conn    string  `json:"conn"`
	U       float64 `json:"u"`
	H       float64 `json:"h"`
	T       float64 `json:"t"`
	Keyword float64 `json:"keyword"`
	RT      float64 `json:"rt"`
	Total   float64 `json:"total"`
}

// Decision is the complete record of one sampled Algorithm 1
// application. Immutable once committed.
type Decision struct {
	Seq   uint64    `json:"seq"` // commit order, 1-based
	MsgID uint64    `json:"msg_id"`
	User  string    `json:"user"`
	Date  time.Time `json:"date"`

	// Match stage (Eq. 1). Candidates holds every fetched candidate in
	// summary-index order (hits desc, ID asc), including skipped ones,
	// so its length is CandidatesFetched. CandidatesPruned (derived at
	// Commit) counts the entries whose Skipped is "pruned": candidates
	// the upper bound eliminated before full Eq. 1 scoring.
	CandidatesFetched int              `json:"candidates_fetched"`
	CandidatesPruned  int              `json:"candidates_pruned"`
	Threshold         float64          `json:"threshold"`
	Candidates        []CandidateScore `json:"candidates"`

	// Verdict. For a join, Winner is the chosen bundle and Margin is
	// top1−top2 (top2 falls back to the threshold when only one
	// candidate scored). For a new bundle, Margin is threshold−best:
	// how far the best loser fell short (equal to the threshold itself
	// when nothing scored).
	NewBundle bool    `json:"new_bundle"`
	Bundle    uint64  `json:"bundle"` // where the message landed
	Winner    uint64  `json:"winner,omitempty"`
	BestScore float64 `json:"best_score"`
	Margin    float64 `json:"margin"`

	// Placement stage (Algorithm 2 / Eq. 5). Parents holds every node
	// the scan actually scored, in scan order (newest-first for the
	// time-bounded scan, ascending for the reference scan).
	// ParentsScored (derived at Commit) is len(Parents); ParentsPruned
	// is how many bundle nodes the scan skipped — nodes sharing no
	// indicant plus those older than the score bound's stop. The traced
	// and untraced paths run the identical scan and compare the
	// identical score, so the chosen Parent/Conn never depends on
	// whether the message was sampled.
	Parents       []ParentScore `json:"parent_scores,omitempty"`
	ParentsScored int           `json:"parents_scored"`
	ParentsPruned int           `json:"parents_pruned"`
	Node          int           `json:"node"`
	Parent        int           `json:"parent"` // -1 = trail root
	ParentScore   float64       `json:"parent_score"`
	Conn          string        `json:"conn"`
}

// RefineEvent is one Algorithm 3 eviction verdict.
type RefineEvent struct {
	Seq      uint64    `json:"seq"` // record order, 1-based
	Now      time.Time `json:"now"` // simulated clock of the refine pass
	Bundle   uint64    `json:"bundle"`
	Reason   string    `json:"reason"` // aging-tiny | closed | ranked
	Size     int       `json:"size"`
	AgeHours float64   `json:"age_hours"`
	GScore   float64   `json:"g_score"` // Eq. 6 G(B); the ranking key for "ranked"
	Rank     int       `json:"rank"`    // 1-based position in the G ranking; 0 for stage-one verdicts
	Flushed  bool      `json:"flushed"` // persisted to disk vs deleted outright
}

// Options configure a Recorder.
type Options struct {
	// SampleEvery records every Nth ingested message; 1 records all,
	// <= 0 disables decision sampling entirely (refinement events are
	// still recorded — they are rare and not on the per-message path).
	SampleEvery int
	// Buffer is how many decisions and how many refinement events are
	// retained (two independent rings); <= 0 uses 4096.
	Buffer int
	// Logger, when non-nil, receives one debug-level event per
	// committed decision and per refinement event.
	Logger *slog.Logger
}

// DefaultBuffer is the ring capacity when Options.Buffer is unset.
const DefaultBuffer = 4096

// Recorder is the sampled decision ring. The zero value is unusable;
// call New. A nil *Recorder is valid and permanently disabled, so
// callers may thread one pointer without guarding every call site.
type Recorder struct {
	sample int
	logger *slog.Logger

	count atomic.Uint64 // messages offered to the sampler

	decisionsTotal metrics.Counter
	refinesTotal   metrics.Counter

	mu        sync.Mutex
	decisions []*Decision          // ring; nil slots until first wrap; guarded by mu
	dNext     int                  // guarded by mu
	dSeq      uint64               // guarded by mu
	byMsg     map[uint64]*Decision // guarded by mu

	refines []RefineEvent // guarded by mu
	rNext   int           // guarded by mu
	rSeq    uint64        // guarded by mu
}

// New builds a Recorder. SampleEvery <= 0 yields a recorder that never
// samples decisions but still records refinement events.
func New(opts Options) *Recorder {
	buf := opts.Buffer
	if buf <= 0 {
		buf = DefaultBuffer
	}
	return &Recorder{
		sample:    opts.SampleEvery,
		logger:    opts.Logger,
		decisions: make([]*Decision, buf),
		byMsg:     make(map[uint64]*Decision, buf),
		refines:   make([]RefineEvent, buf),
	}
}

// SampleEvery returns the sampling period (0 when disabled).
func (r *Recorder) SampleEvery() int {
	if r == nil || r.sample <= 0 {
		return 0
	}
	return r.sample
}

// Buffer returns the ring capacity.
func (r *Recorder) Buffer() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decisions)
}

// RegisterMetrics exposes the recorder's counters on reg.
func (r *Recorder) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("provex_trace_decisions_total",
		"Sampled ingest decisions committed to the trace ring.", &r.decisionsTotal)
	reg.RegisterCounter("provex_trace_refine_events_total",
		"Algorithm 3 refinement events recorded in the audit ring.", &r.refinesTotal)
}

// Begin starts a Decision for the message about to be ingested, or
// returns nil when the message is not sampled. The unsampled path is
// the ingest hot path: it must stay allocation-free.
//
//provex:hotpath the disabled/unsampled branch runs for every message
func (r *Recorder) Begin(msgID uint64) *Decision {
	if r == nil || r.sample <= 0 {
		return nil
	}
	if r.count.Add(1)%uint64(r.sample) != 0 {
		return nil
	}
	//provlint:ignore hotpathalloc sampled slow path: 1-in-N messages deliberately pay for their Decision record
	return &Decision{MsgID: msgID, Parent: -1, Conn: "none"}
}

// Commit finalises d — computing the winning margin from the recorded
// candidate scores — and publishes it to the ring. d must not be
// mutated afterwards.
func (r *Recorder) Commit(d *Decision) {
	if r == nil || d == nil {
		return
	}
	d.ParentsScored = len(d.Parents)
	// top1/top2 over the candidates that were actually scored. The
	// engine only joins a bundle scoring strictly above the threshold,
	// so the threshold is the natural floor for both. Pruned candidates
	// are excluded by construction: their bound proves they could not
	// have reached top1, and for the join margin a pruned top2 can only
	// widen the reported margin, never flip the verdict.
	top1, top2 := d.Threshold, d.Threshold
	for i := range d.Candidates {
		c := &d.Candidates[i]
		if c.Skipped != "" {
			if c.Skipped == "pruned" {
				d.CandidatesPruned++
			}
			continue
		}
		switch {
		case c.Total > top1:
			top1, top2 = c.Total, top1
		case c.Total > top2:
			top2 = c.Total
		}
	}
	if d.NewBundle {
		// How far the best loser fell short of joining (the threshold
		// itself when no candidate was scored at all).
		best, scored := 0.0, false
		for i := range d.Candidates {
			c := &d.Candidates[i]
			if c.Skipped == "" && (!scored || c.Total > best) {
				best, scored = c.Total, true
			}
		}
		d.BestScore = best
		d.Margin = d.Threshold
		if scored {
			d.Margin = d.Threshold - best
		}
	} else {
		d.BestScore = top1
		d.Margin = top1 - top2
	}

	r.mu.Lock()
	r.dSeq++
	d.Seq = r.dSeq
	if old := r.decisions[r.dNext]; old != nil {
		delete(r.byMsg, old.MsgID)
	}
	r.decisions[r.dNext] = d
	r.byMsg[d.MsgID] = d
	r.dNext = (r.dNext + 1) % len(r.decisions)
	r.mu.Unlock()

	r.decisionsTotal.Inc()
	if r.logger != nil && r.logger.Enabled(context.Background(), slog.LevelDebug) {
		r.logger.Debug("ingest decision",
			"msg", d.MsgID, "bundle", d.Bundle, "new_bundle", d.NewBundle,
			"candidates", len(d.Candidates), "best", d.BestScore,
			"margin", d.Margin, "parent", d.Parent, "conn", d.Conn)
	}
}

// RecordRefine appends one Algorithm 3 eviction verdict to the audit
// ring. Unlike decisions, refinement events are never sampled — they
// happen at pool-refinement cadence, not per message.
func (r *Recorder) RecordRefine(ev RefineEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rSeq++
	ev.Seq = r.rSeq
	r.refines[r.rNext] = ev
	r.rNext = (r.rNext + 1) % len(r.refines)
	r.mu.Unlock()

	r.refinesTotal.Inc()
	if r.logger != nil && r.logger.Enabled(context.Background(), slog.LevelDebug) {
		r.logger.Debug("refine eviction",
			"bundle", ev.Bundle, "reason", ev.Reason, "size", ev.Size,
			"age_hours", ev.AgeHours, "g", ev.GScore, "rank", ev.Rank,
			"flushed", ev.Flushed)
	}
}

// Explain returns the recorded decision for msgID, or false when the
// message was not sampled or has rotated out of the ring.
func (r *Recorder) Explain(msgID uint64) (*Decision, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	d, ok := r.byMsg[msgID]
	r.mu.Unlock()
	return d, ok
}

// Recent returns up to n decisions, newest first.
func (r *Recorder) Recent(n int) []*Decision {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.decisions) {
		n = len(r.decisions)
	}
	out := make([]*Decision, 0, n)
	for i := 1; i <= len(r.decisions) && len(out) < n; i++ {
		d := r.decisions[(r.dNext-i+len(r.decisions))%len(r.decisions)]
		if d == nil {
			break
		}
		out = append(out, d)
	}
	return out
}

// Refinements returns up to n refinement events, newest first.
func (r *Recorder) Refinements(n int) []RefineEvent {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.refines) {
		n = len(r.refines)
	}
	out := make([]RefineEvent, 0, n)
	for i := 1; i <= len(r.refines) && len(out) < n; i++ {
		ev := r.refines[(r.rNext-i+len(r.refines))%len(r.refines)]
		if ev.Seq == 0 {
			break
		}
		out = append(out, ev)
	}
	return out
}

// Digest summarises decision quality over a set of decisions: how often
// the stream opened a new bundle, how decisively joins won, and how
// often the match was a near-tie (margin below NearTie — the decisions
// most sensitive to weight tuning).
type Digest struct {
	Decisions     int     `json:"decisions"`
	NewBundleRate float64 `json:"new_bundle_rate"`
	MeanMargin    float64 `json:"mean_winning_margin"`
	NearTieRate   float64 `json:"near_tie_rate"`
	NearTie       float64 `json:"near_tie_threshold"`
}

// DefaultNearTie is the margin below which a join counts as a near-tie.
const DefaultNearTie = 0.05

// ComputeDigest aggregates ds. nearTie <= 0 uses DefaultNearTie.
func ComputeDigest(ds []*Decision, nearTie float64) Digest {
	if nearTie <= 0 {
		nearTie = DefaultNearTie
	}
	g := Digest{Decisions: len(ds), NearTie: nearTie}
	if len(ds) == 0 {
		return g
	}
	newBundles, joins, ties := 0, 0, 0
	marginSum := 0.0
	for _, d := range ds {
		if d.NewBundle {
			newBundles++
			continue
		}
		joins++
		marginSum += d.Margin
		if d.Margin < nearTie {
			ties++
		}
	}
	g.NewBundleRate = float64(newBundles) / float64(len(ds))
	if joins > 0 {
		g.MeanMargin = marginSum / float64(joins)
		g.NearTieRate = float64(ties) / float64(joins)
	}
	return g
}
