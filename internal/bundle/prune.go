// Pruned Algorithm 2: the sublinear message-placement path.
//
// The exhaustive reference (AddExhaustive) scores every node of the
// bundle with Eq. 5, which makes placement cost grow with bundle size
// and the Figure 13 placement curve quadratic in the stream. The
// pruned scan exploits two facts (DESIGN.md §2g):
//
//  1. A node can be a parent only if Classify(node, doc) != ConnNone,
//     i.e. only if it shares at least one URL, hashtag or keyword with
//     the incoming message, or is authored by the re-shared user. The
//     bundle's node indexes (term → node ids, maintained in absorb)
//     enumerate exactly this candidate set — no connected node is ever
//     missed, so the pruning is lossless, not approximate.
//  2. The paper feeds Algorithm 1 a temporally ordered stream, so node
//     id order is message-date order and Eq. 4 decays monotonically
//     down the node list: everything older than a node is bounded by
//     that node's time term plus the class weights still reachable.
//
// addPrunedTime merges the message's posting lists newest-first and
// stops once the running best exceeds the decaying ceiling of
// everything older, so mega-bundle inserts touch only a recent time
// window rather than every matching node. It is the only scan besides
// the reference: a bundle too small for the node indexes to pay, or
// one whose nodes are not in date order (a re-fed or merged stream),
// is placed by the reference scan itself. Identity between the two is
// preserved by an order-independent replacement rule and a
// strict-inequality stop rule, pinned by the differential tests in
// prune_test.go and internal/core/differential_test.go.
package bundle

import "provex/internal/score"

// PruneMinNodes is the bundle size below which AddScratch takes the
// exhaustive path: for a handful of nodes the direct Eq. 5 scan is
// cheaper than merging the node indexes.
const PruneMinNodes = 16

// Indicant-class mask bits of a candidate node, set from the merge
// cursors sitting on it. The mask doubles as the Table II connection
// type (connFromMask) because each bit is set exactly when the
// corresponding Classify clause holds.
const (
	maskURL uint8 = 1 << iota
	maskTag
	maskKey
	maskRT
)

// connFromMask maps a candidate's indicant-class mask to the Table II
// connection type, replicating Classify's priority order
// RT > URL > Hashtag > Text. Valid for non-zero masks only.
func connFromMask(m uint8) score.ConnectionType {
	switch {
	case m&maskRT != 0:
		return score.ConnRT
	case m&maskURL != 0:
		return score.ConnURL
	case m&maskTag != 0:
		return score.ConnHashtag
	default:
		return score.ConnText
	}
}

// PlaceStats reports how much Eq. 5 work one placement did and how much
// the pruning avoided. Skipped() is the headline number: nodes the
// exhaustive path would have visited but the pruned path did not.
type PlaceStats struct {
	Nodes      int  // bundle size before the insert
	Candidates int  // indicant-sharing nodes the scan visited
	Scored     int  // candidates actually scored with Eq. 5
	EarlyStop  bool // a score bound ended the scan before the candidates ran out
	Exhaustive bool // the reference scan placed it (small or out-of-order bundle)
}

// Skipped returns how many nodes the placement avoided visiting
// relative to the exhaustive scan (index pruning + bound early stop).
func (ps PlaceStats) Skipped() int { return ps.Nodes - ps.Scored }

// Scratch is the reusable state of the time-bounded placement scan:
// one posting-list cursor per indicant occurrence of the message being
// placed, plus the active-cursor index sorted by frontier. One Scratch
// serves any number of bundles sequentially (the engine owns a single
// instance for its whole lifetime); it must not be shared between
// goroutines.
type Scratch struct {
	lists []mergeList
	act   []int32
}

// mergeList is one posting-list cursor of the descending-id merge: ids
// is a node index entry (ascending ids), pos the current position
// (consumed tail-first), bit the indicant class the list represents,
// wc the list's clamped ceiling contribution (class weight / message
// occurrence count — the most this list can add to any node's Eq. 5
// score).
type mergeList struct {
	ids []int32
	pos int
	bit uint8
	wc  float64
}

// frontier is the newest node id the cursor has not consumed. Valid
// only while pos >= 0.
func (l *mergeList) frontier() int32 { return l.ids[l.pos] }

// NewScratch returns an empty Scratch; the cursor slices grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

// AddScratch is Add with an observer, caller-provided scratch and work
// stats: the engine passes its shared Scratch so placement allocates
// nothing at steady state. sc == nil (tests, provops merges) uses a
// throwaway one; obs may be nil. A bundle below PruneMinNodes, or one whose
// nodes are not in date order, is placed by the reference scan; the
// chosen parent, its score, and the connection type are identical to
// AddExhaustive for every input either way — see the package comment
// and the differential tests.
func (b *Bundle) AddScratch(w score.MessageWeights, doc score.Doc, obs ParentObserver, sc *Scratch) (int, PlaceStats) {
	if len(b.nodes) < PruneMinNodes || !b.timeOrdered {
		return b.addExhaustive(w, doc, obs)
	}
	if sc == nil {
		sc = NewScratch()
	}
	return b.addPrunedTime(w, doc, obs, sc)
}

// clampPos is the bound-side weight clamp: a negative weight
// contributes at most 0 to any score, so its ceiling is 0.
func clampPos(w float64) float64 {
	if w > 0 {
		return w
	}
	return 0
}

// searchLE returns the rightmost index of ids (ascending) whose value
// is at most v, or -1 when every id exceeds v. Hand-rolled binary
// search: the sort.Search closure would allocate on the hot path.
func searchLE(ids []int32, v int32) int {
	lo, hi := 0, len(ids)-1
	res := -1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] <= v {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// addPrunedTime is the time-bounded Algorithm 2 scan, used whenever the
// bundle's nodes are in message-date order (the streaming case — see
// Bundle.timeOrdered). Walking every posting-list entry to collect the
// candidate set would still cost O(matching nodes) per insert, which
// goes quadratic inside mega-bundles whose hot indicants match most
// nodes; this scan instead consumes the message's posting lists
// newest-first as a WAND-style descending-id merge: cursors are ordered
// by frontier (newest unconsumed node), a pivot is the newest node whose
// reachable score ceiling can still match the running best, everything
// newer than the pivot is skipped in bulk by binary search, and the
// whole scan stops once even the sum of all remaining ceilings decays
// below best — typically after a bounded recent time window,
// independent of bundle size. Dense posting lists of hot terms (the
// mega-bundle killer) are jumped over in O(log n) per scored candidate
// instead of popped one node at a time.
//
// Three facts make the scan exact rather than approximate:
//
//  1. The per-class hit counts at a merge pivot ARE the Eq. 2–4
//     numerators: one cursor is opened per indicant occurrence of the
//     incoming message, and node membership in urlNodes[u] is
//     equivalent to "u ∈ node's URLs", so the number of cursors sitting
//     on a node equals overlap() exactly (duplicate occurrences open
//     duplicate cursors that advance in lockstep, matching overlap's
//     per-occurrence counting). Each popped node is therefore scored
//     with bit-identical Eq. 5 arithmetic — same divisions, same
//     association order as score.MessageSim — in O(cursors), without
//     touching the node's own term sets.
//  2. Node id order is message-date order, and Eq. 4 decays
//     monotonically with the gap, so for every unconsumed node the time
//     term is bounded by the head frontier's (when the incoming message
//     is not older than that node; otherwise by w.Time·1).
//  3. A node can only appear in lists whose frontier is at or above it
//     (remaining ids never exceed the frontier). With cursors sorted by
//     frontier newest-first, a node above the pivot lies in a strict
//     prefix of the cursor order whose summed ceiling contributions
//     (clamped class weight / occurrence count each) fall short of
//     best − timeCeil − BoundSlop — that is what made the pivot land
//     further down — so its full Eq. 5 score is strictly below best and
//     skipping it can change neither the winner nor a tie.
//
// Identity argument: the reference loop visits nodes in ascending id
// and replaces its best on s > best, or on s == best while no parent is
// chosen yet — which makes its final parent the LOWEST id attaining
// max(0, max over connected nodes of Eq. 5), or NoParent when every
// connected node scores negative. The rule below —
//
//	s > best || (s == best && (parent == NoParent || id < parent))
//
// converges to exactly that winner under ANY visit order, so visiting
// newest-first cannot change the outcome. The stop rule is a strict
// comparison: the scan ends only when best > ceiling + BoundSlop, so a
// skipped node can neither beat best (ceiling ≥ its score) nor tie it.
// Differential tests pin both properties.
//
//provex:hotpath Algorithm 2 per-message placement scan (time-ordered)
func (b *Bundle) addPrunedTime(w score.MessageWeights, doc score.Doc, obs ParentObserver, sc *Scratch) (int, PlaceStats) {
	if b.closed {
		panic("bundle: Add to closed bundle")
	}
	m := doc.Msg
	nU, nH, nK := len(m.URLs), len(m.Hashtags), len(doc.Keywords)
	wuPos, whPos, wkPos := clampPos(w.URL), clampPos(w.Tag), clampPos(w.Keyword)
	wrPos, wtPos := clampPos(w.RT), clampPos(w.Time)
	sc.lists = sc.lists[:0]
	for _, u := range m.URLs {
		if l := b.nodesWith(classURL, u); len(l) > 0 {
			sc.lists = append(sc.lists, mergeList{ids: l, pos: len(l) - 1, bit: maskURL, wc: wuPos / float64(nU)})
		}
	}
	for _, h := range m.Hashtags {
		if l := b.nodesWith(classTag, h); len(l) > 0 {
			sc.lists = append(sc.lists, mergeList{ids: l, pos: len(l) - 1, bit: maskTag, wc: whPos / float64(nH)})
		}
	}
	for _, k := range doc.Keywords {
		if l := b.nodesWith(classKey, k); len(l) > 0 {
			sc.lists = append(sc.lists, mergeList{ids: l, pos: len(l) - 1, bit: maskKey, wc: wkPos / float64(nK)})
		}
	}
	if m.IsRT() {
		if l := b.nodesWith(classUser, m.RTOf); len(l) > 0 {
			sc.lists = append(sc.lists, mergeList{ids: l, pos: len(l) - 1, bit: maskRT, wc: wrPos})
		}
	}

	stats := PlaceStats{Nodes: len(b.nodes)}
	parent := NoParent
	best := 0.0
	conn := score.ConnNone
	for {
		// Order the active cursors by frontier, newest first. Rebuilt
		// every round by insertion sort: frontiers only move down, so
		// the previous round's order is nearly correct and the sort is
		// ~linear in the (small) cursor count.
		sc.act = sc.act[:0]
		for i := range sc.lists {
			if sc.lists[i].pos < 0 {
				continue
			}
			f := sc.lists[i].frontier()
			j := len(sc.act)
			sc.act = append(sc.act, 0)
			for j > 0 && sc.lists[sc.act[j-1]].frontier() < f {
				sc.act[j] = sc.act[j-1]
				j--
			}
			sc.act[j] = int32(i)
		}
		if len(sc.act) == 0 {
			break
		}
		head := sc.lists[sc.act[0]].frontier()
		earlier := b.nodes[head].Doc
		nodeT := score.T(earlier.Msg, m)

		// Time ceiling over every unconsumed node. An incoming message
		// older than the head frontier (only possible in a bundle that
		// later turns out-of-order mid-call — absorb hasn't run yet)
		// voids the decay argument, so it falls back to the global
		// maximum of 1.
		tCeil := 1.0
		if !m.Date.Before(earlier.Msg.Date) {
			tCeil = nodeT
		}

		// Pivot selection: walk cursors newest-first accumulating their
		// ceiling contributions until best becomes reachable. The first
		// crossing cursor's frontier is the newest node that could still
		// win or tie; everything above it cannot (fact 3).
		rem := best - wtPos*tCeil - score.BoundSlop
		cum := 0.0
		pj := -1
		for i, li := range sc.act {
			cum += sc.lists[li].wc
			if cum >= rem {
				pj = i
				break
			}
		}
		if pj < 0 {
			// Even all cursors together no longer reach best: every
			// older node is out.
			stats.EarlyStop = true
			break
		}
		pivot := sc.lists[sc.act[pj]].frontier()
		if head != pivot {
			// Bulk skip: advance every cursor sitting above the pivot
			// down to it (or past it, to its newest id ≤ pivot). The
			// skipped nodes are exactly those proven unable to win.
			for _, li := range sc.act[:pj] {
				l := &sc.lists[li]
				l.pos = searchLE(l.ids[:l.pos+1], pivot)
			}
			continue
		}

		// Pop: the cursors on the pivot are the leading equal-frontier
		// run of the order; their per-class counts are the exact
		// Eq. 2–4 numerators. Advance them.
		var cU, cH, cK int
		rtHit := false
		for _, li := range sc.act {
			l := &sc.lists[li]
			if l.frontier() != pivot {
				break
			}
			switch l.bit {
			case maskURL:
				cU++
			case maskTag:
				cH++
			case maskKey:
				cK++
			default:
				rtHit = true
			}
			l.pos--
		}

		// Eq. 5 from the counts, term for term and in the same
		// association order as score.MessageSim, so the result is
		// bit-identical to the exhaustive path's.
		var p score.MessageSimParts
		if nU > 0 {
			p.U = w.URL * (float64(cU) / float64(nU))
		}
		if nH > 0 {
			p.H = w.Tag * (float64(cH) / float64(nH))
		}
		if nK > 0 {
			p.Keyword = w.Keyword * (float64(cK) / float64(nK))
		}
		p.T = w.Time * nodeT
		p.Total = p.U + p.H + p.T + p.Keyword
		if rtHit {
			p.RT = w.RT
			p.Total += w.RT
		}
		stats.Candidates++
		stats.Scored++

		msk := uint8(0)
		if cU > 0 {
			msk |= maskURL
		}
		if cH > 0 {
			msk |= maskTag
		}
		if cK > 0 {
			msk |= maskKey
		}
		if rtHit {
			msk |= maskRT
		}
		if obs != nil {
			obs(ParentCandidate{Node: int(pivot), Msg: earlier.Msg.ID, Conn: connFromMask(msk), Parts: p})
		}
		if s := p.Total; s > best || (s == best && (parent == NoParent || pivot < parent)) {
			best, parent, conn = s, pivot, connFromMask(msk)
		}
	}

	node := Node{Doc: doc, Parent: parent, Score: best, Conn: conn}
	b.nodes = append(b.nodes, node)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}
