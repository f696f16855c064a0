// Pruned Algorithm 2: the sublinear message-placement path.
//
// The exhaustive reference (AddExhaustive) scores every node of the
// bundle with Eq. 5, which makes placement cost grow with bundle size
// and the Figure 13 placement curve quadratic in the stream. The
// pruned path exploits two facts (DESIGN.md §2g):
//
//  1. A node can be a parent only if Classify(node, doc) != ConnNone,
//     i.e. only if it shares at least one URL, hashtag or keyword with
//     the incoming message, or is authored by the re-shared user. The
//     bundle's node indexes (term → node ids, maintained in absorb)
//     enumerate exactly this candidate set — no connected node is ever
//     missed, so the pruning is lossless, not approximate.
//  2. While collecting candidates we learn each node's indicant-class
//     mask (which of URL/tag/keyword/RT it shares). The mask yields a
//     score upper bound (score.MessageSimCeil); scanning mask groups in
//     descending bound order lets the scan stop as soon as the running
//     best strictly exceeds every remaining group's bound.
//
// Two pruned scans implement this. addPrunedTime — the streaming hot
// path, valid whenever nodes are in message-date order — merges the
// message's posting lists newest-first and stops once the running best
// exceeds the decaying ceiling of everything older, so mega-bundle
// inserts touch only a recent time window rather than every matching
// node. addPruned — the order-agnostic fallback — collects the full
// candidate set and scans mask groups bound-first. Identity with the
// exhaustive path is preserved in both by an order-independent
// replacement rule and strict-inequality stop rules, pinned by the
// differential tests in prune_test.go and
// internal/core/differential_test.go.
package bundle

import "provex/internal/score"

// PruneMinNodes is the bundle size below which AddScratch takes the
// exhaustive path: for a handful of nodes the direct Eq. 5 scan is
// cheaper than walking the node indexes and grouping candidates.
const PruneMinNodes = 16

// Indicant-class mask bits of a candidate node, set while walking the
// node indexes. The mask doubles as the Table II connection type
// (connFromMask) because each bit is set exactly when the
// corresponding Classify clause holds.
const (
	maskURL uint8 = 1 << iota
	maskTag
	maskKey
	maskRT
	numMasks = 16
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
	Exhaustive bool // small-bundle fallback took the reference path
}

// Skipped returns how many nodes the placement avoided visiting
// relative to the exhaustive scan (index pruning + bound early stop).
func (ps PlaceStats) Skipped() int { return ps.Nodes - ps.Scored }

// Scratch is the reusable state of the pruned placement scan. One
// Scratch serves any number of bundles sequentially (the engine owns a
// single instance for its whole lifetime); it must not be shared
// between goroutines. The per-node stamp/mask arrays are epoch-tagged
// so resetting between calls is O(1), not O(nodes).
type Scratch struct {
	epoch uint32
	stamp []uint32 // stamp[id] == epoch ⇔ node id is a candidate this call
	mask  []uint8  // indicant-class mask of candidate id, valid when stamped
	cand  []int32  // candidate ids in discovery order

	// Candidates bucketed by mask, and the non-empty masks ordered by
	// descending score bound for the early-terminating scan.
	groups [numMasks][]int32
	order  [numMasks]uint8
	bounds [numMasks]float64

	// Posting-list cursors of the time-bounded scan (addPrunedTime),
	// one per indicant occurrence of the message being placed, plus the
	// active-cursor index sorted by frontier.
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

// NewScratch returns an empty Scratch; arrays grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

// begin opens a new epoch sized for a bundle of n nodes.
func (sc *Scratch) begin(n int) {
	sc.epoch++
	if sc.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch, so clear
		// once every ~4 billion calls and restart at 1.
		clear(sc.stamp)
		sc.epoch = 1
	}
	if len(sc.stamp) < n {
		sc.grow(n)
	}
	sc.cand = sc.cand[:0]
}

// grow is the cold resize path, kept out of the annotated hot
// functions so their bodies stay allocation-free.
func (sc *Scratch) grow(n int) {
	stamp := make([]uint32, n+n/2)
	copy(stamp, sc.stamp)
	sc.stamp = stamp
	mask := make([]uint8, n+n/2)
	copy(mask, sc.mask)
	sc.mask = mask
}

// mark flags every node id in ids as a candidate carrying the indicant
// class bit, deduplicating across terms via the epoch stamp.
//
//provex:hotpath runs per shared indicant term on every placement
func (sc *Scratch) mark(ids []int32, bit uint8) {
	for _, id := range ids {
		if sc.stamp[id] != sc.epoch {
			sc.stamp[id] = sc.epoch
			sc.mask[id] = bit
			sc.cand = append(sc.cand, id)
		} else {
			sc.mask[id] |= bit
		}
	}
}

// AddScratch is Add/AddObserved with caller-provided scratch and work
// stats: the engine passes its shared Scratch so placement allocates
// nothing at steady state. sc == nil lazily uses a bundle-owned
// Scratch. The chosen parent, its score, and the connection type are
// identical to AddExhaustive for every input — see the package comment
// and the differential tests.
func (b *Bundle) AddScratch(w score.MessageWeights, doc score.Doc, obs ParentObserver, sc *Scratch) (int, PlaceStats) {
	if len(b.nodes) < PruneMinNodes {
		return b.addExhaustive(w, doc, obs)
	}
	if sc == nil {
		if b.scratch == nil {
			b.scratch = NewScratch()
		}
		sc = b.scratch
	}
	if b.timeOrdered {
		return b.addPrunedTime(w, doc, obs, sc)
	}
	return b.addPruned(w, doc, obs, sc)
}

// addPruned is the sublinear Algorithm 2 scan described in the package
// comment.
//
// Identity argument: the exhaustive loop visits nodes in ascending id
// and replaces its best on s > best, or on s == best while no parent is
// chosen yet — which makes its final parent the LOWEST id attaining
// max(0, max over connected nodes of Eq. 5), or NoParent when every
// connected node scores negative. The rule below —
//
//	s > best || (s == best && (parent == NoParent || id < parent))
//
// converges to exactly that winner under ANY visit order, so grouping
// candidates by mask and visiting groups bound-first cannot change the
// outcome. Early stop skips a group only when best strictly exceeds the
// group's upper bound: no member could beat best (bound ≥ any member
// score) nor tie it (a tie is only taken for a lower id, and on
// best > bound even a tie is impossible).
//
//provex:hotpath Algorithm 2 per-message placement scan
func (b *Bundle) addPruned(w score.MessageWeights, doc score.Doc, obs ParentObserver, sc *Scratch) (int, PlaceStats) {
	if b.closed {
		panic("bundle: Add to closed bundle")
	}
	sc.begin(len(b.nodes))

	// Candidate collection: union of the node-index posting lists of the
	// message's indicants — exactly the nodes Classify connects.
	m := doc.Msg
	for _, u := range m.URLs {
		sc.mark(b.nodesWith(classURL, u), maskURL)
	}
	for _, h := range m.Hashtags {
		sc.mark(b.nodesWith(classTag, h), maskTag)
	}
	for _, k := range doc.Keywords {
		sc.mark(b.nodesWith(classKey, k), maskKey)
	}
	if m.IsRT() {
		sc.mark(b.nodesWith(classUser, m.RTOf), maskRT)
	}

	stats := PlaceStats{Nodes: len(b.nodes), Candidates: len(sc.cand)}

	// Bucket candidates by indicant-class mask, then order the
	// non-empty masks by descending score bound (insertion sort over at
	// most 15 entries — the loop shape pinned by the hotpathalloc
	// fixture, no closures or allocation).
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	for _, id := range sc.cand {
		g := sc.mask[id]
		sc.groups[g] = append(sc.groups[g], id)
	}
	n := 0
	for g := 1; g < numMasks; g++ {
		if len(sc.groups[g]) == 0 {
			continue
		}
		msk := uint8(g)
		bd := score.MessageSimCeil(w,
			msk&maskURL != 0, msk&maskTag != 0, msk&maskKey != 0, msk&maskRT != 0)
		j := n
		for j > 0 && sc.bounds[j-1] < bd {
			sc.order[j] = sc.order[j-1]
			sc.bounds[j] = sc.bounds[j-1]
			j--
		}
		sc.order[j] = msk
		sc.bounds[j] = bd
		n++
	}

	parent := NoParent
	best := 0.0
	conn := score.ConnNone
	for gi := 0; gi < n; gi++ {
		if best > sc.bounds[gi] {
			stats.EarlyStop = true
			break
		}
		msk := sc.order[gi]
		for _, id := range sc.groups[msk] {
			i := int(id)
			var s float64
			if obs == nil {
				s = score.MessageSim(w, b.nodes[i].Doc, doc)
			} else {
				parts := score.MessageSimWithParts(w, b.nodes[i].Doc, doc)
				s = parts.Total
				obs(ParentCandidate{Node: i, Msg: b.nodes[i].Doc.Msg.ID, Conn: connFromMask(msk), Parts: parts})
			}
			stats.Scored++
			if s > best || (s == best && (parent == NoParent || id < parent)) {
				best, parent, conn = s, id, connFromMask(msk)
			}
		}
	}

	node := Node{Doc: doc, Parent: parent, Score: best, Conn: conn}
	b.nodes = append(b.nodes, node)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}

// clampPos is the bound-side weight clamp (score.MessageSimCeil's ceil0
// reproduced locally): a negative weight contributes at most 0 to any
// score, so its ceiling is 0.
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
// Bundle.timeOrdered). It strictly improves on addPruned for large
// bundles: where the mask-group scan must still WALK every posting list
// entry to collect candidates (O(matching nodes) per insert, which goes
// quadratic inside mega-bundles whose hot indicants match most nodes),
// this scan consumes the message's posting lists newest-first as a
// WAND-style descending-id merge: cursors are ordered by frontier
// (newest unconsumed node), a pivot is the newest node whose reachable
// score ceiling can still match the running best, everything newer than
// the pivot is skipped in bulk by binary search, and the whole scan
// stops once even the sum of all remaining ceilings decays below best —
// typically after a bounded recent time window, independent of bundle
// size. Dense posting lists of hot terms (the mega-bundle killer) are
// jumped over in O(log n) per scored candidate instead of popped one
// node at a time.
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
// The stop rule is the same strict comparison as addPruned's group
// scan: the scan ends only when best > ceiling + BoundSlop, so a
// skipped node can neither beat best nor tie it, and the replacement
// rule (identical to addPruned) makes the result independent of visit
// order. Differential tests pin both properties.
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
			// older node is out, same stop condition as addPruned's.
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
		var u, h, k float64
		if nU > 0 {
			u = w.URL * (float64(cU) / float64(nU))
		}
		if nH > 0 {
			h = w.Tag * (float64(cH) / float64(nH))
		}
		if nK > 0 {
			k = w.Keyword * (float64(cK) / float64(nK))
		}
		t := w.Time * nodeT
		s := u + h + t + k
		rtBonus := 0.0
		if rtHit {
			rtBonus = w.RT
			s += w.RT
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
			obs(ParentCandidate{Node: int(pivot), Msg: earlier.Msg.ID, Conn: connFromMask(msk),
				Parts: score.MessageSimParts{U: u, H: h, T: t, Keyword: k, RT: rtBonus, Total: s}})
		}
		if s > best || (s == best && (parent == NoParent || pivot < parent)) {
			best, parent, conn = s, pivot, connFromMask(msk)
		}
	}

	node := Node{Doc: doc, Parent: parent, Score: best, Conn: conn}
	b.nodes = append(b.nodes, node)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}
