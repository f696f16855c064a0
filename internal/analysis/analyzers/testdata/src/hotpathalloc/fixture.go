// Package fixture exercises the hotpathalloc analyzer: allocating
// constructs inside //provex:hotpath functions are flagged; the same
// constructs in unannotated functions are not.
package fixture

import "fmt"

type pair struct{ a, b int }

type sink interface{ accept() }

type payload struct{ n int }

func (p payload) accept() {}

func consume(s sink) {}

// hot simulates a per-message ingest step.
//
//provex:hotpath fixture for the analyzer test
func hot(names []string, m map[string]int, joined string) string {
	s := ""
	for _, n := range names {
		s = s + n // want `string concatenation in loop allocates per iteration`
	}
	for i := 0; i < len(names); i++ {
		s += "," // want `string concatenation in loop allocates per iteration`
	}
	_ = fmt.Sprintf("%d", len(names)) // want `fmt\.Sprintf formats into fresh allocations`
	buf := make([]byte, 8)            // want `make\(\) allocates in hot path`
	_ = buf
	xs := []int{1, 2, 3} // want `slice literal allocates in hot path`
	_ = xs
	mm := map[string]int{"a": 1} // want `map literal allocates in hot path`
	_ = mm
	fn := func() int { return 0 } // want `function literal in hot path`
	_ = fn
	p := &pair{a: 1, b: 2} // want `escapes to the heap in hot path`
	_ = p.a
	bs := []byte(joined) // want `string <-> \[\]byte conversion copies in hot path`
	_ = bs
	consume(payload{n: 1}) // want `passed value boxes .*payload into interface .*sink`
	var w sink
	w = payload{n: 2} // want `assigned value boxes .*payload into interface .*sink`
	_ = w
	return s
}

// hotLookup proves the compiler-elided map-index conversion form is
// exempt.
//
//provex:hotpath fixture for the elided-conversion exemption
func hotLookup(m map[string]int, key []byte) int {
	return m[string(key)]
}

// hotReturn boxes its concrete result into an interface return value.
//
//provex:hotpath fixture for return boxing
func hotReturn() sink {
	return payload{n: 3} // want `returned value boxes .*payload into interface .*sink`
}

// hotBoundScan is a pruned upper-bound scan built from the constructs
// bundle.addPrunedTime relies on: bucket candidates into scratch arrays,
// insertion-sort group indices by a precomputed bound, then scan in
// bound order with early termination. Every construct here — array
// element assignment, by-value struct composite literals, slice
// reslicing to :0, arithmetic on scratch state — must stay free of
// diagnostics, or the real hot path cannot be written allocation-free.
//
//provex:hotpath fixture for the allocation-free bound-scan shape
func hotBoundScan(cands []int32, masks []uint8, bounds *[16]float64, groups *[16][]int32) int32 {
	type stat struct{ scored, skipped int }
	var st stat // by-value struct: no escape, no finding
	var order [16]uint8
	for i := range groups {
		groups[i] = groups[i][:0] // reslice reuses backing store
	}
	for i, id := range cands {
		groups[masks[i]] = append(groups[masks[i]], id)
	}
	n := 0
	for m := 0; m < 16; m++ {
		if len(groups[m]) == 0 {
			continue
		}
		j := n
		for j > 0 && bounds[order[j-1]] < bounds[m] {
			order[j] = order[j-1]
			j--
		}
		order[j] = uint8(m)
		n++
	}
	best, parent := -1.0, int32(-1)
	for g := 0; g < n; g++ {
		if best > bounds[order[g]] {
			st.skipped += len(groups[order[g]])
			break
		}
		for _, id := range groups[order[g]] {
			s := float64(id) * 0.5
			if s > best || (s == best && id < parent) {
				best, parent = s, id
			}
			st.scored++
		}
	}
	_ = st
	return parent
}

// cold is unannotated: the same constructs draw no diagnostics.
func cold(names []string) string {
	s := ""
	for _, n := range names {
		s = s + n
	}
	_ = fmt.Sprintf("%d", len(names))
	buf := make([]byte, 8)
	_ = buf
	consume(payload{n: 4})
	return s
}
