package pool

import "provex/internal/bundle"

// pageSize is how many slots one page of the bundle table holds: a page
// of pointers is 2 KiB, an allocator size class.
const pageSize = 256

// table holds the live bundles by slot, their position on the pool's ID
// progression (Pool.slot), in fixed pages: 8 bytes a slot where a map
// spent about three times that on a live bundle, and a walk in slot —
// that is ID — order. A page is released once it is empty, and empty
// pages at the front leave the directory, so a bounded pool whose IDs
// march on holds pages only around its live bundles.
type table struct {
	pages []*[pageSize]*bundle.Bundle // pages[i] holds the slots of page number first+i; nil when empty
	used  []uint16                    // live bundles in pages[i]
	first int                         // page number of pages[0]
	n     int                         // live bundles
}

// get returns the bundle in slot, nil when none is.
func (t *table) get(slot int) *bundle.Bundle {
	i := slot/pageSize - t.first
	if i < 0 || i >= len(t.pages) || t.pages[i] == nil {
		return nil
	}
	return t.pages[i][slot%pageSize]
}

// put stores b in slot, which must be empty.
func (t *table) put(slot int, b *bundle.Bundle) {
	pn := slot / pageSize
	if len(t.pages) == 0 {
		t.first = pn
	}
	if pn < t.first { // an adopted ID below every live one
		k := t.first - pn
		t.pages = append(make([]*[pageSize]*bundle.Bundle, k, k+len(t.pages)), t.pages...)
		t.used = append(make([]uint16, k, k+len(t.used)), t.used...)
		t.first = pn
	}
	for pn-t.first >= len(t.pages) {
		t.pages = append(t.pages, nil)
		t.used = append(t.used, 0)
	}
	i := pn - t.first
	if t.pages[i] == nil {
		t.pages[i] = new([pageSize]*bundle.Bundle)
	}
	t.pages[i][slot%pageSize] = b
	t.used[i]++
	t.n++
}

// del empties slot, which must hold a bundle, and releases its page
// when that was the page's last one.
func (t *table) del(slot int) {
	i := slot/pageSize - t.first
	t.pages[i][slot%pageSize] = nil
	t.n--
	if t.used[i]--; t.used[i] > 0 {
		return
	}
	t.pages[i] = nil
	for len(t.pages) > 0 && t.pages[0] == nil {
		t.pages, t.used = t.pages[1:], t.used[1:]
		t.first++
	}
}

// each calls fn for every bundle in slot order. fn may delete the
// bundle it is given.
func (t *table) each(fn func(*bundle.Bundle)) {
	for pn := t.first; ; pn++ {
		pn = max(pn, t.first) // pages up to first were released meanwhile
		if pn >= t.first+len(t.pages) {
			return
		}
		pg := t.pages[pn-t.first]
		if pg == nil {
			continue
		}
		for _, b := range pg {
			if b != nil {
				fn(b)
			}
		}
	}
}
