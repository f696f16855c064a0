package pool

import (
	"provex/internal/bundle"
	"provex/internal/score"
)

// pageSize is how many slots one page of the bundle table holds: a page
// of 128 slots is 2 KiB, an allocator size class. Measured while a slot
// was a bare pointer, against 256 slots the dense pool of the seed-1
// 125 000-message stream held 0.9 % more table bytes (1.9 % at 64
// slots) and the bounded pool of TestTableStaysBounded 4.32× its live
// slots where 256 held 5.03×.
const pageSize = 128

// slotBytes is what one slot of a page costs: a Bundle pointer and a
// record handle (score.Doc, one pointer).
const slotBytes = 16

// page holds the slots of one page number. A slot holds a bundle in the
// form bundle.Ref says: its Bundle, or for an open bundle of one message
// that message's record, never both. Keeping the two forms in arrays of
// their own lets the Bundle-only walk (trending) read pointers alone.
type page struct {
	bundles [pageSize]*bundle.Bundle
	records [pageSize]score.Doc
}

// table holds the live bundles by slot, their position on the pool's ID
// progression (Pool.slot), in fixed pages: 16 bytes a slot where a map
// spent about 24 on a live bundle, and a walk in slot — that is ID —
// order. A page is released once it is
// empty, and empty pages at the front leave the directory, so a bounded
// pool whose IDs march on holds pages only around its live bundles.
type table struct {
	pages []*page  // pages[i] holds the slots of page number first+i; nil when empty
	used  []uint16 // live bundles in pages[i]
	first int      // page number of pages[0]
	n     int      // live bundles
	live  int      // pages allocated
}

// bytes is the heap the table holds: its live pages and its directory,
// 8 bytes a page pointer and 2 a page's count.
func (t *table) bytes() int64 {
	return int64(t.live)*pageSize*slotBytes + int64(cap(t.pages))*8 + int64(cap(t.used))*2
}

// locate returns the page holding slot and the slot's index in it, nil
// when that page is not allocated.
func (t *table) locate(slot int) (*page, int) {
	i := slot/pageSize - t.first
	if i < 0 || i >= len(t.pages) {
		return nil, 0
	}
	return t.pages[i], slot % pageSize
}

// get returns what slot holds: a Bundle, a record, or neither.
func (t *table) get(slot int) (*bundle.Bundle, score.Doc) {
	pg, j := t.locate(slot)
	if pg == nil {
		return nil, score.Doc{}
	}
	return pg.bundles[j], pg.records[j]
}

// put stores a bundle in slot, which must be empty: b, or when b is nil
// the record doc.
func (t *table) put(slot int, b *bundle.Bundle, doc score.Doc) {
	pn := slot / pageSize
	if len(t.pages) == 0 {
		t.first = pn
	}
	if pn < t.first { // an adopted ID below every live one
		k := t.first - pn
		t.pages = append(make([]*page, k, k+len(t.pages)), t.pages...)
		t.used = append(make([]uint16, k, k+len(t.used)), t.used...)
		t.first = pn
	}
	for pn-t.first >= len(t.pages) {
		t.pages = append(t.pages, nil)
		t.used = append(t.used, 0)
	}
	i := pn - t.first
	if t.pages[i] == nil {
		t.pages[i] = new(page)
		t.live++
	}
	if b != nil {
		t.pages[i].bundles[slot%pageSize] = b
	} else {
		t.pages[i].records[slot%pageSize] = doc
	}
	t.used[i]++
	t.n++
}

// promote replaces the record in slot with b, its Bundle.
func (t *table) promote(slot int, b *bundle.Bundle) {
	pg, j := t.locate(slot)
	pg.bundles[j], pg.records[j] = b, score.Doc{}
}

// del empties slot, which must hold a bundle, and releases its page
// when that was the page's last one.
func (t *table) del(slot int) {
	i := slot/pageSize - t.first
	t.pages[i].bundles[slot%pageSize] = nil
	t.pages[i].records[slot%pageSize] = score.Doc{}
	t.n--
	if t.used[i]--; t.used[i] > 0 {
		return
	}
	t.pages[i] = nil
	t.live--
	for len(t.pages) > 0 && t.pages[0] == nil {
		t.pages, t.used = t.pages[1:], t.used[1:]
		t.first++
	}
}

// each calls fn for every bundle in slot order, with its slot and what
// the slot holds. fn may delete the bundle it is given.
func (t *table) each(fn func(slot int, b *bundle.Bundle, doc score.Doc)) {
	for pn := t.first; ; pn++ {
		pn = max(pn, t.first) // pages up to first were released meanwhile
		if pn >= t.first+len(t.pages) {
			return
		}
		pg := t.pages[pn-t.first]
		if pg == nil {
			continue
		}
		for j := range pg.bundles {
			if b, doc := pg.bundles[j], pg.records[j]; b != nil || doc.Msg != nil {
				fn(pn*pageSize+j, b, doc)
			}
		}
	}
}

// eachBundle calls fn for every slot that holds a Bundle, in slot
// order, reading each page's pointers alone. fn must not delete.
func (t *table) eachBundle(fn func(*bundle.Bundle)) {
	for _, pg := range t.pages {
		if pg == nil {
			continue
		}
		for _, b := range pg.bundles {
			if b != nil {
				fn(b)
			}
		}
	}
}
