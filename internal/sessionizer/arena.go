package sessionizer

// Page geometry of the flow store. A page is pageRows chunk rows of the
// tracker's live fields, row-major, plus one trailing link word; a slab
// is slabPages pages in one []float64, allocated when the free stack
// runs dry. At the benchmark models' six live fields a page is 392 B and
// a slab 196 KB.
const (
	pageRows  = 8
	slabPages = 512
)

// trimEvery is how many sweeps pass between two looks at what the
// arena could give back — two minutes of capture clock at the engine's
// default cadence, the store's one time constant: memory returns once
// it has gone unused that long, and flows that come and go in shorter
// waves keep their slabs (looking after every sweep re-allocated a slab
// or two per sweep on the benchmark's wire_steady; DESIGN §13).
const trimEvery = 8

// pageArena is one tracker's chunk storage. Open flows hold chains of
// its pages by uint32 index — page p lives in slab p/slabPages — so
// neither the flow array nor the slabs contain a pointer and the
// collector scans none of it. A released slab leaves its slot behind
// for the next slab, so the indices flows hold never move.
type pageArena struct {
	k     int         // floats per row: the live fields
	slabs [][]float64 // by slot; nil once released
	spare []uint32    // released slots, refilled before slabs grows
	free  []uint32    // stack of free page indices
	held  int         // slabs currently allocated
	low   int         // fewest free pages at any moment since the last trim
	calls int         // sweeps seen, of which every trimEvery-th trims
}

// page returns page p's floats: the rows, then the link — the index of
// the next page of the flow's chain, kept as a float64 (exact for any
// uint32) so a slab is one pointer-free allocation. The link of a
// flow's last page is stale; chains end by chunk count.
func (a *pageArena) page(p uint32) []float64 {
	w := a.width()
	off := int(p%slabPages) * w
	return a.slabs[p/slabPages][off : off+w]
}

// width is a page's length in floats: the rows and the link.
func (a *pageArena) width() int { return pageRows*a.k + 1 }

// take pops a free page, allocating a slab when there is none.
func (a *pageArena) take() uint32 {
	if len(a.free) == 0 {
		var s int
		if n := len(a.spare); n > 0 {
			s, a.spare = int(a.spare[n-1]), a.spare[:n-1]
		} else {
			s = len(a.slabs)
			a.slabs = append(a.slabs, nil)
		}
		a.slabs[s] = make([]float64, slabPages*a.width())
		a.held++
		for p := (s+1)*slabPages - 1; p >= s*slabPages; p-- {
			a.free = append(a.free, uint32(p)) // popped in ascending order
		}
	}
	n := len(a.free) - 1
	p := a.free[n]
	a.free = a.free[:n]
	if n < a.low {
		a.low = n
	}
	return p
}

// trim gives memory back; the tracker calls it after every sweep and
// flush. Every trimEvery-th sweep it looks at what was not needed: the
// pages that stayed free at every moment since the last look (on a
// flush, the capture being over, every free page, at once). When that
// is more than half the held pages, slabs whose pages are all free are
// dropped, up to that many pages' worth, and the free stack is rebuilt,
// at its new size, without them. O(free pages), never on the push path.
func (a *pageArena) trim(flush bool) {
	if a.calls++; !flush && a.calls%trimEvery != 0 {
		return
	}
	idle := a.low
	if flush {
		idle = len(a.free)
	}
	a.low = len(a.free)
	if idle < slabPages || 2*idle <= a.held*slabPages {
		return
	}
	perSlab := make([]uint16, len(a.slabs)) // free pages per slab
	for _, p := range a.free {
		perSlab[p/slabPages]++
	}
	dropped := 0
	for s, n := range perSlab {
		if n == slabPages && idle >= slabPages {
			a.slabs[s] = nil
			a.spare = append(a.spare, uint32(s))
			idle -= slabPages
			dropped++
		}
	}
	if dropped == 0 {
		return
	}
	a.held -= dropped
	keep := make([]uint32, 0, len(a.free)-dropped*slabPages)
	for _, p := range a.free {
		if a.slabs[p/slabPages] != nil {
			keep = append(keep, p)
		}
	}
	a.free, a.low = keep, len(keep)
}

// bytes is the memory the held slabs occupy.
func (a *pageArena) bytes() int { return a.held * slabPages * a.width() * 8 }
