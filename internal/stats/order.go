package stats

import (
	"math"
	"sort"
)

// SortScratch carries the buffers of Float64s, grown to the longest
// series seen, then reused. The zero value is ready; single-goroutine.
type SortScratch struct {
	counts   []int32
	buf      []float64
	moves    int  // the last call's insertion moves (tests read them)
	fellBack bool // whether the last call ended in sort.Float64s
}

// Below orderInsertionMax values Float64s insertion-sorts; its final
// insertion pass may make orderMoveBudget moves per value.
const (
	orderInsertionMax = 16
	orderMoveBudget   = 8
)

// Float64s leaves xs in sort.Float64s order, bit for bit but for the
// relative order of +0 and −0, which neither fixes. A series holding a
// NaN, or whose range is ±Inf or NaN, goes to sort.Float64s whole.
// Otherwise the values are counted into n equal-width buckets over
// [min, max], laid out bucket by bucket, and one insertion pass orders
// each bucket. A clustered series (or one built against the buckets)
// exhausts that pass's budget and sort.Float64s finishes the slice,
// still a permutation of the input: no input costs over O(n log n).
func (sc *SortScratch) Float64s(xs []float64) {
	sc.moves, sc.fellBack = 0, false
	n := len(xs)
	if n < 2 {
		return
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x != x {
			sc.fallback(xs)
			return
		}
		if x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	// bucket ⌊(x−lo)·scale⌋ is non-decreasing in x, so no value is less
	// than one in an earlier bucket (a scale that overflows falls back)
	span := hi - lo
	scale := float64(n) / span
	switch {
	case span == 0:
		return // every value compares equal
	case span != span || math.IsInf(span, 0) || scale > math.MaxFloat64:
		sc.fallback(xs)
		return
	case n < orderInsertionMax:
		sc.insertion(xs, n*n)
		return
	}
	if cap(sc.counts) < n+1 {
		sc.counts, sc.buf = make([]int32, n+1), make([]float64, n)
	}
	counts, buf := sc.counts[:n+1], sc.buf[:n]
	clear(counts)
	for _, x := range xs {
		counts[min(int((x-lo)*scale), n-1)+1]++
	}
	for b := 1; b < n; b++ {
		counts[b] += counts[b-1]
	}
	for _, x := range xs {
		b := min(int((x-lo)*scale), n-1)
		buf[counts[b]] = x
		counts[b]++
	}
	copy(xs, buf)
	sc.insertion(xs, orderMoveBudget*n)
}

// insertion sorts xs in at most budget moves, then falls back.
func (sc *SortScratch) insertion(xs []float64, budget int) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		if !(x < xs[i-1]) {
			continue
		}
		j, stop := i, max(i-(budget-sc.moves), 0)
		for j > stop && x < xs[j-1] {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = x
		sc.moves += i - j
		if j > 0 && x < xs[j-1] {
			sc.fallback(xs)
			return
		}
	}
}

func (sc *SortScratch) fallback(xs []float64) {
	sc.fellBack = true
	sort.Float64s(xs)
}
