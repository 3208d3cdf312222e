package ml

import (
	"cmp"
	"math/bits"
	"slices"
)

// Threshold scan (QuickScorer, Lucchese et al., SIGIR 2015): a forest
// of at most 64 trees of at most 64 leaves each is scored without
// walking a tree. Each tree keeps one 64-bit word per instance, bit l
// standing for its l-th leaf in preorder, and starts at all ones. A
// split node whose test x ≤ t fails sends the walk right, so no leaf of
// its left subtree can be the exit: AND-ing in a mask that clears those
// leaves records the failure. Once every failing node of every tree is
// applied, a tree's exit leaf is its leftmost surviving leaf — the
// lowest set bit — which is exactly the leaf the walk reaches.
//
// The tables hold, per feature the forest splits on, its split nodes
// sorted by threshold. For one instance the failing nodes of a feature
// are a prefix of that list (x > t holds up to the first t ≥ x), so the
// scan applies masks until the first test that passes and moves on: one
// predictable loop per feature instead of one data-dependent branch per
// tree level. A NaN input fails every test, as it sends the walk right
// at every node. A NaN threshold, which a model file may hold, sorts
// first in its column and fails every test, as x ≤ NaN does in the
// walk, so the failing nodes are still a prefix.
//
// The leaf distributions are copied out of the trees, in preorder and
// tree after tree, so tree t's leaf l is row first[t]+l of dists. Votes
// are summed in tree order 0..T−1, the walk's order, so they are
// bit-identical to it.

// scanWidth is the most trees, and the most leaves per tree, the scan
// serves: one bit per leaf, one word per tree.
const scanWidth = 64

// scanTables is a forest's threshold-scan form, built once by
// newScanTables and read-only afterwards.
type scanTables struct {
	cols []scanCol
	// the split nodes of every column, column after column, each sorted
	// by threshold: its test, its tree and the mask that clears the
	// leaves of its left subtree
	thresholds []float64
	trees      []uint8
	masks      []uint64
	// first[t] is tree t's first row of dists: one row per leaf, trees
	// in order, each tree's leaves in preorder, a row the leaf's class
	// weights padded with zeros to a multiple of four, so the votes are
	// summed four classes at a time in registers
	first  []int32
	dists  []float64
	stride int // floats a row
}

// scanCol is one feature the forest splits on and the range of its
// split nodes in the tables.
type scanCol struct {
	feature int32
	lo, hi  int32
}

// newScanTables builds the scan form of trees, or returns nil when the
// forest is too wide for it (more than scanWidth trees, or a tree of
// more than scanWidth leaves): such a forest keeps the preorder walk.
func newScanTables(trees []*Tree, numClasses int) *scanTables {
	if len(trees) > scanWidth {
		return nil
	}
	type split struct {
		feature   int32
		threshold float64
		tree      uint8
		mask      uint64
	}
	var splits []split
	stride := (numClasses + 3) &^ 3
	st := &scanTables{first: make([]int32, len(trees)+1), stride: stride}
	var rank []int32 // rank[i]: leaves before node i in preorder
	for ti, t := range trees {
		rank = rank[:0]
		leaves := int32(0)
		for _, n := range t.nodes {
			rank = append(rank, leaves)
			if n.feature < 0 {
				leaves++
				st.dists = append(st.dists, t.dists[n.right:n.right+int32(numClasses)]...)
				st.dists = append(st.dists, make([]float64, stride-numClasses)...)
			}
		}
		if leaves > scanWidth {
			return nil
		}
		rank = append(rank, leaves)
		st.first[ti+1] = st.first[ti] + leaves
		for i, n := range t.nodes {
			if n.feature < 0 {
				continue
			}
			// the left subtree is slab [i+1, right): leaves [a, b)
			a, b := rank[i+1], rank[n.right]
			left := (uint64(1)<<(b-a) - 1) << a
			splits = append(splits, split{n.feature, n.threshold, uint8(ti), ^left})
		}
	}
	slices.SortStableFunc(splits, func(p, q split) int {
		if c := cmp.Compare(p.feature, q.feature); c != 0 {
			return c
		}
		return cmp.Compare(p.threshold, q.threshold)
	})
	for i, s := range splits {
		if i == 0 || s.feature != splits[i-1].feature {
			st.cols = append(st.cols, scanCol{feature: s.feature, lo: int32(i)})
		}
		st.cols[len(st.cols)-1].hi = int32(i + 1)
		st.thresholds = append(st.thresholds, s.threshold)
		st.trees = append(st.trees, s.tree)
		st.masks = append(st.masks, s.mask)
	}
	return st
}

// predictRange is Forest.predictRange's scan kernel: instance by
// instance, every column's failing prefix, then each tree's exit leaf
// summed into the instance's row of dist in tree order.
func (st *scanTables) predictRange(xs [][]float64, dist []float64, out []int, nc int) {
	nt := len(st.first) - 1
	first := st.first[:nt]
	stride := st.stride
	var words [scanWidth]uint64
	for i, x := range xs {
		w := words[:nt]
		for t := range w {
			w[t] = ^uint64(0)
		}
		for _, c := range st.cols {
			v := x[c.feature]
			ths := st.thresholds[c.lo:c.hi]
			trs := st.trees[c.lo:c.hi]
			ms := st.masks[c.lo:c.hi]
			trs, ms = trs[:len(ths)], ms[:len(ths)]
			for k, th := range ths {
				if v <= th {
					break
				}
				words[trs[k]&(scanWidth-1)] &= ms[k]
			}
		}
		// four classes at a time in registers: a sum through the row
		// in memory would chain every add on a store; the padding
		// classes are summed and dropped
		row := dist[i*nc : (i+1)*nc]
		for c0 := 0; c0 < nc; c0 += 4 {
			var a0, a1, a2, a3 float64
			for t, f := range first {
				d := st.dists[(int(f)+bits.TrailingZeros64(w[t]))*stride+c0:]
				d = d[:4]
				a0 += d[0]
				a1 += d[1]
				a2 += d[2]
				a3 += d[3]
			}
			acc := [4]float64{a0, a1, a2, a3}
			copy(row[c0:], acc[:])
		}
		out[i] = argmax(row)
	}
}
