package ml

// Tree layout: a tree is one contiguous node slab — 16-byte records
// holding the split feature as int32, the threshold, and one child
// index — with leaf distributions packed end-to-end in one shared
// []float64 per tree, so inference walks array indices instead of
// chasing heap pointers. Nodes are laid out in preorder, which makes
// the left child implicit at i+1: a root-to-leaf walk takes the
// "≤ threshold" branch by advancing one record (usually the same or the
// next cache line) and only jumps for the right branch. This is the
// only form a tree has: induction (build) and the model loader
// (fromDTO) append to the slab directly, and the pointer-shaped nodeDTO
// exists only on the wire and as the tests' reference walk. A forest
// whose trees all fit the threshold scan (scan.go) is scored from
// tables built off these slabs; the walk below scores every other
// forest, replays decision paths, and is the only way to reach a leaf
// of a tree of more than 64 leaves.

// node is one packed tree node. For internal nodes, feature ≥ 0 and
// right is the right-child slab index (the left child is the next
// record). For leaves, feature < 0 and right is the node's offset into
// the tree's dists slab.
type node struct {
	feature   int32
	right     int32
	threshold float64
}

// leafOff walks the tree and returns the offset of the leaf
// distribution x falls into. This is the inner loop of every forest
// prediction: one 16-byte record per level, no pointer dereferences.
func (t *Tree) leafOff(x []float64) int32 {
	nodes := t.nodes
	i := 0
	for {
		n := nodes[i]
		f := int(n.feature)
		if f < 0 {
			return n.right
		}
		if x[f] <= n.threshold {
			i++
		} else {
			i = int(n.right)
		}
	}
}
