package ml

import (
	"cmp"
	"math"
	"slices"

	"vqoe/internal/stats"
)

// maxTreeDepth bounds every tree the package builds or loads: induction
// stops splitting there (the paper's corpora grow trees of depth ≈ 25)
// and LoadForest refuses anything deeper, so the recursive passes over
// a tree — build, toDTO, fromDTO — run on a bounded stack.
const maxTreeDepth = 512

// The forest's split rules: a leaf holds at least minLeaf instances,
// and bestSplit scores at most maxThresholds split positions per
// feature (every stride-th one on a larger node) over featuresPerSplit
// randomly drawn features.
const (
	minLeaf       = 2
	maxThresholds = 64
)

// featuresPerSplit is the per-node feature subsample for m features,
// ⌈√m⌉, the standard Random Forest choice.
func featuresPerSplit(m int) int {
	return int(math.Ceil(math.Sqrt(float64(m))))
}

// Tree is a trained CART classification tree, held in the packed
// preorder form described in flat.go.
type Tree struct {
	nodes []node
	// dists packs every leaf's class distribution (numClasses values
	// apiece) into one contiguous slab.
	dists      []float64
	numClasses int
}

// scratch is the per-tree induction arena: every buffer bestSplit and
// build need is allocated once at the root and reused down the whole
// recursion, so induction cost is sorting and counting, not GC.
type scratch struct {
	pairs       []vy  // (value, label) column buffer, sorted per feature
	features    []int // candidate feature ids, reshuffled per node
	perSplit    int   // how many of features each node examines
	counts      []int // class counts of the current node
	leftCounts  []int
	rightCounts []int
}

// vy is one (feature value, label) pair of a node's column.
type vy struct {
	v float64
	y int32
}

func newScratch(n, m, nc int) *scratch {
	return &scratch{
		pairs:       make([]vy, n),
		features:    make([]int, m),
		perSplit:    featuresPerSplit(m),
		counts:      make([]int, nc),
		leftCounts:  make([]int, nc),
		rightCounts: make([]int, nc),
	}
}

// TrainTree induces one of the forest's CART trees on ds using Gini
// impurity under the split rules above, writing it straight into the
// preorder slab the prediction paths walk; r draws each node's
// feature subsample.
func TrainTree(ds *Dataset, r *stats.Rand) *Tree {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{numClasses: ds.NumClasses()}
	sc := newScratch(ds.Len(), ds.NumFeatures(), ds.NumClasses())
	t.build(ds, idx, r, 0, sc)
	return t
}

// build appends the subtree over the instances in idx to the slab in
// preorder. It owns idx and partitions it in place — children recurse
// into disjoint subslices of the same backing array, so induction never
// allocates index slices past the root.
func (t *Tree) build(ds *Dataset, idx []int, r *stats.Rand, depth int, sc *scratch) {
	counts := sc.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	if len(idx) < 2*minLeaf || depth >= maxTreeDepth || pure(counts) {
		t.leaf(counts, len(idx))
		return
	}

	feat, thresh, ok := bestSplit(ds, idx, counts, r, sc)
	if !ok {
		t.leaf(counts, len(idx))
		return
	}

	// in-place partition: order within a side is irrelevant (children
	// re-sort columns and re-count), so a swap pass suffices
	k := 0
	for i, ix := range idx {
		if ds.X[ix][feat] <= thresh {
			idx[i], idx[k] = idx[k], idx[i]
			k++
		}
	}
	left, right := idx[:k], idx[k:]
	if len(left) < minLeaf || len(right) < minLeaf {
		t.leaf(counts, len(idx))
		return
	}
	i := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: int32(feat), threshold: thresh})
	t.build(ds, left, r, depth+1, sc) // lands at i+1, the implicit left child
	t.nodes[i].right = int32(len(t.nodes))
	t.build(ds, right, r, depth+1, sc)
}

// leaf appends a leaf holding the class distribution counts/n (all
// zeros when n = 0).
func (t *Tree) leaf(counts []int, n int) {
	t.nodes = append(t.nodes, node{feature: -1, right: int32(len(t.dists))})
	for _, c := range counts {
		p := 0.0
		if n > 0 {
			p = float64(c) / float64(n)
		}
		t.dists = append(t.dists, p)
	}
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// bestSplit scans candidate (feature, threshold) pairs and returns the
// one with the lowest weighted child Gini impurity. All working memory
// comes from the per-tree scratch arena.
func bestSplit(ds *Dataset, idx []int, parentCounts []int, r *stats.Rand, sc *scratch) (feat int, thresh float64, ok bool) {
	m := ds.NumFeatures()
	features := sc.features[:m]
	for i := range features {
		features[i] = i
	}
	if sc.perSplit < m {
		r.Shuffle(m, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:sc.perSplit]
	}

	n := len(idx)
	parentGini := gini(parentCounts, n)
	best := parentGini - 1e-12 // must strictly improve
	ok = false

	pairs := sc.pairs[:n]
	leftCounts, rightCounts := sc.leftCounts, sc.rightCounts

	for _, f := range features {
		for i, ix := range idx {
			pairs[i] = vy{ds.X[ix][f], int32(ds.Y[ix])}
		}
		slices.SortFunc(pairs, func(a, b vy) int { return cmp.Compare(a.v, b.v) })
		if pairs[0].v == pairs[n-1].v {
			continue // constant feature on this node
		}
		for i := range leftCounts {
			leftCounts[i] = 0
			rightCounts[i] = parentCounts[i]
		}
		// subsample split positions on very large nodes
		stride := 1
		if n > maxThresholds {
			stride = n / maxThresholds
		}
		for i := 0; i < n-1; i++ {
			leftCounts[pairs[i].y]++
			rightCounts[pairs[i].y]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			if stride > 1 && i%stride != 0 {
				continue
			}
			nl, nr := i+1, n-i-1
			w := (float64(nl)*gini(leftCounts, nl) + float64(nr)*gini(rightCounts, nr)) / float64(n)
			if w < best {
				best = w
				feat = f
				thresh = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
