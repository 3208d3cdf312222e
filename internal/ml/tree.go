package ml

import (
	"cmp"
	"slices"

	"vqoe/internal/stats"
)

// TreeConfig controls CART tree induction.
type TreeConfig struct {
	// MaxDepth bounds the tree height; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of instances in a leaf (≥ 1).
	MinLeaf int
	// FeaturesPerSplit is the number of candidate features examined at
	// each node; 0 means all. Random Forest sets this to √m.
	FeaturesPerSplit int
	// MaxThresholds caps candidate thresholds per feature (quantile
	// subsampling) to keep induction fast on large nodes; 0 means all.
	MaxThresholds int
}

// maxTreeDepth bounds every tree the package builds or loads: induction
// stops splitting there (the paper's corpora grow trees of depth ≈ 25)
// and LoadForest refuses anything deeper, so the recursive walks over a
// pointer tree — compile, toDTO — run on a bounded stack.
const maxTreeDepth = 512

// Tree is a trained CART classification tree.
type Tree struct {
	root       *node
	flat       *flatTree
	numClasses int
}

type node struct {
	// internal nodes
	feature     int
	threshold   float64
	left, right *node
	// leaves
	leaf bool
	dist []float64 // class probability distribution
}

// scratch is the per-tree induction arena: every buffer bestSplit and
// build need is allocated once at the root and reused down the whole
// recursion, so induction cost is sorting and counting, not GC.
type scratch struct {
	pairs       []vy  // (value, label) column buffer, sorted per feature
	features    []int // candidate feature ids, reshuffled per node
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
		counts:      make([]int, nc),
		leftCounts:  make([]int, nc),
		rightCounts: make([]int, nc),
	}
}

// TrainTree induces a CART tree on ds using Gini impurity and compiles
// it into the flat structure-of-arrays form the prediction paths walk.
func TrainTree(ds *Dataset, cfg TreeConfig, r *stats.Rand) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{numClasses: ds.NumClasses()}
	sc := newScratch(ds.Len(), ds.NumFeatures(), ds.NumClasses())
	t.root = build(ds, idx, cfg, r, 0, sc)
	t.flat = compile(t.root, t.numClasses)
	return t
}

// build grows the subtree over the instances in idx. It owns idx and
// partitions it in place — children recurse into disjoint subslices of
// the same backing array, so induction never allocates index slices
// past the root.
func build(ds *Dataset, idx []int, cfg TreeConfig, r *stats.Rand, depth int, sc *scratch) *node {
	counts := sc.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	if len(idx) < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || depth >= maxTreeDepth ||
		pure(counts) {
		return leafNode(counts, len(idx))
	}

	feat, thresh, ok := bestSplit(ds, idx, counts, cfg, r, sc)
	if !ok {
		return leafNode(counts, len(idx))
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
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return leafNode(counts, len(idx))
	}
	return &node{
		feature:   feat,
		threshold: thresh,
		left:      build(ds, left, cfg, r, depth+1, sc),
		right:     build(ds, right, cfg, r, depth+1, sc),
	}
}

func leafNode(counts []int, n int) *node {
	dist := make([]float64, len(counts))
	if n > 0 {
		for i, c := range counts {
			dist[i] = float64(c) / float64(n)
		}
	}
	return &node{leaf: true, dist: dist}
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
func bestSplit(ds *Dataset, idx []int, parentCounts []int, cfg TreeConfig, r *stats.Rand, sc *scratch) (feat int, thresh float64, ok bool) {
	m := ds.NumFeatures()
	features := sc.features[:m]
	for i := range features {
		features[i] = i
	}
	if cfg.FeaturesPerSplit > 0 && cfg.FeaturesPerSplit < m {
		r.Shuffle(m, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeaturesPerSplit]
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
		if cfg.MaxThresholds > 0 && n > cfg.MaxThresholds {
			stride = n / cfg.MaxThresholds
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

// Predict returns the predicted class index for one instance.
func (t *Tree) Predict(x []float64) int {
	return argmax(t.Proba(x))
}

// Proba returns the class probability distribution at the leaf the
// instance falls into. The returned slice aliases the tree's leaf slab
// and must not be mutated.
func (t *Tree) Proba(x []float64) []float64 {
	off := t.flat.leafOff(x)
	return t.flat.dists[off : off+int32(t.numClasses)]
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
