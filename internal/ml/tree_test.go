package ml

import (
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

// linearlySeparable builds a two-feature dataset where class is decided
// by x0 > 5, with x1 as pure noise.
func linearlySeparable(n int, seed int64) *Dataset {
	r := stats.NewRand(seed)
	ds := NewDataset([]string{"signal", "noise"}, []string{"lo", "hi"})
	for i := 0; i < n; i++ {
		x := r.Float64() * 10
		class := 0
		if x > 5 {
			class = 1
		}
		ds.Add([]float64{x, r.Float64() * 100}, class)
	}
	return ds
}

func TestTreeLearnsSeparableData(t *testing.T) {
	ds := linearlySeparable(500, 1)
	tree := TrainTree(ds, TreeConfig{MinLeaf: 2}, stats.NewRand(2))
	errors := 0
	for i, x := range ds.X {
		if tree.Predict(x) != ds.Y[i] {
			errors++
		}
	}
	if errors > 5 {
		t.Errorf("%d training errors on separable data", errors)
	}
}

func TestTreeGeneralizes(t *testing.T) {
	train := linearlySeparable(500, 1)
	test := linearlySeparable(200, 99)
	tree := TrainTree(train, TreeConfig{MinLeaf: 5}, stats.NewRand(2))
	errors := 0
	for i, x := range test.X {
		if tree.Predict(x) != test.Y[i] {
			errors++
		}
	}
	if float64(errors)/float64(test.Len()) > 0.05 {
		t.Errorf("test error rate %d/200 too high", errors)
	}
}

// depth is the height of a subtree (a single leaf has depth 0).
func depth(n *node) int {
	if n.leaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func leaves(n *node) int {
	_, l := countTree(n)
	return l
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	ds := NewDataset([]string{"x"}, []string{"only"})
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, 0)
	}
	tree := TrainTree(ds, TreeConfig{}, stats.NewRand(1))
	if depth(tree.root) != 0 || leaves(tree.root) != 1 {
		t.Errorf("pure data should yield a single leaf; depth=%d leaves=%d",
			depth(tree.root), leaves(tree.root))
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	ds := linearlySeparable(500, 3)
	tree := TrainTree(ds, TreeConfig{MaxDepth: 2, MinLeaf: 1}, stats.NewRand(1))
	if d := depth(tree.root); d > 2 {
		t.Errorf("depth %d exceeds max 2", d)
	}
}

func TestTreeConstantFeaturesYieldLeaf(t *testing.T) {
	ds := NewDataset([]string{"c"}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		ds.Add([]float64{42}, i%2)
	}
	tree := TrainTree(ds, TreeConfig{}, stats.NewRand(1))
	if leaves(tree.root) != 1 {
		t.Errorf("constant features can't split; leaves=%d", leaves(tree.root))
	}
	// majority vote on a tie must still return a valid class
	if c := tree.Predict([]float64{42}); c != 0 && c != 1 {
		t.Errorf("invalid class %d", c)
	}
}

func TestTreeProbaSumsToOne(t *testing.T) {
	ds := linearlySeparable(200, 5)
	tree := TrainTree(ds, TreeConfig{MinLeaf: 10}, stats.NewRand(1))
	p := tree.Proba([]float64{3, 50})
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("proba sums to %v", sum)
	}
}

// Property: the tree always predicts a class within range, for any
// (finite) query point — including points far outside the training
// distribution.
func TestTreePredictInRangeProperty(t *testing.T) {
	ds := linearlySeparable(300, 7)
	tree := TrainTree(ds, TreeConfig{MinLeaf: 3}, stats.NewRand(1))
	f := func(a, b float64) bool {
		c := tree.Predict([]float64{a, b})
		return c >= 0 && c < 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeThresholdSubsampling(t *testing.T) {
	ds := linearlySeparable(2000, 11)
	full := TrainTree(ds, TreeConfig{MinLeaf: 5}, stats.NewRand(1))
	capped := TrainTree(ds, TreeConfig{MinLeaf: 5, MaxThresholds: 16}, stats.NewRand(1))
	// both should still learn the x0>5 rule
	for _, tree := range []*Tree{full, capped} {
		if tree.Predict([]float64{1, 0}) != 0 || tree.Predict([]float64{9, 0}) != 1 {
			t.Error("tree failed to learn the separable rule")
		}
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	ds := linearlySeparable(100, 13)
	tree := TrainTree(ds, TreeConfig{MinLeaf: 50}, stats.NewRand(1))
	// with MinLeaf 50 of 100 instances, at most one split is possible
	if depth(tree.root) > 1 {
		t.Errorf("depth %d with MinLeaf=50", depth(tree.root))
	}
}
