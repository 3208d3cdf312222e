package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
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

// treeClass classifies x with one tree through the pointer walk.
func treeClass(t *Tree, x []float64) int {
	return argmax(t.probaPointer(x))
}

func TestTreeLearnsSeparableData(t *testing.T) {
	ds := linearlySeparable(500, 1)
	tree := TrainTree(ds, stats.NewRand(2))
	errors := 0
	for i, x := range ds.X {
		if treeClass(tree, x) != ds.Y[i] {
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
	tree := TrainTree(train, stats.NewRand(2))
	errors := 0
	for i, x := range test.X {
		if treeClass(tree, x) != test.Y[i] {
			errors++
		}
	}
	if float64(errors)/float64(test.Len()) > 0.05 {
		t.Errorf("test error rate %d/200 too high", errors)
	}
}

// depth is the height of a subtree (a single leaf has depth 0).
func depth(n *nodeDTO) int {
	if n.Leaf {
		return 0
	}
	return 1 + max(depth(n.Left), depth(n.Right))
}

func leaves(n *nodeDTO) int {
	if n.Leaf {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	ds := NewDataset([]string{"x"}, []string{"only"})
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, 0)
	}
	tree := TrainTree(ds, stats.NewRand(1))
	if depth(tree.toDTO(0)) != 0 || leaves(tree.toDTO(0)) != 1 {
		t.Errorf("pure data should yield a single leaf; depth=%d leaves=%d",
			depth(tree.toDTO(0)), leaves(tree.toDTO(0)))
	}
}

func TestTreeConstantFeaturesYieldLeaf(t *testing.T) {
	ds := NewDataset([]string{"c"}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		ds.Add([]float64{42}, i%2)
	}
	tree := TrainTree(ds, stats.NewRand(1))
	if leaves(tree.toDTO(0)) != 1 {
		t.Errorf("constant features can't split; leaves=%d", leaves(tree.toDTO(0)))
	}
	// majority vote on a tie must still return a valid class
	if c := treeClass(tree, []float64{42}); c != 0 && c != 1 {
		t.Errorf("invalid class %d", c)
	}
}

func TestTreeProbaSumsToOne(t *testing.T) {
	ds := linearlySeparable(200, 5)
	tree := TrainTree(ds, stats.NewRand(1))
	p := tree.probaPointer([]float64{3, 50})
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
	tree := TrainTree(ds, stats.NewRand(1))
	f := func(a, b float64) bool {
		c := treeClass(tree, []float64{a, b})
		return c >= 0 && c < 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stepDataset is x = 0..n-1 on one feature, class 1 from x = 2 on: the
// one perfect split sits between the second and third instance.
func stepDataset(n int) *Dataset {
	ds := NewDataset([]string{"x"}, []string{"lo", "hi"})
	for i := 0; i < n; i++ {
		ds.Add([]float64{float64(i)}, min(i/2, 1))
	}
	return ds
}

// TestTreeThresholdSubsampling: a node of at most maxThresholds
// instances scores every split position, so the root takes the perfect
// split at 1.5; on a node of twice that only every other position is
// scored, the perfect one is skipped, and the root settles for 2.5. A
// large node still learns a separable rule.
func TestTreeThresholdSubsampling(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{maxThresholds, 1.5}, {2 * maxThresholds, 2.5}} {
		tree := TrainTree(stepDataset(c.n), stats.NewRand(1))
		if root := tree.nodes[0]; root.feature != 0 || root.threshold != c.want {
			t.Errorf("n=%d: root splits feature %d at %v, want feature 0 at %v", c.n, root.feature, root.threshold, c.want)
		}
	}
	tree := TrainTree(linearlySeparable(2000, 11), stats.NewRand(1))
	if treeClass(tree, []float64{1, 0}) != 0 || treeClass(tree, []float64{9, 0}) != 1 {
		t.Error("tree failed to learn the separable rule")
	}
}

// TestTreeMinLeafRespected: three separable instances cannot be split
// into two leaves of minLeaf (2) each, so they stay one leaf; four can,
// and split once.
func TestTreeMinLeafRespected(t *testing.T) {
	for n, wantDepth := range map[int]int{3: 0, 4: 1} {
		if d := depth(TrainTree(stepDataset(n), stats.NewRand(1)).toDTO(0)); d != wantDepth {
			t.Errorf("%d instances: depth %d, want %d", n, d, wantDepth)
		}
	}
}

// TestTreeSlabsPinned pins what induction writes: every node record
// (feature, right, threshold bits) and every leaf weight of a forest
// trained at a fixed seed, hashed into one digest. The constant was
// captured from the tree compiler that induction replaced, so the slab
// build writes exactly what compiling the pointer tree did. It depends
// on neither gob nor the Go version.
func TestTreeSlabsPinned(t *testing.T) {
	const want = "d4412bfb9d0a8ef3b3bece0546a5e5b455cba77a54ef1a41fe5dcaec5648c32a"
	r := stats.NewRand(71)
	ds := randomDataset(r, 400, 6, 3)
	f := TrainForest(ds, ForestConfig{Trees: 9, Seed: 71})
	h := sha256.New()
	var b [8]byte
	for _, tr := range f.Trees {
		for _, n := range tr.nodes {
			binary.LittleEndian.PutUint32(b[:4], uint32(n.feature))
			h.Write(b[:4])
			binary.LittleEndian.PutUint32(b[:4], uint32(n.right))
			h.Write(b[:4])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(n.threshold))
			h.Write(b[:])
		}
		for _, p := range tr.dists {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("tree slabs digest %s, want %s", got, want)
	}
}

// TestTreeHoldsOneForm: a tree is its node slab, its leaf slab and its
// class count — no second representation beside them — and a node
// record holds no pointers, so a forest is a handful of flat arrays to
// the garbage collector.
func TestTreeHoldsOneForm(t *testing.T) {
	ty := reflect.TypeOf(Tree{})
	want := []struct {
		name string
		typ  reflect.Type
	}{
		{"nodes", reflect.TypeOf([]node(nil))},
		{"dists", reflect.TypeOf([]float64(nil))},
		{"numClasses", reflect.TypeOf(0)},
	}
	if ty.NumField() != len(want) {
		t.Fatalf("Tree has %d fields, want %d", ty.NumField(), len(want))
	}
	for i, w := range want {
		if f := ty.Field(i); f.Name != w.name || f.Type != w.typ {
			t.Errorf("Tree field %d is %s %s, want %s %s", i, f.Name, f.Type, w.name, w.typ)
		}
	}
	nt := reflect.TypeOf(node{})
	for i := 0; i < nt.NumField(); i++ {
		switch f := nt.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Float64:
		default:
			t.Errorf("node.%s is a %s", f.Name, f.Type.Kind())
		}
	}
	if nt.Size() != 16 {
		t.Errorf("node is %d bytes, want 16", nt.Size())
	}
}
