package ml

import (
	"runtime"
	"slices"
	"testing"

	"vqoe/internal/stats"
)

// noisyThreeClass builds a 3-class dataset with overlapping gaussian
// clusters along one informative feature.
func noisyThreeClass(n int, seed int64) *Dataset {
	r := stats.NewRand(seed)
	ds := NewDataset([]string{"f0", "f1", "f2"}, []string{"a", "b", "c"})
	centers := []float64{0, 5, 10}
	for i := 0; i < n; i++ {
		c := i % 3
		ds.Add([]float64{
			r.Normal(centers[c], 1.5),
			r.Float64(),
			r.Normal(centers[c]*0.5, 3), // weakly informative
		}, c)
	}
	return ds
}

func TestForestLearnsAndGeneralizes(t *testing.T) {
	train := noisyThreeClass(900, 1)
	test := noisyThreeClass(300, 2)
	f := TrainForest(train, ForestConfig{Trees: 30, Seed: 3})
	conf := Evaluate(f, test)
	if acc := conf.Accuracy(); acc < 0.85 {
		t.Errorf("forest accuracy %v too low", acc)
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	ds := noisyThreeClass(300, 1)
	f1 := TrainForest(ds, ForestConfig{Trees: 10, Seed: 42})
	f2 := TrainForest(ds, ForestConfig{Trees: 10, Seed: 42})
	for i := 0; i < 100; i++ {
		x := []float64{float64(i) / 10, 0.5, float64(i) / 20}
		c1, _ := f1.predictOne(x)
		if c2, _ := f2.predictOne(x); c1 != c2 {
			t.Fatal("same seed should give identical forests")
		}
	}
}

func TestForestProbaNormalized(t *testing.T) {
	ds := noisyThreeClass(300, 1)
	f := TrainForest(ds, ForestConfig{Trees: 10, Seed: 1})
	class, votes := f.predictOne([]float64{5, 0.5, 2.5})
	if got, want := f.Confidence(votes, class), slices.Max(votes)/float64(len(f.Trees)); got != want {
		t.Errorf("confidence %v, want the top vote share %v", got, want)
	}
	var sum float64
	for c := range votes {
		v := f.Confidence(votes, c)
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("proba sums to %v", sum)
	}
}

func TestForestBeatsOrMatchesSingleTreeOnNoise(t *testing.T) {
	train := noisyThreeClass(600, 5)
	test := noisyThreeClass(300, 6)
	forest := TrainForest(train, ForestConfig{Trees: 40, Seed: 7})
	tree := TrainTree(train, stats.NewRand(7))
	fErr, tErr := 0, 0
	pred, _ := forest.PredictAll(test)
	for i, p := range pred {
		if p != test.Y[i] {
			fErr++
		}
		if treeClass(tree, test.X[i]) != test.Y[i] {
			tErr++
		}
	}
	if fErr > tErr+10 {
		t.Errorf("forest (%d errors) much worse than single tree (%d)", fErr, tErr)
	}
}

func TestForestSchemaCaptured(t *testing.T) {
	ds := noisyThreeClass(90, 1)
	f := TrainForest(ds, ForestConfig{Trees: 3, Seed: 1})
	if len(f.Features) != 3 || f.Features[0] != "f0" {
		t.Errorf("features = %v", f.Features)
	}
	if len(f.Classes) != 3 || f.Classes[2] != "c" {
		t.Errorf("classes = %v", f.Classes)
	}
}

// TestPredictAllMatchesPredict holds PredictAll to one-row batches on
// both sides of every worker-count boundary of the one batch split
// (the two splits it replaced rounded n/256 differently), with the
// pool available and with a single CPU.
func TestPredictAllMatchesPredict(t *testing.T) {
	f := TrainForest(noisyThreeClass(200, 9), ForestConfig{Trees: 10, Seed: 2})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 200, 257, 511, 512, 513, 1100} {
			ds := noisyThreeClass(n, 9)
			all, votes := f.PredictAll(ds)
			if len(all) != n || len(votes) != n*f.numClasses {
				t.Fatalf("procs=%d n=%d: %d predictions, %d votes", procs, n, len(all), len(votes))
			}
			for i, x := range ds.X {
				want, wantVotes := f.predictOne(x)
				if all[i] != want || !slices.Equal(votes[i*f.numClasses:(i+1)*f.numClasses], wantVotes) {
					t.Fatalf("procs=%d n=%d: PredictAll[%d] disagrees with a one-row batch", procs, n, i)
				}
			}
		}
	}
	if got, votes := f.PredictAll(NewDataset(f.Features, f.Classes)); got != nil || votes != nil {
		t.Error("empty dataset should predict nothing")
	}
}

func TestForestDefaultsApplied(t *testing.T) {
	if f := TrainForest(noisyThreeClass(30, 1), ForestConfig{}); len(f.Trees) != 60 {
		t.Errorf("ForestConfig{} grew %d trees, want 60", len(f.Trees))
	}
	// sqrt(70) ≈ 8.37 → 9; a perfect square takes its root
	for _, c := range []struct{ m, want int }{{70, 9}, {64, 8}, {2, 2}, {1, 1}} {
		if got := featuresPerSplit(c.m); got != c.want {
			t.Errorf("featuresPerSplit(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := noisyThreeClass(600, 4)
	f := TrainForest(ds, ForestConfig{Trees: 15, Seed: 5})
	probe := noisyThreeClass(200, 6)
	batch := f.PredictBatchInto(probe.X, make([]float64, probe.Len()*f.numClasses), make([]int, probe.Len()))
	if len(batch) != probe.Len() {
		t.Fatalf("batch returned %d predictions for %d instances", len(batch), probe.Len())
	}
	for i, x := range probe.X {
		if want, _ := f.predictOne(x); batch[i] != want {
			t.Fatalf("instance %d: batch %d vs single %d", i, batch[i], want)
		}
	}
	if got := f.PredictBatchInto(nil, nil, nil); len(got) != 0 {
		t.Error("empty batch should predict nothing")
	}
}
